"""Geometrically convergent central-binomial series with algebraic weights.

Covers the three denominator families binom(2k,k)^3, binom(2k,k)^2 binom(3k,k),
and binom(2k,k)^2 binom(4k,2k), the Fibonacci/Lucas variants, and the weighted
series whose linear-in-k constants come from modular invariants at CM points.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import mpmath
from mpmath import libmp, mp, mpc, mpf

from .numerics import (
    MAX_TERMS,
    DomainError,
    MixedRadicandError,
    PrecisionContext,
    QuadraticNumber,
    embed_quadratic,
    to_fixed,
)
from .modular import (
    _ALPHA_SCALE,
    _as_mpc,
    _in_region,
    _level,
    _uncancelled,
    eichler_e4_tilde,
    satisfies_region,
)
from .modular import alpha_n, legendre_ramanujan_r  # noqa: F401 (perfbench traces them here)


class SeriesFamily(enum.Enum):
    """Denominator family. denom(k-1) / denom(k) = k^3 / den_k with
    den_k = c (2k-1)(ak-1)(ak-a+1); ``scale`` = 2 c a^2 is the growth rate
    of the denominator."""

    CENTRAL3 = ("CENTRAL3", 8, 2)
    C2X3K = ("C2x3K", 6, 3)
    C2X4K = ("C2x4K", 8, 4)

    def __init__(self, tag: str, c: int, a: int):
        self.tag = tag
        self.c = c
        self.a = a
        self.scale = 2 * c * a * a

    def ratio(self, k: int) -> Tuple[int, int]:
        """denom(k-1) / denom(k) as the exact small-integer pair (k^3, den_k),
        with denom(0) = 1."""
        a = self.a
        return k**3, self.c * (2 * k - 1) * (a * k - 1) * (a * k - a + 1)


_FAMILY_BY_LEVEL = {2: SeriesFamily.C2X4K, 3: SeriesFamily.C2X3K, 4: SeriesFamily.CENTRAL3}


@dataclass(frozen=True)
class UpsideDownSeries:
    """sum_{k>=1} (a*k - b) m^k / (k^3 * denom(k)) with exact algebraic data."""

    family: SeriesFamily
    a: QuadraticNumber
    b: QuadraticNumber
    m: QuadraticNumber


@dataclass(frozen=True)
class FibLucasSeries:
    """sum_k [(p k + q) F_{8k} + (r k + s) L_{8k} + (t k + u) F_{8k-1}]
    / (k^3 binom(2k,k)^3).

    The F_{8k-1} weights (t, u) cover transcriptions that eliminate the Lucas
    numbers; they default to zero.
    """

    p: Fraction
    q: Fraction
    r: Fraction
    s: Fraction
    t: Fraction = Fraction(0)
    u: Fraction = Fraction(0)


def _sum_linear_series(c1, c2, m, family: SeriesFamily, ctx: PrecisionContext):
    """(value, K): sum_{k>=1} (c1*k - c2) m^k / (k^3 denom(k)) = c1 S_2 - c2 S_3
    for mpf/mpc coefficients, where S_j = sum_k m^k / (k^j denom(k)), over a
    term count K fixed before the loop.

    The loop carries only u_k = m^k / denom(k), by the family's small-integer
    ratio k^3 / den_k: s_k = u_{k-1} m / den_k is term k without its
    coefficient, and u_k = k^3 s_k. It adds s_k to S_3 and k s_k to S_2 and
    applies c1 and c2 once at the end, all on Python ints scaled by 2^P:
    single ints when c1, c2 and m are all mpf, Gaussian pairs otherwise.
    den_k is divided out as c (2k-1), then (ak-1)(ak-a+1), mostly one CPython
    digit each, with the bits of one division: floor(floor(x/p)/q) =
    floor(x/(pq)) for p, q > 0.

    Tail: |s_{k+1} / s_k| = |m| k^3 / den_{k+1} < r = |m| / scale, as
    (2k+1)(ak+a-1)(ak+1) > 2 a^2 k^3, so |s_k| <= |s_1| r^(k-1) with
    |s_1| = |m| / den_1, and the terms after K sum to at most
    |s_1| r^K (|c1| (K+1) / (1-r)^2 + |c2| / (1-r)). K is the least count
    that puts this at or below ctx.eps, by fixed-point steps on its logarithm
    in floats, plus one term for their rounding; K = 1 when the bound is 0.

    Rounding: each step truncates s_k by under 2 ulps, and the error already
    in s_k is carried on times less than r, so it stays below 4 / (1-r) ulps.
    S_3 is then off by under 4 K / (1-r) ulps and S_2 by under 4 K^2 / (1-r),
    so c1 S_2 - c2 S_3, truncated once more, by under
    4 K (|c1| K + |c2| + 1) / (1-r) ulps. P is the bits of ctx.bumped().dps
    plus the bits of that count.

    Real c1, c2 and m give an mpf, the fixed-point sum unrounded, anything
    else an mpc rounded at ctx's working precision. DomainError if
    the series diverges, if the plan leaves the float range, or if K exceeds
    MAX_TERMS.
    """
    with ctx.working():
        r = abs(m) / family.scale
        if r >= 1:
            raise DomainError(f"series diverges: |m|/{family.scale} = {float(r)}")
        exact = (r, 1 - r, abs(c1), abs(c2))
        r, gap, a1, a2 = plan = [float(v) for v in exact]
        underflow = any(v and not f for f, v in zip(plan, exact))
        base = libmp.dps_to_prec(ctx.bumped().dps)
    lin, const = a1 / gap / gap, a2 / gap
    big = max(lin, const)
    try:
        if underflow or math.isinf(big):
            raise OverflowError
        K = 1
        if r and big:
            # K >= (log(|s_1| (lin (K+1) + const)) - log eps) / -log r, with
            # |s_1| = r scale / den_1. The right side grows with K, so the
            # steps rise to its least fixed point and stop there.
            rate = -math.log(r) if r < 0.5 else -math.log1p(-gap)
            top = (math.log(big) + math.log(family.scale / family.ratio(1)[1])
                   + ctx.dps * math.log(10) - rate)
            w1, w0 = lin / big, const / big
            last = 0
            while K != last:
                step = (top + math.log(w1 * (K + 1) + w0)) / rate
                last, K = K, max(K, math.ceil(step))
            K += 1
        if K > MAX_TERMS:
            raise DomainError(f"series needs {K} terms at {ctx.dps} digits, "
                              f"more than MAX_TERMS = {MAX_TERMS}")
        prec = base + int(4 * K * (a1 * K + a2 + 1) / gap).bit_length()
    except OverflowError:
        raise DomainError(f"series plan leaves the float range: "
                          f"r, 1 - r, |c1|, |c2| = {plan}") from None
    (c1r, c1i), (c2r, c2i), (mr, mi) = (to_fixed(v, prec) for v in (c1, c2, m))
    c, a = family.c, family.a
    if not any(isinstance(v, mpc) for v in (c1, c2, m)):
        u, s2, s3 = 1 << prec, 0, 0
        for k in range(1, K + 1):
            ak = a * k
            s = ((u * mr) >> prec) // (c * (2 * k - 1)) // ((ak - 1) * (ak - a + 1))
            s3 += s
            s2 += k * s
            u = s * k * k * k
        return mpmath.ldexp((c1r * s2 - c2r * s3) >> prec, -prec), K
    ur, ui = 1 << prec, 0
    s2r = s2i = s3r = s3i = 0
    for k in range(1, K + 1):
        ak = a * k
        p, q = c * (2 * k - 1), (ak - 1) * (ak - a + 1)
        sr = ((ur * mr - ui * mi) >> prec) // p // q
        si = ((ur * mi + ui * mr) >> prec) // p // q
        s3r += sr
        s3i += si
        s2r += k * sr
        s2i += k * si
        cube = k * k * k
        ur, ui = sr * cube, si * cube
    total_r = (c1r * s2r - c1i * s2i - c2r * s3r + c2i * s3i) >> prec
    total_i = (c1r * s2i + c1i * s2r - c2r * s3i - c2i * s3r) >> prec
    with ctx.working():
        return mpc(mpmath.ldexp(total_r, -prec), mpmath.ldexp(total_i, -prec)), K


# m = phi^8 and psi^8 for phi, psi = (1 +- sqrt5)/2, with 1/phi and 1/sqrt5.
_PHI8 = QuadraticNumber(Fraction(47, 2), Fraction(21, 2), 5)
_PSI8 = _PHI8.conjugate()
_INV_PHI = QuadraticNumber(Fraction(-1, 2), Fraction(1, 2), 5)
_INV_SQRT5 = QuadraticNumber(0, Fraction(1, 5), 5)


def _fib_halves(s: FibLucasSeries):
    """The CENTRAL3 series (c1, c2, m) whose sum is ``s``, m = phi^8 and psi^8.

    With L_n = F_n + 2 F_{n-1} and Binet's F_n = (phi^n - psi^n)/sqrt5, the
    numerator is (f1 k + f0) F_{8k} + (g1 k + g0) F_{8k-1}, and F_{8k-1} takes
    root^(8k) / root from each root's power. The psi^8 half is the Galois
    conjugate of the phi^8 half.
    """
    f1, f0 = s.p + s.r, s.q + s.s
    g1, g0 = 2 * s.r + s.t, 2 * s.s + s.u
    c1 = (f1 + g1 * _INV_PHI) * _INV_SQRT5
    c2 = -(f0 + g0 * _INV_PHI) * _INV_SQRT5
    return (c1, c2, _PHI8), (c1.conjugate(), c2.conjugate(), _PSI8)


def evaluate_series_sum(terms, ctx: PrecisionContext) -> Tuple[mpf, int]:
    """(value, terms_used): the real value of sum weight * series over
    (weight, series) pairs, with QuadraticNumber weights and UpsideDownSeries
    or FibLucasSeries.

    An UpsideDownSeries is one part c1 S_2(m) - c2 S_3(m) on its family's
    base sums; a FibLucasSeries is two CENTRAL3 parts, its phi^8 and psi^8
    halves. The weighted (c1, c2) of the parts that share a family and an
    exact m are summed exactly, in one quadratic field (DomainError if none
    holds them), and each group with c1 or c2 not 0 runs one loop on c1, c2
    and m embedded once on ctx.bumped(). terms_used sums the loops' counts K.
    """
    groups = {}
    for weight, s in terms:
        if isinstance(s, UpsideDownSeries):
            family, parts = s.family, ((s.a, s.b, s.m),)
        else:
            family, parts = SeriesFamily.CENTRAL3, _fib_halves(s)
        for a, b, m in parts:
            c1, c2 = groups.get((family, m), (0, 0))
            try:
                groups[family, m] = (c1 + weight * a, c2 + weight * b)
            except MixedRadicandError as exc:
                raise DomainError(f"series terms with m = {m}: {exc}") from None
    wide = ctx.bumped()
    with ctx.working():
        total, terms_used = mpf(0), 0
        for (family, m), (c1, c2) in groups.items():
            if c1 or c2:
                c1, c2, m = (embed_quadratic(v, wide) for v in (c1, c2, m))
                value, K = _sum_linear_series(c1, c2, m, family, ctx)
                total, terms_used = total + value.real, terms_used + K
    return total, terms_used


def evaluate_updown(s, ctx: PrecisionContext) -> mpf:
    """Real value of one UpsideDownSeries or FibLucasSeries (both halves)."""
    return evaluate_series_sum(((QuadraticNumber(1), s),), ctx)[0]


evaluate_fib_series = evaluate_updown


def fibonacci_lucas(n: int) -> Tuple[int, int]:
    """(F_n, L_n) by fast doubling; exact integers."""
    if n < 0:
        raise DomainError(f"index must be >= 0, got {n}")

    def fib_pair(k: int):
        # Returns (F_k, F_{k+1}).
        if k == 0:
            return 0, 1
        f, g = fib_pair(k >> 1)
        c = f * (2 * g - f)
        d = f * f + g * g
        if k & 1:
            return d, c + d
        return c, d

    f, g = fib_pair(n)
    return f, 2 * g - f


def series_constants_from_cm(z, N: int, ctx: PrecisionContext):
    """(2 xi, R_nu(xi), m) at z, all on ctx.bumped(), where a CMPoint is
    embedded too, from one pass of Euler's sums at each of z and Nz
    (modular._level): the eta quotient t and E2*(v) = E2(v) - 3 / (pi Im v).
    With alpha = alpha_N(z) = 1/(1 + t), xi = 1 - 2 alpha = 1 - 2/(1 + t) and
    m = s / (alpha (1 - alpha)) = s (1 + t)^2 / t, so 1 - alpha, which
    cancels near the cusp 0, is never formed. R_nu comes from
    the E2* form of Guillera & Rogers, "Ramanujan series upside-down", and
    Chan, Chan & Liu, "Domb's numbers and Ramanujan-Sato type series for 1/pi"
    (2004), in which the 1/(pi Im z) terms of E2 cancel; legendre_ramanujan_r
    is the oracle:

        R_nu = -(N-1)(E2*(z) + N E2*(Nz)) / (6 (N E2*(Nz) - E2*(z))) + (N+1)xi/6.

    DomainError where 1 + t or this denominator cancels (modular._uncancelled)."""
    wide = ctx.bumped()
    z = _as_mpc(z, wide)
    with wide.working():
        t, e2, e2n = _level(z, N, wide)
        xi = 1 - 2 / (1 + t)
        den = _uncancelled(N * e2n - e2, N * abs(e2n) + abs(e2), "N E2*(Nz) - E2*(z)")
        c2 = -(N - 1) * (e2 + N * e2n) / (6 * den) + (N + 1) * xi / 6
        return 2 * xi, c2, _ALPHA_SCALE[N] * (1 + t) ** 2 / t


def sigma_gr(z, N: int, ctx: PrecisionContext):
    """Complex value of the weighted series at an admissible CM point."""
    z = _as_mpc(z, ctx)
    c1, c2, m = series_constants_from_cm(z, N, ctx)
    with ctx.working():
        admissible = _in_region(z, N, c1 / 2, ctx)
    if not admissible:
        raise DomainError(f"point {z} outside the admissible region for N={N}")
    return _sum_linear_series(c1, c2, m, _FAMILY_BY_LEVEL[N], ctx)[0]


def sigma_gr_im_rhs(z, N: int, ctx: PrecisionContext) -> mpf:
    """Closed form for Im of the weighted series: a cubic polynomial in the
    coordinates of z plus a weighted real part of the iterated integral of
    1 - E_4, with the convention sign(0) = 0 in the shifted abscissa."""
    z = _as_mpc(z, ctx)
    if not satisfies_region(z, N, ctx):
        raise DomainError(f"point {z} outside the admissible region for N={N}")
    with ctx.working():
        x, y = z.real, z.imag
        xt = x if x == 0 else x - x / (2 * abs(x))
        poly = 4 * mp.pi**2 / (3 * y) * xt * (
            xt**2 + 3 * y**2 + mpf(12 - N) / (4 * N)
        )
        e_term = (eichler_e4_tilde(N * z, ctx) - N * eichler_e4_tilde(z, ctx)).real
        return poly + 4 * mp.pi**2 * e_term / (N * (N**2 - 1) * y)
