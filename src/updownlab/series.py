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


# Terms per block of the series loop. The rounding count of
# _sum_linear_series needs g <= den_1 (8, 12 or 24); blocks of 12 and 16
# terms measured within run-to-run noise of 8 at 300 and 1000 digits.
_BLOCK = 8


def _term_count(r: float, gap: float, a1: float, a2: float,
                family: SeriesFamily, ctx: PrecisionContext) -> int:
    """The least K whose tail bound |s_1| r^K (a1 (K+1) / gap^2 + a2 / gap),
    gap = 1 - r, is at most ctx.eps (see _sum_linear_series), by fixed-point
    steps on its logarithm in floats, plus one term for their rounding; 1
    when the bound is 0. OverflowError when the floats cannot hold it."""
    lin, const = a1 / gap / gap, a2 / gap
    big = max(lin, const)
    if math.isinf(big):
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
    return K


def _sum_linear_series(c1, c2, m, family: SeriesFamily, ctx: PrecisionContext):
    """(value, K): sum_{k>=1} (c1*k - c2) m^k / (k^3 denom(k)) = c1 S_2 - c2 S_3
    for mpf/mpc coefficients, where S_j = sum_k m^k / (k^j denom(k)), over a
    term count K fixed before the loop.

    The loop runs on Python ints scaled by 2^P, single ints when c1, c2 and
    m are all mpf, Gaussian pairs otherwise, in blocks of g = _BLOCK terms.
    Term k = bg + i of block b (i = 1..g) is s_k = m^k / (k^3 denom(k)), and
    the block carries t_k = s_k / m^i, which advances by the family's
    small-integer ratio alone: t_k = t_{k-1} (k-1)^3 / den_k, one product by
    (k-1)^3 and one floor division by den_k, a few CPython digits each. Lane
    i adds t_k to its share of S_3 and k t_k to its share of S_2. One
    full-width product, by m^g, closes the block: it turns the last t into
    s_{bg+g}, from which the next block starts. The lanes join once at the
    end, S_j = sum_i lane_j[i] m^i, on m^2 .. m^g taken by repeated
    products, and c1 and c2 apply once: about K/g + 3g full-width products
    instead of K.

    Tail: |s_{k+1} / s_k| = |m| k^3 / den_{k+1} < r = |m| / scale, as
    (2k+1)(ak+a-1)(ak+1) > 2 a^2 k^3, so |s_k| <= |s_1| r^(k-1) with
    |s_1| = |m| / den_1, and the terms after K sum to at most
    |s_1| r^K (|c1| (K+1) / (1-r)^2 + |c2| / (1-r)). _term_count finds K.

    Rounding, in ulps of 2^-P, each truncation under sqrt 2 in modulus. Let
    M = 2^(g e) >= max(1, |m|)^g, with e the binary exponent of |m| in the
    float plan (|m| < 2^e). An error x in t_k is x |m|^i < x M in s_k. Each
    term's division adds under sqrt2 M to s_k, and the chain carries the
    error on times less than r, as |m| (k-1)^3 / den_k < r. The rounded m^i
    are off by at most sqrt2 (1 + |m| + ... + |m|^(i-2)); times |t_k| that
    is under sqrt2 (g-1) max(1, |m|) / den_1 < sqrt2 M, as g <= den_1 and
    |t_k| = |s_k| / |m|^i with |s_k| <= |s_1| = |m| / den_1 if |m| >= 1,
    |t_k| <= 1 / den_1 if |m| < 1. So each product closing a block adds
    under 2 sqrt2 M, S_3 is off by under sqrt2 M K ((1 + 2/g) / (1-r) + 1)
    + sqrt2 and S_2 by K times that, and c1 S_2 - c2 S_3, truncated once
    more, by under 5 M K (|c1| K + |c2| + 1) / (1-r) ulps. P is the bits of
    ctx.bumped().dps plus the bits of that count: the g max(0, e) guard bits
    of M, for the |m|^i of the join, and those of 5 K (|c1| K + |c2| + 1) /
    (1-r).

    Real c1, c2 and m give an mpf, the fixed-point sum unrounded, anything
    else an mpc rounded at ctx's working precision. DomainError if
    the series diverges, if the plan leaves the float range, or if K exceeds
    MAX_TERMS.
    """
    with ctx.working():
        r = abs(m) / family.scale
        if r >= 1:
            raise DomainError(f"series diverges: |m|/{family.scale} = {float(r)}")
        exact = (r, 1 - r, abs(c1), abs(c2), abs(m))
        r, gap, a1, a2, am = plan = [float(v) for v in exact]
        underflow = any(v and not f for f, v in zip(plan, exact))
        base = libmp.dps_to_prec(ctx.bumped().dps)
    g = _BLOCK
    try:
        if underflow:
            raise OverflowError
        K = _term_count(r, gap, a1, a2, family, ctx)
        if K > MAX_TERMS:
            raise DomainError(f"series needs {K} terms at {ctx.dps} digits, "
                              f"more than MAX_TERMS = {MAX_TERMS}")
        prec = (base + int(5 * K * (a1 * K + a2 + 1) / gap).bit_length()
                + g * max(0, math.frexp(am)[1]))
    except OverflowError:
        raise DomainError(f"series plan leaves the float range: "
                          f"r, 1 - r, |c1|, |c2|, |m| = {plan}") from None
    (c1r, c1i), (c2r, c2i), (mr, mi) = (to_fixed(v, prec) for v in (c1, c2, m))
    c, a = family.c, family.a
    if not any(isinstance(v, mpc) for v in (c1, c2, m)):
        powers = [mr]
        for _ in range(g - 1):
            powers.append((powers[-1] * mr) >> prec)
        lane3, lane2 = [0] * g, [0] * g
        t, cube = 1 << prec, 1
        for k0 in range(0, K, g):
            if k0:
                t = (t * powers[-1]) >> prec
            for i, k in enumerate(range(k0 + 1, min(k0 + g, K) + 1)):
                ak = a * k
                t = t * cube // (c * (2 * k - 1) * (ak - 1) * (ak - a + 1))
                lane3[i] += t
                lane2[i] += k * t
                cube = k * k * k
        s3 = sum(x * w for x, w in zip(lane3, powers)) >> prec
        s2 = sum(x * w for x, w in zip(lane2, powers)) >> prec
        return mpmath.ldexp((c1r * s2 - c2r * s3) >> prec, -prec), K
    powers = [(mr, mi)]
    for _ in range(g - 1):
        pr, pi = powers[-1]
        powers.append(((pr * mr - pi * mi) >> prec, (pr * mi + pi * mr) >> prec))
    wr, wi = powers[-1]
    l3r, l3i, l2r, l2i = ([0] * g for _ in range(4))
    tr, ti, cube = 1 << prec, 0, 1
    for k0 in range(0, K, g):
        if k0:
            tr, ti = (tr * wr - ti * wi) >> prec, (tr * wi + ti * wr) >> prec
        for i, k in enumerate(range(k0 + 1, min(k0 + g, K) + 1)):
            ak = a * k
            den = c * (2 * k - 1) * (ak - 1) * (ak - a + 1)
            tr = tr * cube // den
            ti = ti * cube // den
            l3r[i] += tr
            l3i[i] += ti
            l2r[i] += k * tr
            l2i[i] += k * ti
            cube = k * k * k

    def join(lr, li):
        return (sum(xr * pr - xi * pi for xr, xi, (pr, pi) in zip(lr, li, powers)) >> prec,
                sum(xr * pi + xi * pr for xr, xi, (pr, pi) in zip(lr, li, powers)) >> prec)

    (s3r, s3i), (s2r, s2i) = join(l3r, l3i), join(l2r, l2i)
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
