"""Geometrically convergent central-binomial series with algebraic weights.

Covers the three denominator families binom(2k,k)^3, binom(2k,k)^2 binom(3k,k),
and binom(2k,k)^2 binom(4k,2k), the Fibonacci/Lucas variants, and the weighted
series whose linear-in-k constants come from modular invariants at CM points.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import mpmath
from mpmath import libmp, mp, mpc, mpf

from .numerics import (
    GUARD_DIGITS,
    DomainError,
    PrecisionContext,
    QuadraticNumber,
    embed_quadratic,
    to_fixed,
)
from .modular import (
    _ALPHA_SCALE,
    CMPoint,
    _as_mpc,
    _in_region,
    _qsum,
    _sigma1_table,
    alpha_n,
    eichler_e4_tilde,
    satisfies_region,
)
from .modular import legendre_ramanujan_r  # noqa: F401 (perfbench traces R_nu here)


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


# Extra digits for the fixed-point loop, on top of the bits that
# _fixed_guard_bits counts for the rounding the loop itself commits.
_LOOP_GUARD = 10


def _fixed_guard_bits(c1, c2, ratio, budget) -> int:
    """Bits that cover the truncations of the fixed-point loop.

    Each step truncates s_k = m^k / (k^3 denom(k)) by under 2 ulps. The
    error already in s_k is carried on multiplied by at most ``ratio``
    (k^3 |m| / den_{k+1} <= |m| / scale), so it stays below about
    4 / (1 - ratio) ulps. Over K = 2 budget + 10 terms, S_3 = sum s_k is then
    off by under 4 K / (1 - ratio) ulps and S_2 = sum k s_k by under
    4 K^2 / (1 - ratio), so c1 S_2 - c2 S_3, truncated once more, is off by
    about 4 K (|c1| K + |c2| + 1) / (1 - ratio) ulps at most.
    """
    k = 2 * int(budget) + 10
    bound = 4 * k * (abs(c1) * k + abs(c2) + 1) / (1 - ratio)
    return int(bound).bit_length()


def _sum_linear_series(c1, c2, m, family: SeriesFamily, ctx: PrecisionContext,
                       counter: list = None):
    """sum_{k>=1} (c1*k - c2) m^k / (k^3 denom(k)) = c1 S_2 - c2 S_3 for
    mpf/mpc coefficients, where S_j = sum_k m^k / (k^j denom(k)).

    The loop carries only u_k = m^k / denom(k), by the family's small-integer
    ratio k^3 / den_k: s_k = u_{k-1} m / den_k is term k without its
    coefficient, and u_k = k^3 s_k. It adds s_k to S_3 and k s_k to S_2, and
    applies c1 and c2 once at the end. All of it runs on exact Gaussian pairs
    of Python ints scaled by 2^P, P the bits of the working dps plus
    _LOOP_GUARD digits plus _fixed_guard_bits; a real m keeps every imaginary
    part at 0. The loop stops after the first term k > 4 whose truncated
    (c1 k - c2) s_k is below the tail threshold; that product is formed only
    when the bit lengths of c1 k - c2 and s_k do not already put it clearly
    above. Real c1, c2 and m give an mpf, anything else an mpc. If
    ``counter`` is given, the number of summed terms is appended to it.
    """
    with ctx.working():
        ratio = abs(m) / family.scale
        if ratio >= 1 - mpf(10) ** (-GUARD_DIGITS):
            raise DomainError(f"series diverges: |m|/{family.scale} = {float(ratio)}")
        budget = ctx.dps * mpmath.ln10 / -mpmath.log(ratio)
        if budget > ctx.max_terms:
            raise DomainError(f"series needs about {int(budget)} terms at {ctx.dps} "
                              f"digits, more than max_terms = {ctx.max_terms}")
        # Coefficient growth is linear, denominator decay geometric, so the
        # tail after a term is below |term| ratio / (1 - ratio). With m = 0
        # every term after the first is exactly 0, below any threshold.
        threshold = ctx.eps * (1 - ratio) / ratio if ratio else mpf(1)
        prec = (libmp.dps_to_prec(ctx.dps + _LOOP_GUARD)
                + _fixed_guard_bits(c1, c2, ratio, budget))
    (c1r, c1i), (c2r, c2i), (mr, mi) = (to_fixed(v, prec) for v in (c1, c2, m))
    thr = to_fixed(threshold, prec)[0]
    thr2 = thr * thr
    # |lin s| >= |Re lin| |Re s| and |Im lin| |Im s|. Once the bit lengths
    # of either pair add up to ``clear``, the term is at least
    # 2^(clear - 2 - P) >= 2 thr + 2 before its truncation, so it cannot
    # pass the stop test.
    clear = prec + thr.bit_length() + 3
    c, a = family.c, family.a
    ur, ui = 1 << prec, 0
    lr, li = -c2r, -c2i
    s2r = s2i = s3r = s3i = 0
    for k in range(1, ctx.max_terms + 1):
        ak = a * k
        den = c * (2 * k - 1) * (ak - 1) * (ak - a + 1)
        sr = ((ur * mr - ui * mi) >> prec) // den
        si = ((ur * mi + ui * mr) >> prec) // den
        s3r += sr
        s3i += si
        s2r += k * sr
        s2i += k * si
        lr += c1r
        li += c1i
        if (k > 4 and lr.bit_length() + sr.bit_length() < clear
                and li.bit_length() + si.bit_length() < clear):
            tr = (lr * sr - li * si) >> prec
            ti = (lr * si + li * sr) >> prec
            if abs(tr) < thr and abs(ti) < thr and tr * tr + ti * ti < thr2:
                break
        cube = k * k * k
        ur, ui = sr * cube, si * cube
    else:
        raise RuntimeError("series truncation exceeded max_terms")
    if counter is not None:
        counter.append(k)
    total_r = (c1r * s2r - c1i * s2i - c2r * s3r + c2i * s3i) >> prec
    total_i = (c1r * s2i + c1i * s2r - c2r * s3i - c2i * s3r) >> prec
    with ctx.working():
        if any(isinstance(v, mpc) for v in (c1, c2, m)):
            return mpc(mpmath.ldexp(total_r, -prec), mpmath.ldexp(total_i, -prec))
        return mpmath.ldexp(total_r, -prec)


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


def evaluate_series_sum(terms, ctx: PrecisionContext, counter: list = None) -> mpf:
    """Real value of sum weight * series over (weight, series) pairs, with
    QuadraticNumber weights and UpsideDownSeries or FibLucasSeries.

    An UpsideDownSeries is one part c1 S_2(m) - c2 S_3(m) on its family's
    base sums; a FibLucasSeries is two CENTRAL3 parts, its phi^8 and psi^8
    halves. The weighted (c1, c2) of all parts that share a family and an
    exact m are
    summed in mpf on ctx.bumped(_LOOP_GUARD), and each such group runs one
    loop; a group whose c1 and c2 are both 0 runs none. If ``counter`` is
    given, the terms summed over all loops are appended as one number.
    """
    # The coefficients and m carry the loop's guard digits too: the error of
    # m grows k-fold in term k.
    wide = ctx.bumped(_LOOP_GUARD)
    groups = {}
    with wide.working():
        for weight, s in terms:
            if isinstance(s, UpsideDownSeries):
                parts = ((s.a, s.b, s.m),)
                family = s.family
            else:
                parts = _fib_halves(s)
                family = SeriesFamily.CENTRAL3
            w = embed_quadratic(weight, wide)
            for a, b, m in parts:
                acc = groups.setdefault((family, m), [mpf(0), mpf(0)])
                acc[0] += w * embed_quadratic(a, wide)
                acc[1] += w * embed_quadratic(b, wide)
        loops = [(c1, c2, embed_quadratic(m, wide), family)
                 for (family, m), (c1, c2) in groups.items() if c1 or c2]
    tally = []
    with ctx.working():
        total = mpf(0)
        for c1, c2, m, family in loops:
            total += _sum_linear_series(c1, c2, m, family, ctx, tally).real
    if counter is not None:
        counter.append(sum(tally))
    return total


def evaluate_updown(s: UpsideDownSeries, ctx: PrecisionContext,
                    counter: list = None) -> mpf:
    """Real value of an upside-down series with QuadraticNumber data."""
    return evaluate_series_sum(((QuadraticNumber(1), s),), ctx, counter)


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


def evaluate_fib_series(s: FibLucasSeries, ctx: PrecisionContext,
                        counter: list = None) -> mpf:
    """Value of a Fibonacci/Lucas series: its phi^8 half (ratio 0.73) plus its
    psi^8 half (ratio 3e-4), each a CENTRAL3 upside-down sum. The terms of
    both loops are counted."""
    return evaluate_series_sum(((QuadraticNumber(1), s),), ctx, counter)


def series_constants_from_cm(z, N: int, ctx: PrecisionContext):
    """(2 xi, R_nu(xi), const_N / (alpha (1 - alpha))) at z, alpha = alpha_N(z) and
    xi = 1 - 2 alpha, all on ctx.bumped(_LOOP_GUARD). With y = Im z and E2 = 1 - 24
    sum sigma_1(n) q^n on _qsum, R_nu has the E2* form of Guillera & Rogers,
    "Ramanujan series upside-down", and Chan, Chan & Liu, "Domb's numbers and
    Ramanujan-Sato type series for 1/pi" (2004); legendre_ramanujan_r is the oracle:

        R_nu = (N-1)[1/(pi y) - (E2(z) + N E2(Nz))/6]/(N E2(Nz) - E2(z)) + (N+1)xi/6."""
    wide = ctx.bumped(_LOOP_GUARD)
    if isinstance(z, CMPoint):
        z = z.to_point(ctx)
    z = _as_mpc(z)
    with wide.working():
        alpha = alpha_n(z, N, wide)
        prod = alpha * (1 - alpha)
        if abs(prod) < ctx.eps:
            raise DomainError("alpha in {0, 1}: series constants undefined")
        xi = 1 - 2 * alpha
        e2, e2n = (1 - 24 * _qsum(w, wide, _sigma1_table, (0,))[0] for w in (z, N * z))
        c2 = ((N - 1) * (1 / (mp.pi * z.imag) - (e2 + N * e2n) / 6) / (N * e2n - e2)
              + (N + 1) * xi / 6)
        return 2 * xi, c2, _ALPHA_SCALE[N] / prod


def sigma_gr(z, N: int, ctx: PrecisionContext):
    """Complex value of the weighted series at an admissible CM point."""
    z = _as_mpc(z)
    c1, c2, m = series_constants_from_cm(z, N, ctx)
    # c1 = 2 xi = 2 (1 - 2 alpha) hands the region test its alpha_N(z).
    with ctx.bumped(_LOOP_GUARD).working():
        alpha = (2 - c1) / 4
    if not _in_region(z, N, alpha, ctx):
        raise DomainError(f"point {z} outside the admissible region for N={N}")
    return _sum_linear_series(c1, c2, m, _FAMILY_BY_LEVEL[N], ctx)


def sigma_gr_im_rhs(z, N: int, ctx: PrecisionContext) -> mpf:
    """Closed form for Im of the weighted series: a cubic polynomial in the
    coordinates of z plus a weighted real part of the iterated integral of
    1 - E_4, with the convention sign(0) = 0 in the shifted abscissa."""
    z = _as_mpc(z)
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
