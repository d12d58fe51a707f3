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
    _frac_mpf,
    _qsum,
    _sigma1_table,
    alpha_n,
    eichler_e4_tilde,
    satisfies_region,
)
from .modular import legendre_ramanujan_r  # noqa: F401 (perfbench traces R_nu here)


class SeriesFamily(enum.Enum):
    """Denominator family; ``scale`` is the growth rate of the denominator."""

    CENTRAL3 = ("CENTRAL3", 64)
    C2X3K = ("C2x3K", 108)
    C2X4K = ("C2x4K", 256)

    def __init__(self, tag: str, scale: int):
        self.tag = tag
        self.scale = scale

    def ratio(self, k: int) -> Tuple[int, int]:
        """denom(k-1) / denom(k) as the exact small-integer pair (num, den),
        with denom(0) = 1. The numerator is k^3 in every family."""
        if self is SeriesFamily.CENTRAL3:
            return k**3, 8 * (2 * k - 1) ** 3
        if self is SeriesFamily.C2X3K:
            return k**3, 6 * (2 * k - 1) * (3 * k - 1) * (3 * k - 2)
        return k**3, 8 * (2 * k - 1) * (4 * k - 1) * (4 * k - 3)


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

    Each step truncates u_k by under 2 ulps. The error already in u_k is
    carried on multiplied by at most ``ratio`` (k^3 |m| / den_{k+1} <= |m| / scale),
    so it stays below about 4 / (1 - ratio) ulps, and term k multiplies it
    by |c1 k - c2|. Over K = 2 budget + 10 terms the sum is off by about
    4 K (|c1| K + |c2| + 1) / (1 - ratio) ulps at most.
    """
    k = 2 * int(budget) + 10
    bound = 4 * k * (abs(c1) * k + abs(c2) + 1) / (1 - ratio)
    return int(bound).bit_length()


def _sum_linear_series(c1, c2, m, family: SeriesFamily, ctx: PrecisionContext,
                       counter: list = None):
    """sum_{k>=1} (c1*k - c2) m^k / (k^3 denom(k)) for mpf/mpc coefficients.

    u_k = m^k / denom(k) is carried by the family's small-integer ratio
    k^3 / den_k, whose k^3 cancels the term's: term_k = (c1 k - c2) u_{k-1} m / den_k.
    The loop runs on exact Gaussian pairs of Python ints scaled by 2^P, P
    the bits of the working dps plus _LOOP_GUARD digits plus
    _fixed_guard_bits; a real m keeps every imaginary part at 0. Real c1,
    c2 and m give an mpf, anything else an mpc. If ``counter`` is given,
    the number of summed terms is appended to it.
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
    ur, ui = 1 << prec, 0
    lr, li = -c2r, -c2i
    total_r = total_i = 0
    for k in range(1, ctx.max_terms + 1):
        num, den = family.ratio(k)
        sr = ((ur * mr - ui * mi) >> prec) // den
        si = ((ur * mi + ui * mr) >> prec) // den
        lr += c1r
        li += c1i
        tr = (lr * sr - li * si) >> prec
        ti = (lr * si + li * sr) >> prec
        total_r += tr
        total_i += ti
        if k > 4 and abs(tr) < thr and abs(ti) < thr and tr * tr + ti * ti < thr2:
            break
        ur, ui = sr * num, si * num
    else:
        raise RuntimeError("series truncation exceeded max_terms")
    if counter is not None:
        counter.append(k)
    with ctx.working():
        if any(isinstance(v, mpc) for v in (c1, c2, m)):
            return mpc(mpmath.ldexp(total_r, -prec), mpmath.ldexp(total_i, -prec))
        return mpmath.ldexp(total_r, -prec)


def evaluate_updown(s: UpsideDownSeries, ctx: PrecisionContext,
                    counter: list = None) -> mpf:
    """Real value of an upside-down series with QuadraticNumber data."""
    with ctx.working():
        if not s.a and not s.b:
            if counter is not None:
                counter.append(0)
            return mpf(0)
        # m carries the loop's guard digits too: its error grows k-fold in term k.
        wide = ctx.bumped(_LOOP_GUARD)
        a, b, m = (embed_quadratic(q, wide) for q in (s.a, s.b, s.m))
        return _sum_linear_series(a, b, m, s.family, ctx, counter).real


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
    """Value of a Fibonacci/Lucas series.

    With L_n = F_n + 2 F_{n-1} and Binet's F_n = (phi^n - psi^n)/sqrt(5), the
    series is the difference of two CENTRAL3 upside-down sums, with
    m = phi^8 (ratio 0.73) and m = psi^8 (ratio 3e-4). Only the phi^8 sum's
    terms are counted.
    """
    # The weights and the roots carry the loop's guard digits, as in
    # evaluate_updown.
    with ctx.bumped(_LOOP_GUARD).working():
        # Weights of F_{8k} and F_{8k-1}, each linear in k.
        f1, f0 = _frac_mpf(s.p + s.r), _frac_mpf(s.q + s.s)
        g1, g0 = _frac_mpf(2 * s.r + s.t), _frac_mpf(2 * s.s + s.u)
        sqrt5 = mpmath.sqrt(5)

        def binet_sum(root, tally):
            # F_{8k-1} takes root^(8k) / root from each root's power.
            return _sum_linear_series((f1 + g1 / root) / sqrt5, -(f0 + g0 / root) / sqrt5,
                                      root**8, SeriesFamily.CENTRAL3, ctx, tally)

        phi_sum = binet_sum((1 + sqrt5) / 2, counter)
        psi_sum = binet_sum((1 - sqrt5) / 2, None)
    with ctx.working():
        return phi_sum - psi_sum


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
    if not satisfies_region(z, N, ctx):
        raise DomainError(f"point {z} outside the admissible region for N={N}")
    with ctx.working():
        c1, c2, m = series_constants_from_cm(z, N, ctx)
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
