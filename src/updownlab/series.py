"""Geometrically convergent central-binomial series with algebraic weights.

Covers the three denominator families binom(2k,k)^3, binom(2k,k)^2 binom(3k,k),
and binom(2k,k)^2 binom(4k,2k), the Fibonacci/Lucas variants, and the weighted
series whose linear-in-k constants come from modular invariants at CM points.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Tuple

import mpmath
from mpmath import mp, mpf

from .numerics import DomainError, PrecisionContext, QuadraticNumber, embed_quadratic
from .modular import (
    _NU_BY_LEVEL,
    CMPoint,
    _as_mpc,
    alpha_n,
    eichler_e4_tilde,
    legendre_ramanujan_r,
    satisfies_region,
)


class SeriesFamily(enum.Enum):
    """Denominator family; ``scale`` is the growth rate of the denominator."""

    CENTRAL3 = ("CENTRAL3", 64)
    C2X3K = ("C2x3K", 108)
    C2X4K = ("C2x4K", 256)

    def __init__(self, tag: str, scale: int):
        self.tag = tag
        self.scale = scale

    def denominators(self) -> Iterator[int]:
        """Yield the binomial product at k = 1, 2, ... by exact recurrences."""
        b2 = 2   # binom(2k, k)
        b3 = 3   # binom(3k, k)
        b4 = 6   # binom(4k, 2k)
        k = 1
        while True:
            if self is SeriesFamily.CENTRAL3:
                yield b2**3
            elif self is SeriesFamily.C2X3K:
                yield b2**2 * b3
            else:
                yield b2**2 * b4
            b4 = b4 * ((4 * k + 1) * (4 * k + 2) * (4 * k + 3) * (4 * k + 4)) \
                // ((2 * k + 1) * (2 * k + 2)) ** 2
            b3 = b3 * ((3 * k + 1) * (3 * k + 2) * (3 * k + 3)) \
                // ((k + 1) * (2 * k + 1) * (2 * k + 2))
            b2 = b2 * 2 * (2 * k + 1) // (k + 1)
            k += 1


_FAMILY_BY_LEVEL = {2: SeriesFamily.C2X4K, 3: SeriesFamily.C2X3K, 4: SeriesFamily.CENTRAL3}
_NUMERATOR_CONST = {2: 64, 3: 27, 4: 16}


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


def _sum_linear_series(c1, c2, m, family: SeriesFamily, ctx: PrecisionContext,
                       counter: list = None):
    """sum_{k>=1} (c1*k - c2) m^k / (k^3 denom(k)) for mpf/mpc coefficients.

    If ``counter`` is given, the number of summed terms is appended to it.
    """
    with ctx.working():
        ratio = abs(m) / family.scale
        if ratio >= 1 - mpf(10) ** (-ctx.guard):
            raise DomainError(f"series diverges: |m|/{family.scale} = {float(ratio)}")
        eps = ctx.eps
        total = mp.mpc(0)
        mk = mp.mpc(1)
        denoms = family.denominators()
        for k in range(1, ctx.max_terms + 1):
            mk *= m
            term = (c1 * k - c2) * mk / (k**3 * next(denoms))
            total += term
            # Coefficient growth is linear, denominator decay geometric.
            if abs(term) * ratio / (1 - ratio) < eps and k > 4:
                break
        else:
            raise RuntimeError("series truncation exceeded max_terms")
        if counter is not None:
            counter.append(k)
        return total


def evaluate_updown(s: UpsideDownSeries, ctx: PrecisionContext,
                    counter: list = None) -> mpf:
    """Real value of an upside-down series with QuadraticNumber data."""
    with ctx.working():
        if not s.a and not s.b:
            if counter is not None:
                counter.append(0)
            return mpf(0)
        a = embed_quadratic(s.a, ctx)
        b = embed_quadratic(s.b, ctx)
        m = embed_quadratic(s.m, ctx)
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
    """Value of a Fibonacci/Lucas series, with exact integer F and L terms."""
    with ctx.working():
        eps = ctx.eps
        # Dominant growth phi^8 / 64 per term.
        ratio = ((1 + mpmath.sqrt(5)) / 2) ** 8 / 64
        total = mpf(0)
        f_prev, f_cur = fibonacci_lucas(7)[0], fibonacci_lucas(8)[0]  # F_7, F_8
        denoms = SeriesFamily.CENTRAL3.denominators()
        for k in range(1, ctx.max_terms + 1):
            lucas = f_cur + 2 * f_prev
            num = (s.p * k + s.q) * f_cur + (s.r * k + s.s) * lucas \
                + (s.t * k + s.u) * f_prev
            term = mpf(num.numerator) / num.denominator / (k**3 * next(denoms))
            total += term
            if abs(term) * ratio / (1 - ratio) < eps and k > 4:
                break
            # Step the pair (F_{8k-1}, F_{8k}) forward by eight indices.
            f_prev, f_cur = 21 * f_cur + 13 * f_prev, 34 * f_cur + 21 * f_prev
        else:
            raise RuntimeError("series truncation exceeded max_terms")
        if counter is not None:
            counter.append(k)
        return total


def series_constants_from_cm(z, N: int, ctx: PrecisionContext):
    """The triple (2[1 - 2 alpha_N(z)], R_nu(1 - 2 alpha_N(z)),
    const_N / {alpha_N(z)[1 - alpha_N(z)]}) defining the weighted series at z."""
    if isinstance(z, CMPoint):
        z = z.to_point(ctx)
    z = _as_mpc(z)
    with ctx.working():
        alpha = alpha_n(z, N, ctx)
        prod = alpha * (1 - alpha)
        if abs(prod) < ctx.eps:
            raise DomainError("alpha in {0, 1}: series constants undefined")
        xi = 1 - 2 * alpha
        if abs(xi.imag) < ctx.tol:
            xi = xi.real
        c2 = legendre_ramanujan_r(_NU_BY_LEVEL[N], xi, ctx)
        m = _NUMERATOR_CONST[N] / prod
        if abs(m.imag) < ctx.tol * abs(m):
            m = m.real
        return 2 * xi, c2, m


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
