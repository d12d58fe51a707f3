"""Arbitrary-precision arithmetic facade and exact quadratic-field numbers.

Everything numeric downstream goes through a PrecisionContext: values are
computed at ``digits + GUARD_DIGITS`` decimal places and reported at ``digits``.
Exact algebraic coefficients live in QuadraticNumber (a + b*sqrt(D) over Q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Tuple, Union

import mpmath
from mpmath import libmp, mp, mpf

RationalLike = Union[int, Fraction]


class DomainError(ValueError):
    """An argument lies outside the domain an operation supports."""


class MixedRadicandError(ValueError):
    """Arithmetic between quadratic numbers with different radicands."""


GUARD_DIGITS = 15
# The most terms, residues or steps one loop may take; more raise DomainError.
MAX_TERMS = 10_000_000
# The most coefficients (n, or terms k) that a kept coefficient table covers.
KEPT_TERMS = 2**15
_kept = {}


def kept_table(build, n: int):
    """A table that covers index n, from build(size), which returns an immutable
    table of the coefficients up to n = size (or terms up to k = size). One table
    per builder is kept and shared, and rebuilt at twice its size, or at n if that
    is more, up to KEPT_TERMS; past KEPT_TERMS a caller gets a table of its own."""
    size, table = _kept.get(build, (0, None))
    if n <= size:
        return table
    if n > KEPT_TERMS:
        return build(n)
    size = min(max(n, 2 * size), KEPT_TERMS)
    table = build(size)
    _kept[build] = size, table
    return table


@dataclass(frozen=True)
class PrecisionContext:
    """Requested decimal digits plus GUARD_DIGITS carried internally."""

    digits: int = 40

    def __post_init__(self) -> None:
        if self.digits < 10:
            raise DomainError(f"digits must be >= 10, got {self.digits}")

    @property
    def dps(self) -> int:
        return self.digits + GUARD_DIGITS

    def working(self):
        """Context manager setting the working decimal precision."""
        return mpmath.workdps(self.dps)

    def _ten_to_minus(self, n: int) -> mpf:
        with self.working():
            return mpf(10) ** -n

    @cached_property
    def eps(self) -> mpf:
        """Target absolute truncation error at working precision."""
        return self._ten_to_minus(self.dps)

    @cached_property
    def tol(self) -> mpf:
        """10^-digits, the reporting tolerance."""
        return self._ten_to_minus(self.digits)

    @cached_property
    def verdict_tol(self) -> mpf:
        """10^-(digits-5): a record or a table cell passes below it."""
        return self._ten_to_minus(self.digits - 5)

    @cached_property
    def slack(self) -> mpf:
        """10^-(digits//2), the boundary slack of region and branch tests."""
        return self._ten_to_minus(self.digits // 2)

    @cached_property
    def _bumped(self) -> "PrecisionContext":
        return PrecisionContext(self.digits + 10)

    def bumped(self) -> "PrecisionContext":
        """Ten more digits, the guard digits of the series loop and of its
        coefficients: the error of m grows k-fold at term k. One context per
        instance, so its cached thresholds are computed once."""
        return self._bumped


def _square_part(n: int) -> Tuple[int, int]:
    """(s, r) with |n| = s^2 r, after at most 10^4 steps. Trial division by
    f <= 10^4 runs while f^3 is at most the unsplit cofactor. Unless the bound
    stops it, that cofactor has no prime below f, so it is 1, p, p^2 or p q,
    and one isqrt test takes out p^2: r is squarefree whenever |n| < 10^12.
    Above that, r may keep the square of a prime beyond 10^4."""
    rest, s, r, f = abs(n), 1, 1, 2
    while f <= 10**4 and f * f * f <= rest:
        while rest % (f * f) == 0:
            rest, s = rest // (f * f), s * f
        if rest % f == 0:
            rest, r = rest // f, r * f
        f += 1
    t = math.isqrt(rest)
    return (s * t, r) if t * t == rest else (s, r * rest)


def _is_squarefree(n: int) -> bool:
    """Whether n is squarefree; DomainError for |n| >= 10^12."""
    if abs(n) >= 10**12:
        raise DomainError(f"squarefree test needs |n| < 10^12, got {n}")
    return _square_part(n)[0] == 1


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class QuadraticNumber:
    """Exact a + b*sqrt(D) with rational a, b and squarefree D >= 1.

    b == 0 is normalized to D == 1, so plain rationals mix with any radicand.
    Arithmetic between two genuinely irrational values requires equal D.
    """

    a: Fraction
    b: Fraction
    D: int

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, D: int = 1):
        a = _as_fraction(a)
        b = _as_fraction(b)
        if D < 1:
            raise ValueError(f"radicand must be >= 1, got {D}")
        if b == 0:
            D = 1
        elif D == 1:
            a, b = a + b, Fraction(0)
        elif not _is_squarefree(D):
            raise ValueError(f"radicand must be squarefree, got {D}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "D", D)

    # -- helpers -----------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def _coerce(self, other) -> "QuadraticNumber":
        if isinstance(other, QuadraticNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticNumber(other)
        return NotImplemented

    def _common_d(self, other: "QuadraticNumber") -> int:
        if self.is_rational:
            return other.D
        if other.is_rational:
            return self.D
        if self.D != other.D:
            raise MixedRadicandError(
                f"cannot combine sqrt({self.D}) with sqrt({other.D})"
            )
        return self.D

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        D = self._common_d(other)
        return QuadraticNumber(self.a + other.a, self.b + other.b, D)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticNumber(-self.a, -self.b, self.D)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        D = self._common_d(other)
        return QuadraticNumber(
            self.a * other.a + self.b * other.b * D,
            self.a * other.b + self.b * other.a,
            D,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "QuadraticNumber":
        return QuadraticNumber(self.a, -self.b, self.D)

    def norm(self) -> Fraction:
        return self.a * self.a - self.b * self.b * self.D

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero quadratic number")
        return self * other.conjugate() * QuadraticNumber(Fraction(1, 1) / n)

    def __rtruediv__(self, other):
        return QuadraticNumber(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = QuadraticNumber(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.a)
        return f"{self.a} + {self.b}*sqrt({self.D})"


def embed_quadratic(q: QuadraticNumber, ctx: PrecisionContext) -> mpf:
    """Evaluate a + b*sqrt(D) with the positive square root, to a few ulps.

    Values such as (1121 - 338*sqrt(11))^4 have huge exactly-known a and b
    whose embeddings nearly cancel. When a and b have opposite signs, the
    value is therefore taken as the exact rational norm a^2 - b^2 D over
    the conjugate a - b*sqrt(D), whose two terms have the same sign, so no
    digits cancel at any size of a and b.
    """
    with ctx.working():
        a = mpf(q.a.numerator) / q.a.denominator
        if not q.b:
            return a
        b = (mpf(q.b.numerator) / q.b.denominator) * mpmath.sqrt(q.D)
        if q.a * q.b >= 0:
            return a + b
        norm = q.norm()
        return (mpf(norm.numerator) / norm.denominator) / (a - b)


def to_fixed(x, prec: int) -> Tuple[int, int]:
    """(Re x, Im x) of an mpf or mpc as Python ints scaled by 2^prec,
    truncated toward -oo. Reads the signed fixed-point value from the raw
    mpf: ``mpf.man_exp`` returns the unsigned mantissa."""
    return libmp.to_fixed(x.real._mpf_, prec), libmp.to_fixed(x.imag._mpf_, prec)


@dataclass(frozen=True)
class QuadExpr:
    """Quotient of two quadratic numbers, possibly over different radicands.

    Covers table entries such as 3*(17*sqrt(7)+35)/(8*sqrt(2)) that do not fit
    a single a + b*sqrt(D).
    """

    num: QuadraticNumber
    den: QuadraticNumber = QuadraticNumber(1)

    def embed(self, ctx: PrecisionContext) -> mpf:
        with ctx.working():
            d = embed_quadratic(self.den, ctx)
            if d == 0:
                raise ZeroDivisionError("zero denominator in QuadExpr")
            return embed_quadratic(self.num, ctx) / d

    def __str__(self) -> str:
        if self.den == QuadraticNumber(1):
            return str(self.num)
        return f"({self.num}) / ({self.den})"


# -- special constants -----------------------------------------------------

@lru_cache(maxsize=16)
def zeta_int(n: int, ctx: PrecisionContext) -> mpf:
    """zeta(2), zeta(3), or zeta(4) at ctx's working precision (ctx.dps
    digits), from mpmath's pi and Apery constants. Memoized per (n, ctx):
    every odd L_d(2) reads zeta(2) at ctx.bumped()."""
    with ctx.working():
        if n == 2:
            return mp.pi**2 / 6
        if n == 3:
            return +mp.apery
        if n == 4:
            return mp.pi**4 / 90
        raise DomainError(f"zeta_int supports n in {{2, 3, 4}}, got {n}")


def _tangent_numbers(m: int) -> list:
    """[T_1, ..., T_m], tan x = sum_k T_k x^(2k-1) / (2k-1)!, in exact ints by
    Algorithm TangentNumbers of Brent & Harvey, "Fast computation of Bernoulli,
    Tangent and Secant numbers" (2013): O(m^2) products with small ints."""
    t = [0, 1] + [0] * (m - 1)
    for k in range(2, m + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


@lru_cache(maxsize=16)
def _trigamma_plan(dps: int):
    """(N, P, (B_2M, ..., B_2)) for trigamma at ``dps`` working digits.

    N = floor(0.7 * dps) direct terms; M is the least order whose first
    dropped Euler-Maclaurin term |B_{2M+2}| / N^(2M+3) is below 10^-(dps+1),
    found by exact rational comparison of B_2k = (-1)^(k-1) 2k T_k /
    (4^k (4^k - 1)) from the tangent numbers T_k. The table of T_k stops two
    orders past the least k at which the float lower bound
    2 (2k)! / ((2 pi)^(2k) N^(2k+1)) of the term (|B_2k| = 2 (2k)! zeta(2k)
    / (2 pi)^(2k), zeta(2k) < 1.65) drops below 10^-(dps+1). The exact test
    stops at that k or the next, since there each order divides the term by
    more than 14. The Bernoulli numbers are Python ints scaled by 2^P, each
    floored from its fraction (under 1 ulp), highest order first for
    Horner's rule. P = dps_to_prec(dps) + bit_length(N + M + 4) + 4 guard
    bits: see ``trigamma`` for the count they cover.
    """
    n = int(0.7 * dps)
    log_bound = -(dps + 1) * math.log(10)
    size = 2 + next((k for k in range(1, dps + 1)
                     if math.log(2) + math.lgamma(2 * k + 1) - 2 * k * math.log(2 * math.pi)
                     - (2 * k + 1) * math.log(n) < log_bound), dps)
    ten, coeffs = 10 ** (dps + 1), []
    for k, t in enumerate(_tangent_numbers(size), 1):
        p, q = (-1) ** (k - 1) * 2 * k * t, 4**k * (4**k - 1)
        if abs(p) * ten < q * n ** (2 * k + 1):
            prec = libmp.dps_to_prec(dps) + (n + len(coeffs) + 4).bit_length() + 4
            return n, prec, tuple((b << prec) // c for b, c in reversed(coeffs))
        coeffs.append((p, q))
    raise RuntimeError(f"no Euler-Maclaurin order reaches 10^-{dps} with N = {n}")


def trigamma(x: RationalLike, ctx: PrecisionContext) -> mpf:
    """psi'(x) = sum_{n>=0} 1/(n+x)^2 for a rational 0 < x <= 1, via
    Euler-Maclaurin in integer fixed point.

    ``x`` is an int or a Fraction (anything else raises TypeError); outside
    (0, 1] it raises DomainError. With x = a/q, the first N terms are summed
    directly, and the rest is
    psi'(y) ~ 1/y + 1/(2y^2) + sum_{k=1}^{M} B_{2k} / y^(2k+1) at y = x + N.
    For real y > 0 this series envelops psi'(y): its remainder is at most
    the first dropped term, |B_{2M+2}| / y^(2M+3) <= |B_{2M+2}| / N^(2M+3).

    N = floor(0.7 * dps), safely above the dps * ln(10) / (2 pi) below which
    no M reaches 10^-dps; M is the least order whose bound is below
    10^-(dps+1). Both grow linearly with ctx.dps (38 and 25 at 55 digits),
    so a call costs O(dps) operations. The (N, P, B_2M..B_2) plan is
    memoized per dps; values are not.

    Every quantity is a Python int scaled by 2^P; there is no mpf arithmetic,
    only the one exact ldexp at the end. Each direct term is
    (q^2 << P) // (a + kq)^2. At Y = a + Nq, 1/y = q/Y and w = 1/y^2 = q^2/Y^2
    are exact rationals, so the tail is (q << P)//Y + (q^2 << P)//(2Y^2)
    + h q^3 // Y^3 with Horner's h = h q^2 // Y^2 + B_2k. Each floor is off by
    under 1 ulp: N in the direct sum, three in the tail, and under
    2 / (1 - w) in h, which the factor w/y < 1 damps. That is under
    N + 6 <= N + M + 4 ulps of 2^-P, so the plan's guard bits keep the
    rounding error below 1/16 ulp of the working precision.
    """
    x = _as_fraction(x)
    if not 0 < x <= 1:
        raise DomainError(f"trigamma requires 0 < x <= 1, got {x}")
    a, q = x.numerator, x.denominator
    n, prec, coeffs = _trigamma_plan(ctx.dps)
    qq = q * q
    qq_fixed = qq << prec
    total = 0
    for t in range(a, a + n * q, q):
        total += qq_fixed // (t * t)
    y = a + n * q
    yy = y * y
    h = 0
    for b in coeffs:
        h = h * qq // yy + b
    total += (q << prec) // y + qq_fixed // (2 * yy) + h * qq * q // (yy * y)
    return mpmath.ldexp(total, -prec)
