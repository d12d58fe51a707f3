"""Arbitrary-precision arithmetic facade and exact quadratic-field numbers.

Everything numeric downstream goes through a PrecisionContext: values are
computed at ``digits + GUARD_DIGITS`` decimal places and reported at ``digits``.
Exact algebraic coefficients live in QuadraticNumber (a + b*sqrt(D) over Q).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import repeat
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
        """mpf(10) ** -n at the working precision, on the raw tuple: no
        context is entered."""
        prec = libmp.dps_to_prec(self.dps)
        return mp.make_mpf(libmp.mpf_pow_int(libmp.from_int(10), -n, prec, _NEAREST))

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
    def edge(self) -> mpf:
        """(1 - tol)^2 at the working precision: modular._reduce_sl2 counts
        |v|^2 at or above it as on or outside the unit circle."""
        prec = libmp.dps_to_prec(self.dps)
        one_less = libmp.mpf_sub(libmp.fone, self.tol._mpf_, prec, _NEAREST)
        return mp.make_mpf(libmp.mpf_pow_int(one_less, 2, prec, _NEAREST))

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


class QuadraticNumber:
    """Exact a + b*sqrt(D) with rational a, b and squarefree D >= 1, held as
    ints (p + r*sqrt(D)) / den in lowest terms, den > 0; a, b read as Fractions.

    b == 0 is normalized to D == 1, so plain rationals mix with any radicand.
    Arithmetic between two genuinely irrational values requires equal D. Only
    the constructor tests D: arithmetic is integer products and one gcd.
    """

    __slots__ = ("_p", "_r", "_den", "_D", "_hash")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, D: int = 1):
        a, b = _as_fraction(a), _as_fraction(b)
        if D < 1:
            raise ValueError(f"radicand must be >= 1, got {D}")
        if b == 0:
            D = 1
        elif D == 1:
            a, b = a + b, Fraction(0)
        elif not _is_squarefree(D):
            raise ValueError(f"radicand must be squarefree, got {D}")
        den = math.lcm(a.denominator, b.denominator)
        self._p, self._r = a.numerator * den // a.denominator, b.numerator * den // b.denominator
        self._den, self._D, self._hash = den, D, None

    a = property(lambda self: Fraction(self._p, self._den))
    b = property(lambda self: Fraction(self._r, self._den))
    D = property(lambda self: self._D)

    # -- helpers -----------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self._r == 0

    def _coerce(self, other) -> "QuadraticNumber":
        if isinstance(other, (int, Fraction)):
            return _quadratic(other.numerator, 0, other.denominator, 1)
        return other if isinstance(other, QuadraticNumber) else NotImplemented

    def _common_d(self, other: "QuadraticNumber") -> int:
        if self._r and other._r and self._D != other._D:
            raise MixedRadicandError(f"cannot combine sqrt({self._D}) with sqrt({other._D})")
        return self._D if self._r else other._D

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        D, d, e = self._common_d(other), self._den, other._den
        return _quadratic(self._p * e + other._p * d, self._r * e + other._r * d, d * e, D)

    __radd__ = __add__

    def __neg__(self):
        return _quadratic(-self._p, -self._r, self._den, self._D)

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        D, p, r, s, t = self._common_d(other), self._p, self._r, other._p, other._r
        return _quadratic(p * s + r * t * D, p * t + r * s, self._den * other._den, D)

    __rmul__ = __mul__

    def conjugate(self) -> "QuadraticNumber":
        return _quadratic(self._p, -self._r, self._den, self._D)

    def norm(self) -> Fraction:
        return Fraction(self._p * self._p - self._r * self._r * self._D, self._den * self._den)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        s, t, e = other._p, other._r, other._den
        n = s * s - t * t * other._D
        if n == 0:
            raise ZeroDivisionError("division by zero quadratic number")
        D, p, r = self._common_d(other), self._p, self._r
        return _quadratic((p * s - r * t * D) * e, (r * s - p * t) * e, self._den * n, D)

    def __rtruediv__(self, other):
        return QuadraticNumber(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result, base = QuadraticNumber(1), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if other.__class__ is not QuadraticNumber:
            return NotImplemented
        return (self._p, self._r, self._den, self._D) == (other._p, other._r, other._den, other._D)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.a, self.b, self._D))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._p or self._r)

    def __repr__(self) -> str:
        return f"QuadraticNumber(a={self.a!r}, b={self.b!r}, D={self._D})"

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.a)
        return f"{self.a} + {self.b}*sqrt({self.D})"


def _quadratic(p: int, r: int, den: int, D: int) -> QuadraticNumber:
    """(p + r*sqrt(D)) / den in lowest terms, den != 0, D tested already."""
    g = -math.gcd(p, r, den) if den < 0 else math.gcd(p, r, den)
    q = object.__new__(QuadraticNumber)
    q._p, q._r, q._den, q._D, q._hash = p // g, r // g, den // g, D if r else 1, None
    return q


_NEAREST = libmp.round_nearest


# One pass of verify --all reads 24 distinct (D, prec) at 40 digits, the
# 94 lattice-sum points and the series at 300 digits 20, the tables at 100
# digits 26: 64 keeps any one of them, with room for a second precision.
@lru_cache(maxsize=64)
def _sqrt_bits(D: int, prec: int) -> tuple:
    """sqrt(D) at prec bits as mpmath.sqrt(mpf(D)) gives it: D rounded to
    nearest at prec bits, then its square root. A raw mpf kept per (D, prec),
    as mpmath keeps pi per precision, so every point of one discriminant
    (CMPoint.to_point) and every number of one field (embed_quadratic)
    shares it."""
    return libmp.mpf_sqrt(libmp.from_int(D, prec, _NEAREST), prec, _NEAREST)


def _quotient(n: int, d: int, prec: int) -> tuple:
    """The raw mpf of mpf(n') / d' at prec bits, for n'/d' = n/d in lowest
    terms: n' rounded to nearest, then its quotient by the exact d' too."""
    g = math.gcd(n, d)
    x = libmp.from_int(n // g, prec, _NEAREST)
    return x if d == g else libmp.mpf_div(x, libmp.from_int(d // g), prec, _NEAREST)


def embed_quadratic(q: QuadraticNumber, ctx: PrecisionContext) -> mpf:
    """a + b*sqrt(D), positive root, at ctx's working precision of P bits, on
    raw mpf tuples with no context entered: a and b as ``_quotient`` rounds
    them, b sqrt(D) and a + b each rounded to nearest. Values such as
    (1121 - 338*sqrt(11))^4 have huge exactly-known a and b whose embeddings
    nearly cancel. When a and b have opposite signs, the value is therefore
    the exact norm a^2 - b^2 D, rounded as a is, over the conjugate
    a - b*sqrt(D), whose two terms have the same sign, so no digits cancel.
    No part passes more than 5 roundings (8 on the norm route), each off by
    under 2^-P relative, so the value is within 5 ulps (8 on that route).
    """
    prec = libmp.dps_to_prec(ctx.dps)
    p, r, den = q._p, q._r, q._den
    a = _quotient(p, den, prec)
    if not r:
        return mp.make_mpf(a)
    b = libmp.mpf_mul(_quotient(r, den, prec), _sqrt_bits(q._D, prec), prec, _NEAREST)
    if p * r >= 0:
        return mp.make_mpf(libmp.mpf_add(a, b, prec, _NEAREST))
    norm = _quotient(p * p - r * r * q._D, den * den, prec)
    return mp.make_mpf(libmp.mpf_div(norm, libmp.mpf_sub(a, b, prec, _NEAREST), prec, _NEAREST))


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
        d = embed_quadratic(self.den, ctx)
        if not d:
            raise ZeroDivisionError("zero denominator in QuadExpr")
        n = embed_quadratic(self.num, ctx)._mpf_
        return mp.make_mpf(libmp.mpf_div(n, d._mpf_, libmp.dps_to_prec(ctx.dps), _NEAREST))

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
    n, least = _trigamma_order(dps)
    ten, coeffs = 10 ** (dps + 1), []
    for k, t in enumerate(_tangent_numbers(least + 2), 1):
        p, q = (-1) ** (k - 1) * 2 * k * t, 4**k * (4**k - 1)
        if abs(p) * ten < q * n ** (2 * k + 1):
            prec = libmp.dps_to_prec(dps) + (n + len(coeffs) + 4).bit_length() + 4
            return n, prec, tuple((b << prec) // c for b, c in reversed(coeffs))
        coeffs.append((p, q))
    raise RuntimeError(f"no Euler-Maclaurin order reaches 10^-{dps} with N = {n}")


@lru_cache(maxsize=16)
def _trigamma_order(dps: int):
    """(N, k) of ``_trigamma_plan``: N = floor(0.7 dps), and the least k at
    which the float lower bound of the Euler-Maclaurin term drops below
    10^-(dps+1); the plan's order M is k - 1 or k."""
    n = int(0.7 * dps)
    log_bound = -(dps + 1) * math.log(10)
    return n, next((k for k in range(1, dps + 1)
                    if math.log(2) + math.lgamma(2 * k + 1) - 2 * k * math.log(2 * math.pi)
                    - (2 * k + 1) * math.log(n) < log_bound), dps)


def _trigamma_cost(dps: int) -> int:
    """Fixed-point operations of one ``trigamma`` call at ``dps``: N divisions
    and, per Horner step, a product and a division, with M = k - 1 from
    ``_trigamma_order``, so that no Bernoulli table is built to count them."""
    n, least = _trigamma_order(dps)
    return n + 2 * (least - 1)


# The moment path's fixed work, its (J+1)/2 Horner products and the loop over
# the moments of a block, counted as this many operations per moment: with it
# the two counts rank the sums as their measured times do for q = 3, 4, 7, 8
# and 11 at 45, 65, 325 and 1025 dps.
_MOMENT_FIXED = 3
# |B_2k| / (2k)! = 2 zeta(2k) / (2 pi)^(2k) <= 2 zeta(2) / (2 pi)^(2k).
_LOG_BERNOULLI = math.log(3.3)


def _last_moment(k: int, prec: int) -> int:
    """The least odd J with b_{J+2} < 2^-(prec+1), where
    b_j = 2 (2K+1)^-(j+1) (1 + 2 (j+1) / (2K+1)) bounds (j+1) Z_{j+2} / 2^j
    (Z_s <= x^-s + x^(1-s) / (s-1) at x = K + 1/2). As b_{j+2} <= b_j / 2,
    the terms past J sum to under 2^-prec. Found from a float estimate and
    stepped to the least J."""
    lo = math.log(2 * k + 1)

    def small(j):  # b_{j+2} < 2^-(prec+1)
        return (math.log(2) - (j + 3) * lo + math.log1p(2 * (j + 3) / (2 * k + 1))
                < -(prec + 1) * math.log(2))
    j = max(1, int((prec + 2) * math.log(2) / lo) - 3) | 1
    while j > 1 and small(j - 2):
        j -= 2
    while not small(j):
        j += 2
    return j


@lru_cache(maxsize=16)
def _moment_order(dps: int):
    """(K, J, P) of the character-moment L_d(2) at ``dps``: P bits, with
    bit_length(2 dps + 6) + 4 guard bits, and the K >= 3 that minimises the
    cost of one unit pair, K direct terms and (J+1)/2 moment steps, with
    J = _last_moment(K, P). Cheap: no table is built."""
    prec = libmp.dps_to_prec(dps) + (2 * dps + 6).bit_length() + 4
    best = None
    for k in range(3, dps + 1):
        if best and k >= best[0]:
            break
        j = _last_moment(k, prec)
        cost = k + (j + 1) // 2
        if best is None or cost < best[0]:
            best = cost, k, j
    return best[1], best[2], prec


def _moment_cost(dps: int, pairs: int) -> int:
    """Fixed-point operations of ``lfunctions``' moment sum over ``pairs``
    unit pairs at ``dps``: K direct terms and (J+1)/2 moment steps per pair,
    and _MOMENT_FIXED per moment for the rest."""
    k, j, _ = _moment_order(dps)
    return pairs * (k + (j + 1) // 2) + _MOMENT_FIXED * (j + 1) // 2


def _euler_maclaurin_orders(s_values, y2: int, prec: int):
    """For each s, the least M whose Euler-Maclaurin remainder bound for
    zeta(s, y2/2), |B_{2M+2}| / (2M+2)! (s)_{2M+1} (y2/2)^-(s+2M+1), is below
    2^-(prec+2) in floats (log |B_2k| / (2k)! <= log 3.3 - 2k log 2 pi), or
    -1 when (y2/2)^(s-1) >= 2^(prec+2) and no tail is summed. None if some s
    needs s + 2M > 3 y2, past the reach of the plan's Horner rule."""
    ly, l2pi = math.log(y2 / 2), math.log(2 * math.pi)
    target = -(prec + 2) * math.log(2)
    orders, power = [], y2 * y2
    for s in s_values:
        if power.bit_length() - s >= prec + 2:  # 2^e <= (y2/2)^(s-1)
            orders.append(-1)
        else:
            m, bound = 0, _LOG_BERNOULLI - 2 * l2pi + math.log(s) - (s + 1) * ly
            while bound >= target:
                m += 1
                if s + 2 * m > 3 * y2:
                    return None
                bound += math.log((s + 2 * m - 1) * (s + 2 * m)) - 2 * (l2pi + ly)
            orders.append(m)
        power *= y2 * y2
    return orders


@lru_cache(maxsize=16)
def _hurwitz_plan(dps: int):
    """(K, N, P, (Z_3, Z_5, ..., Z_{J+2})) for the character-moment L_d(2)
    at ``dps``: Z_s = zeta(s, K + 1/2) for odd s, as Python ints scaled by
    2^P, with K, J and P from ``_moment_order`` and N direct terms each.

    Euler-Maclaurin in integer fixed point. With x = K + 1/2 and y = x + N =
    Y/2, Z_s = sum_{n<N} (x+n)^-s + zeta(s, y), and
    zeta(s, y) = y^(1-s) [1/(s-1) + 1/(2y) + E_s] + R,
    E_s = sum_{k=1}^{M_s} beta_k (s)_{2k-1} y^-2k,  beta_k = B_2k / (2k)!.
    For real y > 0 the series envelops zeta(s, y): |R| is at most the first
    dropped term, which M_s keeps under 2^-(P+2) (``_euler_maclaurin_orders``).
    N starts at 0.2 P - K and grows by N/16 + 1 until every s fits
    s + 2 M_s <= 3Y. Where (Y/2)^(s-1) >= 2^(P+2), zeta(s, y) <= y^(1-s) is
    under 2^-(P+2) and is not summed.

    - Direct terms: the row of s = 3 is 2^(P+3) // o^3 at o = 2K+1+2n, and
      each next row is 4t // o^2, so each entry is within 1 / (1 - 4/o^2)
      < 1.1 ulps, as o >= 7; a row stops at its first 0.
    - Tail: with gamma_k = 36^k beta_k = (-1)^(k-1) 9^k T_k / ((2k-1)!
      (4^k - 1)) from the tangent numbers T_k, E_s = s v (gamma_1 + (s+1)(s+2)
      v (gamma_2 + ...)), v = 1/(36 y^2) = 1/(9 Y^2), by Horner's rule, all s
      at once. Each step multiplies by (s+2k-1)(s+2k) / (9 Y^2) <= 1, so the
      floors of gamma_k and of each step add under 2 M_s ulps, and
      s 2M_s <= (s + 2M_s)^2 / 4 <= 9 Y^2 / 4 damps them to 1/4 in E_s: the
      bracket is within 3.25 ulps, and y^(1-s) = 2^(s-1) / Y^(s-1) and the
      last floor make that under 1 + 3.25 (2/Y)^2 < 1.2.
    So each Z_s is within 1.1 N + 1.5 ulps of 2^-P. Cost: the tangent numbers
    up to max M_s (O(M^2) products with small ints), then under N (J+1)/2 row
    steps and sum M_s Horner steps, each a division by an int under 2^64.
    """
    k, j, prec = _moment_order(dps)
    odd = range(3, j + 3, 2)
    n = max(0, math.ceil(0.2 * prec) - k)
    while (orders := _euler_maclaurin_orders(odd, 2 * (k + n) + 1, prec)) is None:
        n += 1 + n // 16
    if (k + 1) // 2 + 2 * n + 4 > 2 * dps + 6:  # the error count of lfunctions.dirichlet_l2
        raise RuntimeError(f"the guard bits of {dps} dps do not cover N = {n}")
    y2, top = 2 * (k + n) + 1, max(orders)
    gammas, fact = [], 1
    for i, t in enumerate(_tangent_numbers(top) if top > 0 else (), 1):
        fact *= max(1, (2 * i - 2) * (2 * i - 1))
        g = (9**i * t << prec) // (fact * (4**i - 1))
        gammas.append(g if i % 2 else -g)
    row = [(1 << (prec + 3)) // o**3 for o in range(2 * k + 1, y2, 2)]
    squares = [o * o for o in range(2 * k + 1, y2, 2)]
    # Horner's rule for every s at once, highest order first: at order i the
    # s with M_s = i join with gamma_i, the others step.
    v, joining = 9 * y2 * y2, sorted(zip(orders, odd), reverse=True)
    live, h = [], []
    for i in range(top, 0, -1):
        steps = [(s + 2 * i - 1) * (s + 2 * i) for s in live]
        h = list(map(operator.add, map(operator.floordiv, map(operator.mul, h, steps),
                                       repeat(v)), repeat(gammas[i - 1])))
        while joining and joining[0][0] == i:
            live.append(joining.pop(0)[1])
            h.append(gammas[i - 1])
    em = {s: s * x // v for s, x in zip(live, h)}
    zs, power, one = [], y2 * y2, 1 << prec
    for s, m in zip(odd, orders):
        z = sum(row)
        row = list(map(operator.floordiv, map(operator.lshift, row, repeat(2)), squares))
        while row and not row[-1]:
            row.pop()
        if m >= 0:
            z += ((one // (s - 1) + one // y2 + em.get(s, 0)) << (s - 1)) // power
        zs.append(z)
        power *= y2 * y2
    return k, n, prec, tuple(zs)


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
