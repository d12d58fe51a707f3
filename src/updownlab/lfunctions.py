"""Kronecker symbols, fundamental-discriminant tests, and L_d(2) values.

For every valid discriminant d (d = 1, or d = 0, 1 mod 4), chi(k) = (d/k) is
a Dirichlet character mod |d| with chi(-1) = sign(d), so L_d(2) =
sum_{k>=1} chi(k) / k^2 is a finite sum over residue classes:

* d < 0 (odd character): with q = |d|, the trigamma values psi'(a/q) over
  the units a mod q sum to J_2(q) zeta(2), J_2(q) = q^2 prod_{p | q}
  (1 - p^-2): Hurwitz's sum_{a=1}^{q} zeta(2, a/q) = q^2 zeta(2) restricted
  to (a, q) = 1. As chi(q - a) = -chi(a),
  q^2 L_d(2) = J_2(q) zeta(2) - 2 sum_{0<a<q, chi(a)=-1} psi'(a/q),
  which needs phi(q)/2 trigamma values, primitive chi or not. The trigamma
  psi' from ``numerics`` is an integer fixed-point kernel; the sum runs ten
  digits above the working precision and is rounded once;
* d > 0 (even character): d = d0 f^2 with d0 the fundamental discriminant
  (1 for square d), and chi_d is chi_{d0} with the primes of f removed. The
  functional equation with tau(chi) = sqrt(d0) and L(-1, chi) = -B_{2,chi}/2
  (Washington, Introduction to Cyclotomic Fields, Thm 4.2 and section 4.1)
  gives L_d(2) = zeta(2) 6 S E / (d0^2 sqrt(d0)) with the exact rationals
  S = d0 B_{2,chi} = sum_{0<a<d0} chi(a) a^2 (1/6 for d0 = 1) and
  E = prod_{p | f} (1 - chi_{d0}(p) / p^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpf

from .numerics import (MAX_TERMS, DomainError, PrecisionContext, _is_squarefree,
                       _square_part, trigamma, zeta_int)


@dataclass(frozen=True)
class Discriminant:
    """d = 1 (trivial character) or a nonzero integer with d = 0, 1 mod 4."""

    d: int

    def __post_init__(self) -> None:
        if self.d == 0 or (self.d != 1 and self.d % 4 not in (0, 1)):
            raise DomainError(f"invalid discriminant {self.d}")


def kronecker_symbol(d: int, k: int) -> int:
    """Kronecker symbol (d/k) for k >= 0."""
    if k < 0:
        raise DomainError("kronecker_symbol expects k >= 0")
    if k == 0:
        return 1 if d in (1, -1) else 0
    if d == 0:
        return 1 if k == 1 else 0
    result = 1
    # 2-part of k: (d/2) is 0 for even d, +1 for d = +-1 mod 8, -1 otherwise.
    if k % 2 == 0:
        if d % 2 == 0:
            return 0
        sym2 = 1 if d % 8 in (1, 7) else -1
        while k % 2 == 0:
            k //= 2
            result *= sym2
    # Jacobi symbol (d mod k / k) for odd k > 0, by quadratic reciprocity.
    a = d % k
    while a:
        while a % 2 == 0:
            a //= 2
            if k % 8 in (3, 5):
                result = -result
        a, k = k, a
        if a % 4 == 3 and k % 4 == 3:
            result = -result
        a %= k
    return result if k == 1 else 0


def is_fundamental_discriminant(D: int) -> bool:
    if D == 0:
        return False
    if D % 4 == 1 and D != 1:
        return _is_squarefree(D)
    if D % 16 in (8, 12):
        return _is_squarefree(D // 4)
    return False


def _prime_divisors(n: int):
    """The primes dividing n >= 1, in increasing order, by trial division."""
    p = 2
    while n > 1:
        p = p if p * p <= n else n
        if n % p == 0:
            yield p
            while n % p == 0:
                n //= p
        p += 1


def dirichlet_l2(d, ctx: PrecisionContext) -> mpf:
    """L_d(2) to ctx.digits; d may be a Discriminant or an integer.

    For d > 0 the closed form of the module docstring, its S summed in exact
    ints over a < d0/2 paired with d0 - a, so its cost follows d0, not d;
    d must be below 10^12, where ``_square_part`` finds d0 exactly. Raises
    DomainError if the residues a branch reads, d0 or |d|, exceed MAX_TERMS.

    For d < 0, with q = |d|, q^2 L_d(2) = J_2(q) zeta(2) - 2 sum_{chi(a)=-1}
    psi'(a/q) over the units a mod q: phi(q)/2 trigamma values, the member
    with chi = -1 of each pair {a, q - a} read off chi(a) for a < q/2. The
    sum runs at ctx.bumped(), whose precision P' is 33 or more bits above
    ctx's: each psi' is within 1/16 + sqrt(2) < 1.5 ulps of 2^-P' (its
    rounding and its Euler-Maclaurin remainder), and the fsum, J_2(q) zeta(2)
    and the difference add 1, 5 and 1 relative ulps. With 2 sum psi' <
    J_2(q) zeta(2) <= q^2 zeta(2) and L_d(2) >= zeta(4)/zeta(2) = pi^2/15 for
    every real character, that is under 17 ulps of L_d(2) at P'. Divided by
    q^2 and rounded once to ctx, L_d(2) is correctly rounded unless it lies
    within 2^-28 ulps of a rounding boundary.
    """
    if isinstance(d, Discriminant):
        d = d.d
    else:
        d = Discriminant(d).d
    q = abs(d)
    label, residues = "|d|", q
    if d > 0:
        if d >= 10**12:
            raise DomainError(f"even-character L_d(2) needs d < 10^12, got {d}")
        f, d0 = _square_part(d)
        if d0 % 4 != 1:
            f, d0 = f // 2, 4 * d0
        label, residues = "d0", d0
    if residues > MAX_TERMS:
        raise DomainError(f"L_{d}(2) needs {label} = {residues} terms, "
                          f"more than MAX_TERMS = {MAX_TERMS}")
    if d > 0:
        s = sum(kronecker_symbol(d0, a) * (a * a + (d0 - a) ** 2)
                for a in range(1, (d0 + 1) // 2)) if d0 > 1 else Fraction(1, 6)
        r = Fraction(6 * s, d0 * d0)
        for p in _prime_divisors(f):
            r *= 1 - Fraction(kronecker_symbol(d0, p), p * p)
        with ctx.working():
            return zeta_int(2, ctx) * r.numerator / (r.denominator * mpmath.sqrt(d0))
    wide, j2, terms = ctx.bumped(), q * q, []
    for p in _prime_divisors(q):
        j2 = j2 // (p * p) * (p * p - 1)
    for a in range(1, (q + 1) // 2):
        chi = kronecker_symbol(d, a)
        if chi:  # chi(q - a) = -chi(a)
            terms.append(trigamma(Fraction(a if chi < 0 else q - a, q), wide))
    with wide.working():
        total = zeta_int(2, wide) * j2 - 2 * mpmath.fsum(terms)
    with ctx.working():
        return total / (q * q)
