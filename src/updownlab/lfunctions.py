"""Kronecker symbols, fundamental-discriminant tests, and L_d(2) values.

For every valid discriminant d (d = 1, or d = 0, 1 mod 4), chi(k) = (d/k) is
a Dirichlet character mod |d| with chi(-1) = sign(d), so L_d(2) =
sum_{k>=1} chi(k) / k^2 is a finite sum over residue classes:

* d < 0 (odd character): L_d(2) = |d|^-2 sum_{0<a<|d|} chi(a) psi'(a/|d|),
  with the trigamma psi' from ``numerics``, an integer fixed-point kernel
  whose values carry a few bits more than the working precision; the
  products chi(a) psi'(a/|d|) are summed exactly and rounded once;
* d > 1 (even character): pairing a with d - a, as chi(d - a) = chi(a) and
  chi(d/2) = 0, and using psi'(x) + psi'(1-x) = pi^2 / sin^2(pi x) gives
  L_d(2) = pi^2 / d^2 sum_{0<a<d/2} chi(a) / sin^2(pi a / d);
* d = 1: zeta(2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpf

from .numerics import DomainError, PrecisionContext, trigamma, zeta_int, _is_squarefree


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


def dirichlet_l2(d, ctx: PrecisionContext) -> mpf:
    """L_d(2) to ctx.digits; d may be a Discriminant or an integer.

    A finite sum over residues a mod |d|: the closed sine sum over a < d/2
    for d > 1, the trigamma sum for d < 0 (see the module docstring). Both
    rest on chi being periodic mod |d| with chi(-1) = sign(d), which holds
    for every valid Discriminant. Raises DomainError if |d| > ctx.max_terms.
    """
    if isinstance(d, Discriminant):
        d = d.d
    else:
        d = Discriminant(d).d
    q = abs(d)
    if q > ctx.max_terms:
        raise DomainError(f"|d| = {q} residues exceed max_terms = {ctx.max_terms}")
    with ctx.working():
        if d == 1:
            return zeta_int(2, ctx)
        if d > 0:
            total = mpf(0)
            for a in range(1, (q + 1) // 2):
                chi = kronecker_symbol(d, a)
                if chi:
                    total += chi / mpmath.sinpi(mpf(a) / q) ** 2
            return mpmath.pi**2 * total / q**2
        terms = []
        for a in range(1, q):
            chi = kronecker_symbol(d, a)
            if chi:
                terms.append((trigamma(Fraction(a, q), ctx), chi))
        # fdot forms each chi * psi'(a/q) exactly and rounds the sum once.
        return mpmath.fdot(terms) / q**2


def dirichlet_l2_direct(d: int, terms: int = 100_000) -> float:
    """Truncated direct series sum_{k<=terms} (d/k)/k^2 (float oracle)."""
    q = abs(d) if d != 1 else 1
    pattern = [kronecker_symbol(d, r) for r in range(q)]
    total = 0.0
    for k in range(1, terms + 1):
        chi = pattern[k % q]
        if chi:
            total += chi / (k * k)
    return total
