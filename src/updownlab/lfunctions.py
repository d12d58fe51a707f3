"""Kronecker symbols, fundamental-discriminant tests, and L_d(2) values.

For every valid discriminant d (d = 1, or d = 0, 1 mod 4), chi(k) = (d/k) is
a Dirichlet character mod |d| with chi(-1) = sign(d), so L_d(2) =
sum_{k>=1} chi(k) / k^2 is a finite sum over residue classes:

* d < 0 (odd character), q = |d|: chi(q - a) = -chi(a), so each unit pair
  {a, q - a} enters once, with a < q/2, primitive chi or not, by one of two
  sums, both ten digits above the working precision and rounded once:
  - trigamma: the values psi'(a/q) over the units a mod q sum to
    J_2(q) zeta(2), J_2(q) = q^2 prod_{p | q} (1 - p^-2) (Hurwitz's
    sum_{a=1}^{q} zeta(2, a/q) = q^2 zeta(2) restricted to (a, q) = 1), so
    q^2 L_d(2) = J_2(q) zeta(2) - 2 sum_{0<a<q, chi(a)=-1} psi'(a/q):
    phi(q)/2 calls of the integer fixed-point kernel of ``numerics``, each
    with its own Euler-Maclaurin tail, summed by fsum;
  - character moments: with h_a = a/q - 1/2 and Z_s = zeta(s, K + 1/2),
    Taylor's series psi'(K + 1/2 + h) = sum_j (-1)^j (j+1) Z_{j+2} h^j,
    |h| < 1/2 < K + 1/2, gives
    q^2 L_d(2) = sum_{a unit} chi(a) sum_{n<K} q^2/(a+nq)^2
                 - sum_{j odd} (j+1) mu_j Z_{j+2},  mu_j = sum_a chi(a) h_a^j,
    whose terms shrink like (2K+1)^-j; the even moments vanish. K direct
    terms per pair and the exact integer moments up to J, in integer fixed
    point, and one table of Z_s per precision (``numerics._hurwitz_plan``)
    for every d.
  ``dirichlet_l2`` takes the sum that the two plans count as fewer
  fixed-point operations for q (``numerics._moment_cost`` against phi(q)/2
  times ``numerics._trigamma_cost``). The moments' fixed work decides only
  for one pair: q = 3 and 4 stay on trigamma below about 90 digits and take
  the moments from about 110, every other q takes the moments;
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
from itertools import repeat
from operator import add, floordiv, mul

import mpmath
from mpmath import libmp, mp, mpf

from .numerics import (MAX_TERMS, DomainError, PrecisionContext, _hurwitz_plan,
                       _is_squarefree, _moment_cost, _square_part, _trigamma_cost,
                       trigamma, zeta_int)

# Residues per block of the moment sums: the lists of one block bound the
# memory, whatever |d|.
_CHUNK = 256


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


# chi + 1 as a byte: the map that takes chi to -chi.
_NEGATE = bytes.maketrans(b"\x00\x02", b"\x02\x00")


def _characters(d: int, stop: int) -> bytearray:
    """chi(a) + 1, chi(a) = (d/a), for 0 <= a < stop, one byte each. (d/.)
    is completely multiplicative, so kronecker_symbol runs once per prime
    p < stop, which a sieve of Eratosthenes on bytes finds, and a chi(p) of
    0 or -1 reaches every multiple of p, or of each power of p, by one
    byte-slice map per power; chi(p) = 1 changes nothing. With the sieve,
    two bytes per residue: q bytes for L_d(2), q <= MAX_TERMS."""
    chi, composite = bytearray(b"\x02") * stop, bytearray(stop)
    for p in range(2, stop):
        if composite[p]:
            continue
        c = kronecker_symbol(d, p)
        if 2 * p >= stop:  # p is its own only multiple below stop
            chi[p] = c + 1
            continue
        if p * p < stop:
            composite[p * p::p] = b"\x01" * len(range(p * p, stop, p))
        if c == 0:
            chi[p::p] = b"\x01" * len(range(p, stop, p))
        elif c < 0:
            power = p
            while power < stop:
                chi[power::power] = chi[power::power].translate(_NEGATE)
                power *= p
    return chi


def dirichlet_l2(d, ctx: PrecisionContext) -> mpf:
    """L_d(2) to ctx.digits; d may be a Discriminant or an integer.

    For d > 0 the closed form of the module docstring, its S summed in exact
    ints over a < d0/2 paired with d0 - a, so its cost follows d0, not d;
    d must be below 10^12, where ``_square_part`` finds d0 exactly. Raises
    DomainError if the residues a branch reads, d0 or |d|, exceed MAX_TERMS.

    For d < 0, with q = |d|, one of the two sums of the module docstring, by
    the cost rule there; both run at ctx.bumped(), whose precision P' is 33
    or more bits above ctx's, and both use L_d(2) >= zeta(4)/zeta(2) =
    pi^2/15, true of every real character.

    Trigamma: q^2 L_d(2) = J_2(q) zeta(2) - 2 sum_{chi(a)=-1} psi'(a/q) over
    the units a mod q, the member with chi = -1 of each pair read off chi(a)
    for a < q/2. Each psi' is within 1/16 + sqrt(2) < 1.5 ulps of 2^-P' (its
    rounding and its Euler-Maclaurin remainder), and the fsum, J_2(q) zeta(2)
    and the difference add 1, 5 and 1 relative ulps. With 2 sum psi' <
    J_2(q) zeta(2) <= q^2 zeta(2), that is under 17 ulps of L_d(2) at P'.
    Divided by q^2 and rounded once to ctx, L_d(2) is correctly rounded
    unless it lies within 2^-28 ulps of a rounding boundary.

    Moments: with b = q - 2a for 0 < a < q/2, the pair's direct terms join
    as q^2/(a+nq)^2 - q^2/((n+1)q-a)^2 = q^3 b (2n+1) / (a(q-a) + n(n+1)q^2)^2,
    and m_i = sum chi(a) b^(2i+1), mu_j = -2 m_j / (2q)^j, j = 2i+1, so
    q^2 L_d(2) = sum_a chi(a) sum_{n<K} q^3 b (2n+1) / (...)^2
                 + (1/q) sum_{i<=(J-1)/2} (2i+2) m_i Z_{2i+3} / (4q^2)^i,
    the tail summed by Horner's rule in 1/(4q^2). Everything is a Python int
    scaled by 2^P, P = P' plus the plan's guard bits, over blocks of _CHUNK
    residues, so memory does not grow with q. In ulps of 2^-P: K floors per
    pair; each Z_s within 1.1 N + 1.5 (``numerics._hurwitz_plan``), weighted
    by (j+1) |mu_j| <= (j+1) phi(q) 2^-j, which sums to 16/9 phi(q); the
    moments past J under phi(q) (``numerics._last_moment``); the Horner
    floors under 2. That is under phi(q) (K/2 + 2N + 4) + 2, which against
    q^2 L_d(2) >= 0.65 q^2 and q >= 3 is under K/2 + 2N + 4 <= 2 dps + 6
    relative ulps (the plan checks the bound), so the guard bits make it
    2^-4 ulps of 2^-P'. The exact quotient of the sum by q^2 2^P is rounded
    once to ctx, so L_d(2) is correctly rounded unless it lies within 2^-37
    ulps of a rounding boundary.
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
    return _moment_l2(d, ctx) if _moments_cost_less(q, ctx) else _trigamma_l2(d, ctx)


def _moments_cost_less(q: int, ctx: PrecisionContext) -> bool:
    """Whether the moment sum over the phi(q)/2 unit pairs {a, q - a} costs
    fewer fixed-point operations than phi(q)/2 trigamma calls at
    ctx.bumped(), by the two plans' counts."""
    phi = q
    for p in _prime_divisors(q):
        phi = phi // p * (p - 1)
    dps = ctx.bumped().dps
    return _moment_cost(dps, phi // 2) < phi // 2 * _trigamma_cost(dps)


def _trigamma_l2(d: int, ctx: PrecisionContext) -> mpf:
    """L_d(2), d = -q < 0, from q^2 L_d(2) = J_2(q) zeta(2) - 2 sum_{chi(a)=-1}
    psi'(a/q) (``dirichlet_l2``)."""
    q = -d
    wide, j2, terms = ctx.bumped(), q * q, []
    for p in _prime_divisors(q):
        j2 = j2 // (p * p) * (p * p - 1)
    for a, byte in enumerate(_characters(d, (q + 1) // 2)[1:], 1):
        if byte != 1:  # chi(a) = byte - 1 is -1 or 1, and chi(q - a) = -chi(a)
            terms.append(trigamma(Fraction(a if byte == 0 else q - a, q), wide))
    with wide.working():
        total = zeta_int(2, wide) * j2 - 2 * mpmath.fsum(terms)
    with ctx.working():
        return total / (q * q)


def _moment_l2(d: int, ctx: PrecisionContext) -> mpf:
    """L_d(2), d = -q < 0, from K direct terms per unit pair and the character
    moments m_i = sum_{0<a<q/2} chi(a) (q - 2a)^(2i+1) (``dirichlet_l2``)."""
    q = -d
    k, _, prec, zs = _hurwitz_plan(ctx.bumped().dps)
    qqq, half = q**3 << prec, (q + 1) // 2
    direct, moments, chis = 0, [0] * len(zs), _characters(d, half)
    for start in range(1, half, _CHUNK):
        stop = min(start + _CHUNK, half)
        units = [(a, byte - 1) for a, byte in zip(range(start, stop), chis[start:stop]) if byte != 1]
        signed = [chi * (q - 2 * a) for a, chi in units]
        bases = [a * (q - a) for a, _ in units]
        for n in range(k):  # (nq + a)((n+1)q - a) = a(q - a) + n(n+1) q^2
            t = list(map(add, bases, repeat(n * (n + 1) * q * q)))
            direct += sum(map(floordiv, map(mul, signed, repeat((2 * n + 1) * qqq)),
                              map(mul, t, t)))
        squares = [x * x for x in signed]
        for i in range(len(zs)):
            moments[i] += sum(signed)
            signed = list(map(mul, signed, squares))
    h, qq4 = 0, 4 * q * q
    for i in range(len(zs) - 1, -1, -1):
        h = h // qq4 + (2 * i + 2) * moments[i] * zs[i]
    total = direct + h // q
    with ctx.working():
        value = libmp.mpf_div(libmp.from_int(total), libmp.from_int(q * q), mp.prec,
                              libmp.round_nearest)
        return mp.make_mpf(libmp.mpf_shift(value, -prec))
