"""q-series modular machinery: eta, E2*, alpha_N, Klein j, E4, and the weighted
Eichler integral of 1 - E4, plus Legendre-type special functions and CM-point
utilities.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import floordiv

import mpmath
from mpmath import libmp, mp, mpc, mpf

from .numerics import (_NEAREST, GUARD_DIGITS, MAX_TERMS, DomainError, PrecisionContext,
                       _quotient, _sqrt_bits, _square_part, kept_table)

_LEVELS = (2, 3, 4)
_NU_BY_LEVEL = {2: Fraction(-1, 4), 3: Fraction(-1, 3), 4: Fraction(-1, 2)}
# s = N^(6/(N-1)): the scale of the eta quotient t = Q/s in _level, and the
# factor of the weighted series' argument m = s (1 + t)^2 / t.
_ALPHA_SCALE = {2: 64, 3: 27, 4: 16}


def _check_level(N: int) -> None:
    if N not in _LEVELS:
        raise DomainError(f"level must be in {_LEVELS}, got {N}")


def _as_mpc(z, ctx: PrecisionContext) -> mpc:
    """z as a point of the upper half-plane; a CMPoint is embedded at ``ctx``."""
    if isinstance(z, CMPoint):
        return z.to_point(ctx)
    if not isinstance(z, mpc):
        z = mpc(z)
    if not libmp.mpf_gt(z._mpc_[1], libmp.fzero):
        raise DomainError(f"point must lie in the upper half-plane, got {z}")
    return z


# -- CM points -------------------------------------------------------------

_RAT = r"\d+(?:/\d*[1-9]\d*)?"  # no zero denominator
_CM_RE = re.compile(rf"\s*(?:([+-]?)\s*({_RAT})\s*([+-])\s*)?(?:({_RAT})\s*\*\s*)?"
                    rf"(?:sqrt\(\s*(\d+)\s*\)\s*\*\s*)?i\s*")


@dataclass(frozen=True)
class CMPoint:
    """Quadratic irrational in the upper half-plane, root of A z^2 + B z + C."""

    A: int
    B: int
    C: int

    def __post_init__(self) -> None:
        if self.A <= 0:
            raise DomainError("leading coefficient must be positive")
        if self.B * self.B - 4 * self.A * self.C >= 0:
            raise DomainError("polynomial must have complex roots")
        if math.gcd(math.gcd(self.A, self.B), self.C) != 1:
            raise DomainError("coefficients must be coprime")

    @classmethod
    def from_rational(cls, x: Fraction, y_sq: Fraction) -> "CMPoint":
        """Point x + sqrt(y_sq) i with rational x and rational y_sq > 0."""
        if y_sq <= 0:
            raise DomainError("imaginary part must be positive")
        # (z - x)^2 = -y_sq  =>  z^2 - 2x z + x^2 + y_sq = 0, cleared and primitive.
        b = -2 * x
        c = x * x + y_sq
        den = math.lcm(b.denominator, c.denominator)
        a_i, b_i, c_i = den, int(b * den), int(c * den)
        g = math.gcd(math.gcd(a_i, b_i), c_i)
        return cls(a_i // g, b_i // g, c_i // g)

    @classmethod
    def from_string(cls, text: str) -> "CMPoint":
        """Parse "[SIGN? RAT (+|-)] [RAT*] [sqrt(INT)*] i", RAT = INT or
        INT/INT: "i", "3*i", "sqrt(2)*i", "1/2+i", "1/2+1/2*sqrt(7)*i"."""
        m = _CM_RE.fullmatch(text) if isinstance(text, str) else None
        if not m:
            raise DomainError(f"cannot parse CM point {text!r}")
        sign, re_part, im_sign, im_part, rad = m.groups()
        if im_sign == "-":
            raise DomainError(f"imaginary part must be positive in {text!r}")
        x = Fraction(re_part or 0)
        r = Fraction(im_part or 1)
        return cls.from_rational(-x if sign == "-" else x, r * r * int(rad or 1))

    @property
    def disc(self) -> int:
        return self.B * self.B - 4 * self.A * self.C

    def to_point(self, ctx: PrecisionContext) -> mpc:
        """The point at ctx's working precision of P bits, bit for bit as
        mpc(mpf(-B) / (2A), sqrt(mpf(|D|)) / (2A)) under ctx.working() gives
        it, on raw tuples with no context entered: -B and |D| rounded to
        nearest at P bits, the square root and both quotients by the exact
        2A each rounded to nearest. Where -B fits in P bits, Re is -B/(2A)
        rounded once, so it is taken in lowest terms (numerics._quotient),
        which spares mpf_div the trailing zeros of an exact quotient such as
        28/14. sqrt(|D|) comes from numerics._sqrt_bits, so the points of one
        discriminant, such as the forms of one lattice sum, share one square
        root per precision."""
        prec = libmp.dps_to_prec(ctx.dps)
        two_a = libmp.from_int(2 * self.A)
        if self.B.bit_length() <= prec:
            re = _quotient(-self.B, 2 * self.A, prec)
        else:
            re = libmp.mpf_div(libmp.from_int(-self.B, prec, _NEAREST), two_a, prec, _NEAREST)
        im = libmp.mpf_div(_sqrt_bits(-self.disc, prec), two_a, prec, _NEAREST)
        return mp.make_mpc((re, im))

    def fixed(self, bits: int) -> tuple:
        """(Re, Im) of the point as Python ints scaled by 2^bits, each
        truncated toward -oo, from integers alone: floor(-B 2^bits / (2A))
        and isqrt(|D| 4^bits) // (2A), within 1 of the exact scaled parts."""
        two_a = 2 * self.A
        return (-self.B << bits) // two_a, math.isqrt(-self.disc << 2 * bits) // two_a

    def reduced(self) -> "CMPoint":
        """The reduced form of the class of (A, B, C) under SL(2, Z), by Gauss
        reduction in integers (Cox, Primes of the Form x^2 + ny^2, section 2):
        |B| <= A <= C, and B >= 0 when |B| = A or A = C. Its root is the
        point's image in the fundamental domain |Re w| <= 1/2, |w| >= 1, and
        two points of the upper half-plane lie on one SL(2, Z) orbit exactly
        when their reduced forms are equal. The translation w -> w + k takes
        (A, B, C) to (A, B - 2Ak, A k^2 - B k + C), the inversion w -> -1/w
        to (C, -B, A); each inversion lowers A, so the loop ends."""
        a, b, c, d = self.A, self.B, self.C, self.disc
        while True:
            b -= 2 * a * ((b + a - 1) // (2 * a))  # into (-a, a]
            c = (b * b - d) // (4 * a)
            if a <= c:
                return CMPoint(a, -b if a == c and b < 0 else b, c)
            a, b, c = c, -b, a

    def scaled(self, N: int) -> "CMPoint":
        """N z: the root of (A, N B, N^2 C) made primitive."""
        a, b, c = self.A, N * self.B, N * N * self.C
        g = math.gcd(a, b, c)
        return CMPoint(a // g, b // g, c // g)

    def __str__(self) -> str:
        """The point in the grammar of ``from_string``, x + r*sqrt(rad)*i with
        r sqrt(rad) = sqrt(-disc) / (2A) and rad squarefree for |disc| < 10^12;
        x = 0 drops the real part, and so does rad = 1 the ``sqrt(1)``, but only then."""
        x = Fraction(-self.B, 2 * self.A)
        s, rad = _square_part(self.disc)
        r = Fraction(s, 2 * self.A)
        if x == 0 and rad == 1:
            return "i" if r == 1 else f"{r}*i"
        im = f"{r}*sqrt({rad})*i"
        return im if x == 0 else f"{x}+{im}"


# -- the q-series kernel --------------------------------------------------

def _qseries_cutoff(y: tuple, ctx: PrecisionContext) -> int:
    """Smallest n with |q|^n 20 digits below the working epsilon, for Im z
    the raw mpf y; a DomainError if that exceeds MAX_TERMS, or if Im z is 0
    as a float."""
    h = 2 * math.pi * libmp.to_float(y, rnd=_NEAREST)
    n_max = int((ctx.dps + 20) * math.log(10) / h) + 2 if h > 0 else math.inf
    if n_max > MAX_TERMS:
        raise DomainError(f"q-series at Im z = {libmp.to_str(y, 3)} needs {n_max} terms, "
                          f"more than MAX_TERMS = {MAX_TERMS}")
    return n_max


def _sigma3_table(n_max: int) -> tuple:
    """sigma_3(n) for n <= n_max by a divisor sieve."""
    sig = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        d3 = d**3
        for m in range(d, n_max + 1, d):
            sig[m] += d3
    return tuple(sig)


def _pentagonal_table(n_max: int) -> tuple:
    """n^2 a(n), Euler's P = prod (1 - q^n) = 1 + sum a(n) q^n, a(n) = (-1)^k at n =
    k(3k -+ 1)/2: _qsum's powers 0, 1, 2 give q^2 d^2P/dq^2 + q dP/dq, q dP/dq and P - 1."""
    coeffs = [0] * (n_max + 1)
    for k in range(1, math.isqrt(n_max) + 2):  # every k with k(3k - 1)/2 <= n_max
        for n in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if n <= n_max:
                coeffs[n] = -n * n if k % 2 else n * n
    return tuple(coeffs)


# The kernel's bits past its error bound: E(z, 2) rounds its fixed-point
# finish once, and needs it within 2^-22 ulps to be correctly rounded.
_GUARD_BITS = 24


def _dyadic(man: int, exp: int, prec: int) -> tuple:
    """libmp.from_man_exp(man, exp, prec, round_nearest), the raw mpf of
    man 2^exp rounded to nearest at prec bits, with man's trailing zero bits
    shifted out at once, not a byte per step as from_man_exp strips them:
    Re = +-1/2 in fixed point has over P of them."""
    if not man:
        return libmp.fzero
    zeros = (man & -man).bit_length() - 1
    return libmp.from_man_exp(man >> zeros, exp + zeros, prec, _NEAREST)


def _q_fixed(z, ctx: PrecisionContext) -> tuple:
    """(P, n_max, Re q, Im q, Im z), q = e^{2 pi i z}, for _qsum_loop: n_max
    from _qseries_cutoff, P the bits of the working dps + 5 bits per bit of
    n_max + _GUARD_BITS, and the rest Python ints scaled by 2^P, truncated
    toward -oo. On raw tuples, with no context entered. z is an mpc, or a
    CMPoint, whose Im the cutoff reads from its fixed point at 53 bits (as
    a raw mpf, so a height past the floats reads inf, not an OverflowError)
    and which is taken once more in fixed point at P + 10 bits for q
    (CMPoint.fixed). q = mpc_expjpi(2z) at P + 10 bits, the parts of z
    doubled and rounded to nearest there, bit for bit as mpmath.expjpi(2 * z)
    under workprec(P + 10); cospi and sinpi reduce 2 Re z mod 2 exactly, so
    q is exactly 1-periodic and exactly real at Re z in {0, +-1/2}. At a
    CMPoint with Im z >= 1/2, the fixed point's 2^-(P+10) moves q by under
    2^-10 ulp, and the same integer square root gives Im z:
    isqrt(|D| 4^(P+10)) >> 10 = isqrt(|D| 4^P), and the floors by 2^10 and
    by 2A compose into one. At an mpc, Im z is its Im truncated."""
    cm = isinstance(z, CMPoint)
    n_max = _qseries_cutoff(libmp.from_man_exp(z.fixed(53)[1], -53) if cm else z._mpc_[1], ctx)
    prec = libmp.dps_to_prec(ctx.dps) + 5 * n_max.bit_length() + _GUARD_BITS
    wp = prec + 10
    if cm:
        re, im = z.fixed(wp)
        two_z = _dyadic(re, 1 - wp, wp), _dyadic(im, 1 - wp, wp)
        y = im >> 10
    else:
        two_z = libmp.mpc_mul_int(z._mpc_, 2, wp, _NEAREST)
        y = libmp.to_fixed(z._mpc_[1], prec)
    qr, qi = (libmp.to_fixed(x, prec) for x in libmp.mpc_expjpi(two_z, wp, _NEAREST))
    return prec, n_max, qr, qi, y


def _qsum_loop(q: tuple, build, powers, imag=True) -> tuple:
    """(P, re, im): Re and Im of sum_n a(n) q^n / n^j, for each j in
    ``powers`` (ascending), as unrounded Python ints scaled by 2^P, from
    q = (P, n_max, Re q, Im q, _) of _q_fixed; a(1..n_max) from
    kept_table(build, n_max). The package's one loop over powers of q.
    Lanes Re q^n and Im q^n follow x_{n+1} = T x_n - N x_{n-1} from (1, Re q)
    and (0, Im q), (T, N) = (2 Re q, |q|^2), or (q, 0) for real q; the Im
    lane is skipped, and reads 0, for real q or ``imag`` false. Terms
    a(n) x_n are floored by n^j, then by n per unit step, as floor(floor(u / n^i) / n) = floor(u / n^(i+1)).
    Error, in ulps 2^-P: q, good to 1/16 ulp, is truncated, so T errs by
    under 2.2 and N by under 1 + 3.1 |q|, and each truncated step (|x_n| <= 1)
    by under 8. Step k's error reaches step k + m times
    (q^(m+1) - conj(q)^(m+1)) / (q - conj(q)), of modulus <= (m + 1) |q|^m,
    which sums to A = 1/(1 - |q|)^2: each lane value errs by under 8 A, and
    each sum, with one floor per term, by under 8 A W + n_max,
    W = sum |a(n)| / n^j. With L the bits of n_max >= 2 that is under
    2^(5L), 2^-24 of an ulp of 1 at the working precision, in both
    callers' cases: at a reduced point, A < 1.01 (|q| < 0.0044) and
    W < 0.31 2^(4L) for |a(n)| / n^j <= 1.21 n^3 (sigma_3(n) < zeta(3) n^3,
    or n^2 at Euler's signs); at any point, such as the Eichler integral's
    unreduced ones, W < 0.61 2^(2L) for |a(n)| / n^j <= 1.21 n (sigma_3,
    j >= 2), and 1/(1 - |q|) < 1 + 1/(2 pi Im z) < 1 + n_max/100 < 2^L/1.9,
    as n_max > 103/(2 pi Im z).
    """
    prec, n_max, qr, qi, _ = q
    t, nq = (2 * qr, (qr * qr + qi * qi) >> prec) if qi else (qr, 0)
    coeffs, ns = kept_table(build, n_max), range(1, n_max + 1)
    re, im = [], []
    for sums, prev, x in ((re, 1 << prec, qr), (im, 0, qi))[:1 + bool(qi and imag)]:
        j, terms = powers[0], []
        for n in ns:
            terms.append(coeffs[n] * x // n**j)
            prev, x = x, (t * x - nq * prev) >> prec
        for p in powers:
            while j < p:
                terms, j = list(map(floordiv, terms, ns)), j + 1
            sums.append(sum(terms))
    return prec, re, im or [0] * len(powers)


def _qsum_fixed(z, ctx: PrecisionContext, build, powers, imag=True) -> tuple:
    """(P, re, im): _qsum_loop's sums at z, an mpc or a CMPoint (_q_fixed)."""
    return _qsum_loop(_q_fixed(z, ctx), build, powers, imag)


def _qsum(z: mpc, ctx: PrecisionContext, build, powers) -> tuple:
    """_qsum_fixed's sums as mpc, each rounded once at ``ctx``'s working dps."""
    prec, re, im = _qsum_fixed(z, ctx, build, powers)
    with ctx.working():
        return tuple(mpc(mpmath.ldexp(a, -prec), mpmath.ldexp(b, -prec)) for a, b in zip(re, im))


# -- SL(2, Z) reduction ---------------------------------------------------

def _reduce_sl2(z: mpc, ctx: PrecisionContext) -> tuple:
    """(w, shift, inverted): z moved into the SL(2, Z) fundamental domain
    |Re w| <= 1/2, |w| >= 1 by translations v -> v - nint(Re v), whose
    integers add up to ``shift``, and inversions v -> -1/v, taken at the
    points ``inverted`` in order. Each inversion raises Im v, so Im w ends
    at least sqrt(3)/2. |v| within 10^-digits of 1 counts as on the circle
    (|v|^2 >= ctx.edge = (1 - tol)^2), so rounding noise cannot bounce a
    boundary point between v and -1/v; the test on |v|^2 takes no square
    root. On raw tuples at ctx's working precision, with no context entered,
    and bit for bit the sequence mpmath runs on mpc under ctx.working(), each
    step rounded to nearest: mpf_nint (ties to even) and mpf_sub for the
    translation, which leaves Im v as it is; mpf_mul, mpf_add and the
    comparison for |v|^2; mpc_mpf_div for -1/v, the real -1 over v. So w is
    z's image up to about one ulp of z per step, which a caller's error
    count does not include."""
    prec, edge = libmp.dps_to_prec(ctx.dps), ctx.edge._mpf_
    re, im = z._mpc_
    shift, inverted = 0, []
    for _ in range(MAX_TERMS):
        n = libmp.mpf_nint(re, prec, _NEAREST)
        re = libmp.mpf_sub(re, n, prec, _NEAREST)
        shift += libmp.to_int(n)
        size = libmp.mpf_add(libmp.mpf_mul(re, re, prec, _NEAREST),
                             libmp.mpf_mul(im, im, prec, _NEAREST), prec, _NEAREST)
        if libmp.mpf_ge(size, edge):
            return mp.make_mpc((re, im)), shift, inverted
        inverted.append(mp.make_mpc((re, im)))
        re, im = libmp.mpc_mpf_div(libmp.fnone, (re, im), prec, _NEAREST)
    raise DomainError(f"SL(2, Z) reduction of {mp.make_mpc((re, im))} needs more than "
                      f"MAX_TERMS = {MAX_TERMS} steps")


def _reduce_form(p: CMPoint) -> tuple:
    """(w, shift, inverted): _reduce_sl2's steps at the exact point p, in
    integers. A form (a, b, c) stands for its root v = (-b + sqrt(D)) / (2a):
    v - n is the root of (a, b + 2an, .) and -1/v that of (c, -b, a). Each
    step translates by n = nint(Re v), Re v = -b / (2a), a tie n - 1/2
    going to the even one as mpf_nint does, and inverts where |v|^2 = c/a
    is below 1. w is the CMPoint at which the loop stops and ``inverted``
    the pairs (a, b) at which it inverts, all of discriminant D. So w lies
    in the closed fundamental domain, w.reduced() is p.reduced(), and on an
    edge (Re w = 1/2, or |w| = 1 with B < 0) w may be the point that
    reduced() identifies with its own; shift and the inversions are those
    of _reduce_sl2 on the embedded point, except where some |v|^2 lies
    below 1 by less than ctx.tol, which takes a > 10^digits / 2. Each
    inversion lowers a, so the loop ends."""
    a, b, d = p.A, p.B, p.disc
    shift, inverted = 0, []
    while True:
        n, r = divmod(a - b, 2 * a)  # floor(Re v + 1/2)
        n -= r == 0 and n % 2
        b += 2 * a * n
        shift += n
        c = (b * b - d) // (4 * a)
        if c >= a:
            return CMPoint(a, b, c), shift, inverted
        inverted.append((a, b))
        a, b = c, -b


# -- eta, E2*, alpha_N, j, E4 ----------------------------------------------

def _e4(w: mpc, ctx: PrecisionContext) -> tuple:
    """(P, E4) at w from one pass of Euler's sums: Ramanujan's E4 = E2^2 -
    12 q dE2/dq = E2^2 - 288 (M2 P - M1^2) / P^2, E2 = 1 + 24 M1 / P as in
    _eta_e2_star. Call under ``ctx.working()``."""
    m2, m1, s = _qsum(w, ctx, _pentagonal_table, (0, 1, 2))
    p = 1 + s
    e2 = 1 + 24 * m1 / p
    return p, e2 * e2 - 288 * (m2 * p - m1 * m1) / (p * p)


def _eta_e2_star(z: mpc, ctx: PrecisionContext) -> tuple:
    """(eta(z), E2*(z)) from one SL(2, Z) reduction and one pass of Euler's
    sums s = P - 1 and M1 at the reduced point w, where |q| < 0.005, carried
    back over the k points ``inverted``. eta by eta(v + n) = e^{pi i n / 12}
    eta(v) and eta(-1/v) = sqrt(-i v) eta(v) = e^{-pi i / 4} sqrt(v) eta(v)
    (Apostol, Modular Functions and Dirichlet Series, ch. 3): eta(z) =
    e^{pi i (w + shift + 3k) / 12} P / prod_v sqrt(v), shift + 3k taken mod
    24. E2 = 1 + 24 M1 / P, as q d/dq log P = -sum sigma_1(n) q^n (ch. 3),
    and E2*(z) = E2(z) - 3 / (pi Im z) is a weight-2 form: E2*(v + 1) =
    E2*(v) and E2*(-1/v) = v^2 E2*(v), so E2*(z) = E2*(w) / prod_v v^2.
    Call under ``ctx.working()``."""
    w, shift, inverted = _reduce_sl2(z, ctx)
    m1, s = _qsum(w, ctx, _pentagonal_table, (1, 2))
    eta = mpmath.expjpi((w + (shift + 3 * len(inverted)) % 24) / 12) * (1 + s)
    e2 = 1 + 24 * m1 / (1 + s) - 3 / (mp.pi * w.imag)
    for v in inverted:
        eta /= mpmath.sqrt(v)
        e2 /= v * v
    return eta, e2


def dedekind_eta(z, ctx: PrecisionContext) -> mpc:
    """eta(z) = e^{pi i z / 12} prod (1 - q^n), the product summed once by
    Euler's pentagonal-number expansion at the reduced point (_eta_e2_star)."""
    z = _as_mpc(z, ctx)
    with ctx.working():
        return _eta_e2_star(z, ctx)[0]


def _uncancelled(total: tuple, terms: tuple, what: str) -> tuple:
    """``total``, a raw mpc sum of the raw mpc ``terms``; DomainError where
    it cancels past the GUARD_DIGITS of the working precision, |total| at
    most 10^-GUARD_DIGITS sum |term|. The moduli are taken at 53 bits: the
    test needs no more."""
    size = libmp.fzero
    for u in terms:
        size = libmp.mpf_add(size, libmp.mpc_abs(u, 53, _NEAREST), 53, _NEAREST)
    if libmp.mpf_gt(libmp.mpf_mul_int(libmp.mpc_abs(total, 53, _NEAREST), 10**GUARD_DIGITS, 53,
                                      _NEAREST), size):
        return total
    raise DomainError(f"{what} cancels past the {GUARD_DIGITS} guard digits: z is at a pole")


def _nearest(prec: int):
    """op(*args) for a raw libmp operation ``op``, rounded to nearest at
    prec bits."""
    return lambda op, *args: op(*args, prec, _NEAREST)


def _eta_squared_e2_star(v, ctx: PrecisionContext) -> tuple:
    """(x, P, V, E2*(v)), raw mpc tuples at ctx's working precision of p
    bits, with eta(v)^2 = e^{pi i x / 6} P^2 / V: _eta_e2_star's carry-back
    squared, so that it takes no square root. From the reduction (w, shift,
    inverted) of v, x = w + (shift + 3k) mod 24 over the k inverted points,
    V = prod_j v_j over them, P = 1 + s from one pass of Euler's sums s and
    M1 at w, and E2*(v) = E2*(w) / V^2, E2*(w) = 1 + 24 M1 / P - 3 / (pi Im w).
    A CMPoint is reduced in integers (_reduce_form) and q taken at its exact
    reduced point (_q_fixed): with S = sqrt|D| at p bits (_sqrt_bits), x =
    ((2a k - b) + i S) / (2a) and V = (X + i Y S) / prod 2a_j for the exact
    integers X + i Y S = prod (-b_j + i S), as S^2 = |D|, each part within
    about 2 ulps. An mpc is reduced at the working precision (_reduce_sl2),
    x = w + (shift + 3k) and V the product of the mpc points, each product
    rounded. On raw tuples, with no context entered."""
    prec = libmp.dps_to_prec(ctx.dps)
    r = _nearest(prec)
    if isinstance(v, CMPoint):
        w, shift, inverted = _reduce_form(v)
        k = (shift + 3 * len(inverted)) % 24
        root, two_a = _sqrt_bits(-w.disc, prec), 2 * w.A
        x = _quotient(two_a * k - w.B, two_a, prec), r(libmp.mpf_div, root, libmp.from_int(two_a))
        re, im, den = 1, 0, 1
        for a, b in inverted:
            re, im, den = w.disc * im - b * re, re - b * im, 2 * a * den
        v_prod = (_quotient(re, den, prec),
                  r(libmp.mpf_div, r(libmp.mpf_mul_int, root, im), libmp.from_int(den)))
    else:
        w, shift, inverted = _reduce_sl2(v, ctx)
        k = (shift + 3 * len(inverted)) % 24
        x, v_prod = r(libmp.mpc_add_mpf, w._mpc_, libmp.from_int(k)), libmp.mpc_one
        for u in inverted:
            v_prod = r(libmp.mpc_mul, v_prod, u._mpc_)
    bits, re, im = _qsum_fixed(w, ctx, _pentagonal_table, (1, 2))
    m1 = _dyadic(re[0], -bits, prec), _dyadic(im[0], -bits, prec)
    p = _dyadic(re[1] + (1 << bits), -bits, prec), _dyadic(im[1], -bits, prec)
    e2 = r(libmp.mpc_add_mpf, r(libmp.mpc_mul_int, r(libmp.mpc_div, m1, p), 24), libmp.fone)
    pi_y = r(libmp.mpf_mul, libmp.mpf_pi(prec), x[1])
    e2 = r(libmp.mpc_sub_mpf, e2, r(libmp.mpf_div, libmp.from_int(3), pi_y))
    if inverted:
        e2 = r(libmp.mpc_div, e2, r(libmp.mpc_square, v_prod))
    return x, p, v_prod, e2


def _power(z: tuple, n: int, prec: int) -> tuple:
    """z^n for a raw mpc z and n >= 1 by repeated squaring, each product
    rounded at prec + 10 bits and the result once more at prec: unlike
    libmp.mpc_pow_int, no exact power, nor exp(n log z) past 10^4 bits."""
    wp, acc = prec + 10, None
    while True:
        if n & 1:
            acc = z if acc is None else libmp.mpc_mul(acc, z, wp, _NEAREST)
        n >>= 1
        if not n:
            return libmp.mpc_pos(acc, prec, _NEAREST)
        z = libmp.mpc_square(z, wp, _NEAREST)


def _level(z, N: int, ctx: PrecisionContext) -> tuple:
    """(t, E2*(z), E2*(Nz)), raw mpc tuples at ctx's working precision,
    from one _eta_squared_e2_star pass at each of z and Nz (CMPoint.scaled
    for a CMPoint, the product N z rounded for an mpc): t = Q/s with
    Q = (eta(z)/eta(Nz))^e, e = 24/(N-1), and s = N^(6/(N-1)). With h = e/2,
    Q = (e^{pi i (x - x') / 6} P^2 V' / (P'^2 V))^h, the primes at Nz, which
    is e^{2 pi i (x - x')/(N-1)} (P/P')^e prod v'^h / prod v^h: one
    exponential per row, and no square root. At a CMPoint every error count
    starts at the exact point. Every Gamma0(N) quantity is rational in t,
    with no subtraction but its pole factor 1 + t: alpha_N = 1/(1 + t),
    1 - alpha_N = t/(1 + t), xi = 1 - 2/(1 + t). eta has no zero, so t is
    never 0. DomainError where 1 + t cancels, at alpha_N's poles, as at
    1/2+1/2*i (N = 2) and 1/2+1/6*sqrt(3)*i (N = 3), elliptic points of
    Gamma0(N). A z that is not a CMPoint is taken as _as_mpc makes it. On
    raw tuples, with no context entered."""
    _check_level(N)
    prec = libmp.dps_to_prec(ctx.dps)
    if isinstance(z, CMPoint):
        nz = z.scaled(N)
    else:
        z = _as_mpc(z, ctx)
        nz = mp.make_mpc(libmp.mpc_mul_int(z._mpc_, N, prec, _NEAREST))
    (x, p, v, e2), (xn, pn, vn, e2n) = (_eta_squared_e2_star(u, ctx) for u in (z, nz))
    r = _nearest(prec)
    turn = r(libmp.mpc_expjpi, r(libmp.mpc_div_mpf, r(libmp.mpc_sub, x, xn), libmp.from_int(6)))
    num = r(libmp.mpc_mul, r(libmp.mpc_mul, turn, r(libmp.mpc_square, p)), vn)
    den = r(libmp.mpc_mul, r(libmp.mpc_square, pn), v)
    quot = _power(r(libmp.mpc_div, num, den), 12 // (N - 1), prec)
    t = r(libmp.mpc_div_mpf, quot, libmp.from_int(_ALPHA_SCALE[N]))
    _uncancelled(r(libmp.mpc_add_mpf, t, libmp.fone), (libmp.mpc_one, t),
                 f"alpha_{N}'s denominator 1 + Q/s")
    return t, e2, e2n


def alpha_n(z, N: int, ctx: PrecisionContext) -> mpc:
    """Level-N modular invariant alpha_N = 1/(1 + t) from the eta quotient
    t = (eta(z)/eta(Nz))^(24/(N-1)) / N^(6/(N-1)) of _level, at the exact
    point for a CMPoint."""
    r = _nearest(libmp.dps_to_prec(ctx.dps))
    return mp.make_mpc(r(libmp.mpc_div, libmp.mpc_one,
                         r(libmp.mpc_add_mpf, _level(z, N, ctx)[0], libmp.fone)))


def series_constants_from_cm(z, N: int, ctx: PrecisionContext):
    """(2 xi, R_nu(xi), m) at z, all on ctx.bumped(), from one pass of
    Euler's sums at each of z and Nz (_level): the eta quotient t and
    E2*(v) = E2(v) - 3 / (pi Im v). A CMPoint is not embedded: its error
    count starts at the exact point. With alpha = alpha_N(z) = 1/(1 + t),
    xi = 1 - 2 alpha = 1 - 2/(1 + t) and m = s / (alpha (1 - alpha)) =
    s (1 + t)^2 / t, so 1 - alpha, which cancels near the cusp 0, is never
    formed. R_nu comes from the E2* form of Guillera & Rogers, "Ramanujan
    series upside-down", and Chan, Chan & Liu, "Domb's numbers and
    Ramanujan-Sato type series for 1/pi" (2004), in which the 1/(pi Im z)
    terms of E2 cancel; legendre_ramanujan_r is the oracle:

        R_nu = -(N-1)(E2*(z) + N E2*(Nz)) / (6 (N E2*(Nz) - E2*(z))) + (N+1)xi/6.

    DomainError where 1 + t or this denominator cancels (_uncancelled). On
    raw tuples, with no context entered."""
    wide = ctx.bumped()
    t, e2, e2n = _level(z, N, wide)
    r = _nearest(libmp.dps_to_prec(wide.dps))
    one_t = r(libmp.mpc_add_mpf, t, libmp.fone)
    xi = r(libmp.mpc_sub, libmp.mpc_one, r(libmp.mpc_div, libmp.mpc_two, one_t))
    n_e2n = r(libmp.mpc_mul_int, e2n, N)
    den = _uncancelled(r(libmp.mpc_sub, n_e2n, e2), (n_e2n, e2), "N E2*(Nz) - E2*(z)")
    c2 = r(libmp.mpc_div, r(libmp.mpc_mul_int, r(libmp.mpc_add, e2, n_e2n), 1 - N),
           r(libmp.mpc_mul_int, den, 6))
    c2 = r(libmp.mpc_add, c2,
           r(libmp.mpc_div_mpf, r(libmp.mpc_mul_int, xi, N + 1), libmp.from_int(6)))
    m = r(libmp.mpc_div, r(libmp.mpc_mul_int, r(libmp.mpc_square, one_t), _ALPHA_SCALE[N]), t)
    return tuple(mp.make_mpc(u) for u in (r(libmp.mpc_mul_int, xi, 2), c2, m))


def j_invariant(z, ctx: PrecisionContext) -> mpc:
    """Klein's j = E4^3 / eta^24 (Apostol, ch. 1), so j(i) = 1728, from one
    pass of Euler's sums at the reduced point w of z, as j is SL(2, Z)
    invariant: eta(w)^24 = q P^24. eta has no zero, so j has no pole."""
    z = _as_mpc(z, ctx)
    with ctx.working():
        w = _reduce_sl2(z, ctx)[0]
        p, e4 = _e4(w, ctx)
        return e4**3 / (mpmath.expjpi(2 * w) * p**24)


def eisenstein_e4(z, ctx: PrecisionContext) -> mpc:
    """E4(z) = 1 + 240 sum sigma_3(n) q^n from Euler's sums at the reduced
    point w, carried back by E4(-1/v) = v^4 E4(v) over the points ``inverted``."""
    z = _as_mpc(z, ctx)
    with ctx.working():
        w, _, inverted = _reduce_sl2(z, ctx)
        return _e4(w, ctx)[1] / mpmath.fprod(v**4 for v in inverted)


def eichler_e4_tilde(z, ctx: PrecisionContext) -> mpc:
    """Integral of [1 - E4(w)] (z - w)(conj(z) - w) dw from z to i*infinity.

    Along the vertical ray each q-series mode integrates in closed form:
    int e^{2 pi i n w} (z-w)(zbar-w) dw = -i q^n [2y/(2 pi n)^2 + 2/(2 pi n)^3],
    so the whole integral is 240i (y S_2 / (2 pi^2) + S_3 / (4 pi^3)),
    S_j = sum sigma_3(n) q^n / n^j by _qsum at z itself, reduced or not:
    within 2^-24 u before one rounding (u = 2^-b, b working bits), and
    |S_j| <= 1.21 |q| / (1 - |q|)^(4-j). With the roundings after, the result is
    within u (8 M + y/20 + 1/100), M = 240 (y |S_2|/(2 pi^2) + |S_3|/(4 pi^3)).
    """
    z = _as_mpc(z, ctx)
    with ctx.working():
        s2, s3 = _qsum(z, ctx, _sigma3_table, (2, 3))
        return 240j * (z.imag / (2 * mp.pi**2) * s2 + s3 / (4 * mp.pi**3))


def _reflection_poly(r2, y):
    """The reflection identity's right side, with r2 = |z|^2, less its factor."""
    return (r2 + 2 * y * y) / r2**2 + r2 + 2 * y * y - 5


def re_eichler_closed_form(z, ctx: PrecisionContext) -> mpf:
    """Closed form of Re of the Eichler integral when 2 Re z or 2 Re(1/z) is
    an integer (the second case from the reflection functional equation)."""
    z = _as_mpc(z, ctx)
    with ctx.working():
        x, y = z.real, z.imag
        two_x = 2 * x
        if abs(two_x - mpmath.nint(two_x)) < ctx.slack:
            return mpf(0)
        w = 2 * (1 / z).real
        if abs(w - mpmath.nint(w)) < ctx.slack:
            return -(x / 3) * _reflection_poly(x * x + y * y, y)
        raise DomainError(
            f"neither 2*Re(z) nor 2*Re(1/z) is an integer at z = {z}"
        )


def reflection_residual(z, ctx: PrecisionContext) -> mpf:
    """|LHS - RHS| of the reflection identity relating Re of the Eichler
    integral at z and at -1/z; small residuals certify the q-series path."""
    z = _as_mpc(z, ctx)
    with ctx.working():
        x, y = z.real, z.imag
        r2 = x * x + y * y
        lhs = (
            r2 / y**2 * eichler_e4_tilde(-1 / z, ctx).real
            - eichler_e4_tilde(z, ctx).real / y**2
        )
        rhs = x / (3 * y**2) * _reflection_poly(r2, y)
        return abs(lhs - rhs)


# -- Legendre / Legendre-Ramanujan functions -------------------------------

def _check_nu(nu) -> Fraction:
    nu = Fraction(nu)
    if nu not in _NU_BY_LEVEL.values():
        raise DomainError(f"degree must be -1/4, -1/3, or -1/2, got {nu}")
    return nu


def _off_branch_point(t) -> mpc:
    """t as an mpc, rejected at the singular point t = 1. Call under
    ``ctx.working()``."""
    t = mpc(t)
    if t == 1:
        raise DomainError("argument t = 1 is the singular point of P_nu(1 - 2t)")
    return t


def legendre_p(nu, t, ctx: PrecisionContext) -> mpc:
    """P_nu(1 - 2t) = 2F1(-nu, nu + 1; 1; t) for t != 1.

    Every t takes the same path, ``mpmath.hyp2f1``, which sums the power
    series near 0 and continues it analytically elsewhere. On the cut
    (1, oo) the value is the limit from below, Im t -> 0-.
    """
    nu = _check_nu(nu)
    with ctx.working():
        t = _off_branch_point(t)
        return mpmath.hyp2f1(-_frac_mpf(nu), _frac_mpf(nu) + 1, 1, t)


def _frac_mpf(x: Fraction) -> mpf:
    return mpf(x.numerator) / x.denominator


def legendre_p_dt(nu, t, ctx: PrecisionContext) -> mpc:
    """d/dt of the hypergeometric function behind legendre_p, through the
    same ``mpmath.hyp2f1`` path: -nu (nu + 1) 2F1(1 - nu, nu + 2; 2; t).
    On the cut (1, oo) it is the limit from below, as for legendre_p."""
    nu = _check_nu(nu)
    with ctx.working():
        t = _off_branch_point(t)
        nv = _frac_mpf(nu)
        return -nv * (nv + 1) * mpmath.hyp2f1(1 - nv, nv + 2, 2, t)


def _r_direct(nu: Fraction, xi: mpc, ctx: PrecisionContext) -> mpc:
    with ctx.working():
        nv = _frac_mpf(nu)
        t_plus = (1 - xi) / 2   # argument of P_nu(xi)
        t_minus = (1 + xi) / 2  # argument of P_nu(-xi)
        p_p = legendre_p(nu, t_plus, ctx)
        p_m = legendre_p(nu, t_minus, ctx)
        # P_nu(x) = F((1-x)/2) with F the hypergeometric sum, so the xi
        # derivative picks up -(1/2) F' at xi and +(1/2) F' at -xi.
        d_p = -legendre_p_dt(nu, t_plus, ctx) / 2
        d_m = legendre_p_dt(nu, t_minus, ctx) / 2
        one_m = 1 - xi**2
        logderiv = one_m * d_p / p_p + one_m * d_m / p_m
        im1 = (1j * p_m / p_p).imag
        im2 = (1j * p_p / p_m).imag
        correction = (
            mpmath.sinpi(nv)
            / mp.pi
            * (1 / (p_p**2 * im1) - 1 / (p_m**2 * im2))
        )
        return logderiv - correction


def legendre_ramanujan_r(nu, xi, ctx: PrecisionContext) -> mpc:
    """Legendre-Ramanujan combination R_nu(xi).

    Real xi with |xi| > 1 sits on a branch line: one of the two Legendre
    arguments lies on the cut, where ``legendre_p`` returns the limit from
    below. The limit from above is the complex conjugate, so the real part
    is the value on the line and 2 |Im| is the two-sided gap, which must be
    below 10^-(digits//2). Only an Im xi at the level of rounding noise
    (ctx.eps relative) is snapped to the line. xi = +-1 raises DomainError.
    """
    nu = _check_nu(nu)
    with ctx.working():
        xi = mpc(xi)
        if abs(xi.imag) > ctx.eps * (1 + abs(xi)):
            return _r_direct(nu, xi, ctx)
        r = _r_direct(nu, mpc(xi.real), ctx)
        tol = ctx.slack * (1 + abs(r))
        if 2 * abs(r.imag) > tol:
            raise ArithmeticError(
                f"one-sided limits of R_nu disagree at xi = {xi}: "
                f"{r} vs {mpmath.conj(r)}"
            )
        return mpc(r.real)


def satisfies_region(z, N: int, ctx: PrecisionContext) -> bool:
    """Admissibility constraints for the series lemma, with boundary slack."""
    t = mp.make_mpc(_level(z, N, ctx)[0])
    z = _as_mpc(z, ctx)
    with ctx.working():
        return _in_region(z, N, 1 - 2 / (1 + t), ctx)


def _in_region(z: mpc, N: int, xi, ctx: PrecisionContext) -> bool:
    """satisfies_region for a caller that holds xi = 1 - 2 alpha_N(z), so
    |1 - xi^2| = |4 alpha (1 - alpha)| and |xi| = |2 alpha - 1|. Call under
    ``ctx.working()``."""
    slack = ctx.slack
    if abs(1 - xi**2) < 1 - slack:
        return False
    if abs(xi) <= slack:
        return False
    if abs(z.real) > mpf(1) / 2 + slack:
        return False
    r = mpf(1) / N
    if abs(z + r) < r - slack or abs(z - r) < r - slack:
        return False
    return True
