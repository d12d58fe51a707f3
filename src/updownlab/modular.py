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
        it, on raw tuples: -B and |D| rounded to nearest at P bits, the
        square root and both quotients by the exact 2A each rounded. Where -B
        fits in P bits, Re is -B/(2A) in lowest terms (numerics._quotient),
        which spares mpf_div the trailing zeros of a quotient such as 28/14.
        sqrt(|D|) is kept per precision (numerics._sqrt_bits), so the points
        of one discriminant share one square root."""
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
        when their reduced forms are equal. It is _reduce_form's point, moved
        from an edge (B = -A, or A = C and B < 0) to the one it identifies."""
        w = _reduce_form(self)[0]
        return CMPoint(w.A, -w.B, w.C) if w.B == -w.A or (w.A == w.C and w.B < 0) else w

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
    toward -oo, on raw tuples. z is an mpc, or a CMPoint, whose Im the
    cutoff reads from its fixed point at 53 bits (as a raw mpf: a height
    past the floats reads inf) and which is taken once more in fixed point
    at P + 10 bits for q (CMPoint.fixed). q = mpc_expjpi(2z) at P + 10
    bits, the parts of z doubled and rounded to nearest there, bit for bit
    as mpmath.expjpi(2 * z) under workprec(P + 10); cospi and sinpi reduce
    2 Re z mod 2 exactly, so q is exactly 1-periodic and exactly real at
    Re z in {0, +-1/2}. At a CMPoint with Im z >= 1/2, the fixed point's
    2^-(P+10) moves q by under 2^-10 ulp, and the same integer square root
    gives Im z: isqrt(|D| 4^(P+10)) >> 10 = isqrt(|D| 4^P), the floors by
    2^10 and by 2A composed into one. At an mpc, Im z is its Im truncated."""
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
    boundary point between v and -1/v. On raw tuples at ctx's working
    precision, bit for bit the sequence mpmath runs on mpc under
    ctx.working(), each step rounded to nearest: mpf_nint (ties to even) and
    mpf_sub, mpf_mul and mpf_add for |v|^2, mpc_mpf_div for -1/v. So w is
    z's image up to about one ulp of z per step, which no caller counts."""
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
    step translates by n = nint(Re v) = nint(-b / (2a)), ties to even as
    mpf_nint, and inverts where |v|^2 = c/a < 1, which lowers a. w is the
    CMPoint where it stops, in the closed fundamental domain (on an edge,
    maybe the point CMPoint.reduced() moves), and ``inverted`` the pairs
    (a, b) it inverts at. Its steps are _reduce_sl2's at the embedded point
    unless some |v|^2 is below 1 by under ctx.tol, which takes a > 10^digits / 2."""
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

def _nearest(prec: int):
    """op(*args) for a raw libmp operation ``op``, rounded to nearest at prec bits."""
    return lambda op, *args: op(*args, prec, _NEAREST)


def _reduced_sums(v, ctx: PrecisionContext, powers, prec: int) -> tuple:
    """(w, k, V, flips, sums): the one SL(2, Z) reduction (w, shift,
    inverted) of v and one pass of Euler's sums at w (_qsum_fixed at ctx's
    working dps), for eta, E2*, E4 and j. k = (shift + 3 len(inverted)) mod
    24, V = prod v_j over the inverted points (None if none), ``flips`` the
    j where Im(v_1 ... v_j) turns negative from Im(v_1 ... v_(j-1)) >= 0, as
    sum arg v_j passes an odd multiple of pi: prod sqrt(v_j) = (-1)^flips
    sqrt(V). ``sums``: _pentagonal_table's for ``powers``, ending at 2 (the
    last is P = 1 + s). V and sums are raw mpc at prec bits. A CMPoint is
    reduced in integers (_reduce_form), q taken at the exact w, and V =
    (X + i Y S) / prod 2a_j from the exact integers X + i Y S = prod (-b_j +
    i S), S = sqrt|D| at prec bits: each part within 2 ulps, the sign of Im
    exact. Any other v is _as_mpc's, reduced in mpc (_reduce_sl2)."""
    r = _nearest(prec)
    v_prod, flips = None, 0
    if isinstance(v, CMPoint):
        w, shift, inverted = _reduce_form(v)
        if inverted:
            re, im, den = 1, 0, 1
            for a, b in inverted:
                re, im, den, flips = (w.disc * im - b * re, re - b * im, 2 * a * den,
                                      flips + (im >= 0 > re - b * im))
            v_prod = (_quotient(re, den, prec),
                      r(libmp.mpf_div, r(libmp.mpf_mul_int, _sqrt_bits(-w.disc, prec), im),
                        libmp.from_int(den)))
    else:
        w, shift, inverted = _reduce_sl2(_as_mpc(v, ctx), ctx)
        for u in inverted:
            prev = v_prod or libmp.mpc_one
            v_prod = r(libmp.mpc_mul, prev, u._mpc_)
            flips += libmp.mpf_sign(prev[1]) >= 0 > libmp.mpf_sign(v_prod[1])
    bits, re, im = _qsum_fixed(w, ctx, _pentagonal_table, powers)
    re[-1] += 1 << bits
    sums = [(_dyadic(a, -bits, prec), _dyadic(b, -bits, prec)) for a, b in zip(re, im)]
    return w, (shift + 3 * len(inverted)) % 24, v_prod, flips, sums


def _shifted(w, k: int, prec: int) -> tuple:
    """w + k at prec bits, a raw mpc; at a CMPoint ((2a k - b) + i S) / (2a)."""
    if isinstance(w, CMPoint):
        return (_quotient(2 * w.A * k - w.B, 2 * w.A, prec),
                libmp.mpf_div(_sqrt_bits(-w.disc, prec), libmp.from_int(2 * w.A), prec, _NEAREST))
    return libmp.mpc_add_mpf(w._mpc_, libmp.from_int(k), prec, _NEAREST)


# eta, E4 and j work at _WIDE bits past the working precision P and round once:
# from a CMPoint's exact point each is within 1.1 u max(|value|, 1), u = 2^-P,
# past the height term in its docstring (measured: at most 0.82, 0.99 and 0.96
# u at the 56 distinct CM arguments, 40 to 1000 digits). An mpc adds its reduction's error.
_WIDE = 10


def dedekind_eta(z, ctx: PrecisionContext) -> mpc:
    """eta(z) = e^{pi i z / 12} prod (1 - q^n), Euler's pentagonal sum at
    the reduced point w (_reduced_sums), carried back by eta(v + n) =
    e^{pi i n / 12} eta(v) and eta(-1/v) = e^{-pi i / 4} sqrt(v) eta(v)
    (Apostol, Modular Functions and Dirichlet Series, ch. 3): eta(z) = e^{pi
    i (w + k + 12 flips) / 12} P / sqrt(V) = e^{pi i (w + k) / 12} P / prod
    sqrt(v_j). Height term (_WIDE): Im w u / 2000."""
    prec = libmp.dps_to_prec(ctx.dps)
    wp = prec + _WIDE
    w, k, v_prod, flips, (p,) = _reduced_sums(z, ctx, (2,), wp)
    turn = libmp.mpc_div_mpf(_shifted(w, (k + 12 * flips) % 24, wp), libmp.from_int(12), wp)
    eta = libmp.mpc_mul(libmp.mpc_expjpi(turn, wp), p, wp)
    if v_prod:
        eta = libmp.mpc_div(eta, libmp.mpc_sqrt(v_prod, wp), wp)
    return mp.make_mpc(libmp.mpc_pos(eta, prec, _NEAREST))


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


def _eta_squared_e2_star(v, ctx: PrecisionContext) -> tuple:
    """(x, P, V, E2*(v)), raw mpc tuples at ctx's working precision, with
    eta(v)^2 = e^{pi i x / 6} P^2 / V, x = w + k (_shifted), V = 1 if nothing
    is inverted: dedekind_eta's carry-back squared, with no square root.
    E2*(v) = E2*(w) / V^2, E2*(w) = 1 + 24 M1 / P - 3 / (pi Im w), as
    q d/dq log P = -sum sigma_1(n) q^n (Apostol, ch. 3), of weight 2."""
    prec = libmp.dps_to_prec(ctx.dps)
    r = _nearest(prec)
    w, k, v_prod, _, (m1, p) = _reduced_sums(v, ctx, (1, 2), prec)
    x = _shifted(w, k, prec)
    e2 = r(libmp.mpc_add_mpf, r(libmp.mpc_mul_int, r(libmp.mpc_div, m1, p), 24), libmp.fone)
    pi_y = r(libmp.mpf_mul, libmp.mpf_pi(prec), x[1])
    e2 = r(libmp.mpc_sub_mpf, e2, r(libmp.mpf_div, libmp.from_int(3), pi_y))
    if v_prod is None:
        return x, p, libmp.mpc_one, e2
    return x, p, v_prod, r(libmp.mpc_div, e2, r(libmp.mpc_square, v_prod))


def _e4_at(z, ctx: PrecisionContext, prec: int) -> tuple:
    """(w, V, P, E4(w)), E4 = E2^2 - 12 q dE2/dq = E2^2 - 288 (M2 P - M1^2) / P^2
    (Ramanujan), E2 = 1 + 24 M1 / P, from _reduced_sums' pass at prec bits."""
    r = _nearest(prec)
    w, _, v_prod, _, (m2, m1, p) = _reduced_sums(z, ctx, (0, 1, 2), prec)
    e2 = r(libmp.mpc_add_mpf, r(libmp.mpc_mul_int, r(libmp.mpc_div, m1, p), 24), libmp.fone)
    d = r(libmp.mpc_sub, r(libmp.mpc_mul, m2, p), r(libmp.mpc_square, m1))
    d = r(libmp.mpc_div, r(libmp.mpc_mul_int, d, 288), r(libmp.mpc_square, p))
    return w, v_prod, p, r(libmp.mpc_sub, r(libmp.mpc_square, e2), d)


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
    from one _eta_squared_e2_star pass at each of z and Nz (CMPoint.scaled,
    or the product N z rounded for an mpc, as _as_mpc takes it): t = Q/s,
    Q = (eta(z)/eta(Nz))^e, e = 24/(N-1), s = N^(6/(N-1)). With h = e/2,
    Q = (e^{pi i (x - x') / 6} P^2 V' / (P'^2 V))^h, the primes at Nz: one
    exponential per row, no square root, and at a CMPoint every error count
    starts at the exact point. Every Gamma0(N) quantity is rational in t,
    with no subtraction but its pole factor 1 + t: alpha_N = 1/(1 + t),
    1 - alpha_N = t/(1 + t), xi = 1 - 2/(1 + t); t is never 0. DomainError
    where 1 + t cancels, at alpha_N's poles, as at the elliptic points
    1/2+1/2*i (N = 2) and 1/2+1/6*sqrt(3)*i (N = 3). On raw tuples."""
    _check_level(N)
    prec = libmp.dps_to_prec(ctx.dps)
    cm = isinstance(z, CMPoint)
    z = z if cm else _as_mpc(z, ctx)
    nz = z.scaled(N) if cm else mp.make_mpc(libmp.mpc_mul_int(z._mpc_, N, prec, _NEAREST))
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
    """(2 xi, R_nu(xi), m) at z, all on ctx.bumped(), from _level's t and
    E2*(v) = E2(v) - 3 / (pi Im v) at z and Nz; a CMPoint is not embedded.
    With alpha = alpha_N(z) = 1/(1 + t), xi = 1 - 2/(1 + t) and
    m = s / (alpha (1 - alpha)) = s (1 + t)^2 / t, so 1 - alpha, which
    cancels near the cusp 0, is never formed. R_nu comes from the E2* form
    of Guillera & Rogers, "Ramanujan series upside-down", and Chan, Chan &
    Liu, "Domb's numbers and Ramanujan-Sato type series for 1/pi" (2004), in
    which the 1/(pi Im z) terms of E2 cancel; legendre_ramanujan_r is the oracle:

        R_nu = -(N-1)(E2*(z) + N E2*(Nz)) / (6 (N E2*(Nz) - E2*(z))) + (N+1)xi/6.

    DomainError where 1 + t or this denominator cancels (_uncancelled). On
    raw tuples."""
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
    """Klein's j = E4^3 / eta^24 (Apostol, ch. 1), so j(i) = 1728, at the
    reduced point w of z (_e4_at), as j is SL(2, Z) invariant:
    j = E4(w)^3 / (q P^24), q = e^{2 pi i w}, both powers by _power. eta has
    no zero, so j has no pole. Height term (_WIDE): Im w u / 50."""
    prec = libmp.dps_to_prec(ctx.dps)
    wp = prec + _WIDE
    w, _, p, e4 = _e4_at(z, ctx, wp)
    q = libmp.mpc_expjpi(libmp.mpc_mul_int(_shifted(w, 0, wp), 2, wp), wp)
    den = libmp.mpc_mul(q, _power(p, 24, wp), wp)
    return mp.make_mpc(libmp.mpc_div(_power(e4, 3, wp), den, prec, _NEAREST))


def eisenstein_e4(z, ctx: PrecisionContext) -> mpc:
    """E4(z) = 1 + 240 sum sigma_3(n) q^n at the reduced point w (_e4_at),
    carried back by E4(-1/v) = v^4 E4(v): E4(z) = E4(w) / V^4, V^4 by
    _power. Height term (_WIDE): u / (10 |V|^4), as E4 is 0 at rho."""
    prec = libmp.dps_to_prec(ctx.dps)
    wp = prec + _WIDE
    _, v_prod, _, e4 = _e4_at(z, ctx, wp)
    if v_prod:
        e4 = libmp.mpc_div(e4, _power(v_prod, 4, wp), wp)
    return mp.make_mpc(libmp.mpc_pos(e4, prec, _NEAREST))


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


def _reflection_poly(r2, y2):
    """The reflection identity's right side less its factor, r2 = |z|^2, y2 = (Im z)^2."""
    return (r2 + 2 * y2) / r2**2 + r2 + 2 * y2 - 5


def re_eichler_closed_form(z, ctx: PrecisionContext) -> mpf:
    """Closed form of Re of the Eichler integral when 2 Re z or 2 Re(1/z) is
    an integer (the second case from the reflection functional equation). At
    a CMPoint (A, B, C) the tests are A | B and C | B, and the second case is
    rational: x = -B/(2A), |z|^2 = C/A and (Im z)^2 = |D|/(4A^2)."""
    z = z if isinstance(z, CMPoint) else _as_mpc(z, ctx)
    with ctx.working():
        if isinstance(z, CMPoint):
            x, r2, y2 = Fraction(-z.B, 2 * z.A), Fraction(z.C, z.A), Fraction(-z.disc, 4 * z.A**2)
            zero, reflected = z.B % z.A == 0, z.B % z.C == 0
        else:
            x, y2 = z.real, z.imag**2
            r2 = x * x + y2
            zero, reflected = (abs(u - mpmath.nint(u)) < ctx.slack for u in (2 * x, 2 * x / r2))
        if zero:
            return mpf(0)
        if not reflected:
            raise DomainError(f"neither 2*Re(z) nor 2*Re(1/z) is an integer at z = {z}")
        value = -(x / 3) * _reflection_poly(r2, y2)
        return mpf(value.numerator) / value.denominator if isinstance(z, CMPoint) else value


def reflection_residual(z, ctx: PrecisionContext) -> mpf:
    """|LHS - RHS| of the reflection identity relating Re of the Eichler
    integral at z and at -1/z; small residuals certify the q-series path."""
    z = _as_mpc(z, ctx)
    with ctx.working():
        x, y2 = z.real, z.imag**2
        r2 = x * x + y2
        lhs = (r2 * eichler_e4_tilde(-1 / z, ctx).real - eichler_e4_tilde(z, ctx).real) / y2
        return abs(lhs - x / (3 * y2) * _reflection_poly(r2, y2))


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
    """Admissibility constraints for the series lemma, with boundary slack;
    a CMPoint is not embedded."""
    t = mp.make_mpc(_level(z, N, ctx)[0])
    z = z if isinstance(z, CMPoint) else _as_mpc(z, ctx)
    with ctx.working():
        return _in_region(z, N, 1 - 2 / (1 + t), ctx)


def _in_region(z, N: int, xi, ctx: PrecisionContext) -> bool:
    """satisfies_region for a caller that holds xi = 1 - 2 alpha_N(z), so
    |1 - xi^2| = |4 alpha (1 - alpha)| and |xi| = |2 alpha - 1|. The tests
    on z are exact at a CMPoint (A, B, C): |Re z| <= 1/2 is |B| <= A, and
    |z -+ 1/N| >= 1/N, |z|^2 -+ 2 Re z / N >= 0 with |z|^2 = C/A, is
    N C >= |B|. An mpc passes them within ctx.slack. Under ctx.working()."""
    slack = ctx.slack
    if abs(1 - xi**2) < 1 - slack or abs(xi) <= slack:
        return False
    if isinstance(z, CMPoint):
        return abs(z.B) <= min(z.A, N * z.C)
    r = mpf(1) / N
    return abs(z.real) <= mpf(1) / 2 + slack and min(abs(z + r), abs(z - r)) >= r - slack
