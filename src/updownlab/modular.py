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

from .numerics import (GUARD_DIGITS, MAX_TERMS, DomainError, PrecisionContext, _square_part,
                       kept_table, to_fixed)

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
    if not z.imag > 0:
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
        with ctx.working():
            return mpc(
                mpf(-self.B) / (2 * self.A),
                mpmath.sqrt(mpf(-self.disc)) / (2 * self.A),
            )

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

def _qseries_cutoff(y: mpf, ctx: PrecisionContext) -> int:
    """Smallest n with |q|^n 20 digits below the working epsilon; a
    DomainError if that exceeds MAX_TERMS, or if Im z is 0 as a float."""
    h = 2 * math.pi * float(y)
    n_max = int((ctx.dps + 20) * math.log(10) / h) + 2 if h > 0 else math.inf
    if n_max > MAX_TERMS:
        raise DomainError(f"q-series at Im z = {mpmath.nstr(y, 3)} needs {n_max} terms, "
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


def _qsum_fixed(z: mpc, ctx: PrecisionContext, build, powers, imag=True) -> tuple:
    """(P, re, im): Re and Im of sum_n a(n) q^n / n^j, q = e^{2 pi i z}, for
    each j in ``powers`` (ascending), as unrounded Python ints scaled by 2^P,
    P the bits of the working dps + 5 bits per bit of n_max + _GUARD_BITS;
    a(1..n_max) from kept_table(build, n_max), cut off by _qseries_cutoff.
    The package's one loop over powers of q. q = expjpi(2z) at P + 10 bits
    (cospi and sinpi reduce 2 Re z mod 2 exactly) is exactly 1-periodic and
    exactly real at Re z in {0, +-1/2}. Lanes Re q^n and Im q^n follow
    x_{n+1} = T x_n - N x_{n-1} from (1, Re q) and (0, Im q), (T, N) =
    (2 Re q, |q|^2), or (q, 0) for real q; the Im lane is skipped, and reads
    0, for real q or ``imag`` false. Terms a(n) x_n are floored by n^j, then
    by n per unit step, as floor(floor(u / n^i) / n) = floor(u / n^(i+1)).
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
    n_max = _qseries_cutoff(z.imag, ctx)
    prec = libmp.dps_to_prec(ctx.dps) + 5 * n_max.bit_length() + _GUARD_BITS
    with mpmath.workprec(prec + 10):
        qr, qi = to_fixed(mpmath.expjpi(2 * z), prec)
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
    at least sqrt(3)/2. |v| within 10^-digits of 1 counts as on the circle,
    so rounding noise cannot bounce a boundary point between v and -1/v;
    the test is on |v|^2, which takes no square root. The caller holds
    ``ctx.working()``."""
    edge = (1 - ctx.tol) ** 2
    shift, inverted = 0, []
    for _ in range(MAX_TERMS):
        n = mpmath.nint(z.real)
        z -= n
        shift += int(n)
        x, y = z.real, z.imag
        if x * x + y * y >= edge:
            return z, shift, inverted
        inverted.append(z)
        z = -1 / z
    raise DomainError(f"SL(2, Z) reduction of {z} needs more than "
                      f"MAX_TERMS = {MAX_TERMS} steps")


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


def _uncancelled(total, size, what: str):
    """``total``, a sum of terms whose moduli add up to ``size``; DomainError
    where it cancels past the GUARD_DIGITS of the working precision."""
    if abs(total) > size / 10**GUARD_DIGITS:
        return total
    raise DomainError(f"{what} cancels past the {GUARD_DIGITS} guard digits: z is at a pole")


def _level(z: mpc, N: int, ctx: PrecisionContext) -> tuple:
    """(t, E2*(z), E2*(Nz)) from one _eta_e2_star pass at each of z and Nz,
    t = Q/s, Q = (eta(z)/eta(Nz))^(24/(N-1)), s = N^(6/(N-1)). Every Gamma0(N)
    quantity is rational in t, with no subtraction but its pole factor 1 + t:
    alpha_N = 1/(1 + t), 1 - alpha_N = t/(1 + t), xi = 1 - 2/(1 + t). eta has
    no zero, so t is never 0. DomainError where 1 + t cancels, at alpha_N's
    poles, as at 1/2+1/2*i (N = 2) and 1/2+1/6*sqrt(3)*i (N = 3), elliptic
    points of Gamma0(N). Call under ``ctx.working()``."""
    _check_level(N)
    (eta, e2), (eta_n, e2n) = (_eta_e2_star(v, ctx) for v in (z, N * z))
    t = (eta / eta_n) ** (24 // (N - 1)) / _ALPHA_SCALE[N]
    _uncancelled(1 + t, 1 + abs(t), f"alpha_{N}'s denominator 1 + Q/s")
    return t, e2, e2n


def alpha_n(z, N: int, ctx: PrecisionContext) -> mpc:
    """Level-N modular invariant alpha_N = 1/(1 + t) from the eta quotient
    t = (eta(z)/eta(Nz))^(24/(N-1)) / N^(6/(N-1)) of _level."""
    z = _as_mpc(z, ctx)
    with ctx.working():
        return 1 / (1 + _level(z, N, ctx)[0])


def series_constants_from_cm(z, N: int, ctx: PrecisionContext):
    """(2 xi, R_nu(xi), m) at z, all on ctx.bumped(), where a CMPoint is
    embedded too, from one pass of Euler's sums at each of z and Nz
    (_level): the eta quotient t and E2*(v) = E2(v) - 3 / (pi Im v).
    With alpha = alpha_N(z) = 1/(1 + t), xi = 1 - 2 alpha = 1 - 2/(1 + t) and
    m = s / (alpha (1 - alpha)) = s (1 + t)^2 / t, so 1 - alpha, which
    cancels near the cusp 0, is never formed. R_nu comes from
    the E2* form of Guillera & Rogers, "Ramanujan series upside-down", and
    Chan, Chan & Liu, "Domb's numbers and Ramanujan-Sato type series for 1/pi"
    (2004), in which the 1/(pi Im z) terms of E2 cancel; legendre_ramanujan_r
    is the oracle:

        R_nu = -(N-1)(E2*(z) + N E2*(Nz)) / (6 (N E2*(Nz) - E2*(z))) + (N+1)xi/6.

    DomainError where 1 + t or this denominator cancels (_uncancelled)."""
    wide = ctx.bumped()
    z = _as_mpc(z, wide)
    with wide.working():
        t, e2, e2n = _level(z, N, wide)
        xi = 1 - 2 / (1 + t)
        den = _uncancelled(N * e2n - e2, N * abs(e2n) + abs(e2), "N E2*(Nz) - E2*(z)")
        c2 = -(N - 1) * (e2 + N * e2n) / (6 * den) + (N + 1) * xi / 6
        return 2 * xi, c2, _ALPHA_SCALE[N] * (1 + t) ** 2 / t


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
    z = _as_mpc(z, ctx)
    with ctx.working():
        return _in_region(z, N, 1 - 2 / (1 + _level(z, N, ctx)[0]), ctx)


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
