"""Reference implementations that only the tests use: each computes a
library value by an independent route, so a test can compare the two."""

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Tuple

import mpmath
from mpmath import libmp, mp, mpc, mpf

from updownlab import epstein, modular
from updownlab.modular import (_LEVELS, CMPoint, _as_mpc, _check_nu, _frac_mpf,
                               _off_branch_point, _qsum_loop, _sigma3_table)
from updownlab.numerics import (DomainError, MixedRadicandError, PrecisionContext, RationalLike,
                                _as_fraction, _is_squarefree, to_fixed)


def legendre_p_quadrature(nu, t, ctx: PrecisionContext) -> mpc:
    """Oracle for ``modular.legendre_p``: direct quadrature of the defining
    integral -sin(nu pi)/pi int_0^1 [X(1-tX)/(1-X)]^nu dX/(1-X).

    On the cut (1, oo) the base is negative for X > 1/t, and its principal
    power is the limit from Im t -> 0-, the same side as legendre_p.
    """
    nu = _check_nu(nu)
    with ctx.working():
        t = _off_branch_point(t)
        nv = _frac_mpf(nu)

        def integrand(X):
            return (X * (1 - t * X) / (1 - X)) ** nv / (1 - X)

        points = [mpf(0), mpf(1)]
        if abs(t) > 1:
            x0 = (1 / t).real
            if 0 < x0 < 1:
                points = [mpf(0), x0, mpf(1)]
        val = mpmath.quad(integrand, points)
        return -mpmath.sinpi(nv) / mp.pi * val


def epstein_fourier_reference(z, dps: int) -> mpf:
    """Oracle for ``epstein.epstein_sl2``: E(z, 2) from the Fourier expansion
    at z itself, unreduced, summed term by term in mpf at ``dps`` digits with
    mpmath's zeta(3) and sigma_3 by a sieve of its own."""
    with mpmath.workdps(dps):
        x, y = z.real, z.imag
        q = mpmath.exp(2j * mp.pi * z)
        eps = mpf(10) ** (-dps - 5)
        n_max = int((dps + 20) * math.log(10) / (2 * math.pi * float(y))) + 2
        sigma3 = [0] * (n_max + 1)
        for d in range(1, n_max + 1):
            for m in range(d, n_max + 1, d):
                sigma3[m] += d**3
        total = mpc(0)
        qn = mpc(1)
        for n in range(1, n_max + 1):
            qn *= q
            total += mpf(sigma3[n]) / n**2 * (1 + 1 / (2 * mp.pi * n * y)) * qn
        assert abs(qn) * sigma3[n_max] < eps
        return y**2 + 45 * mpmath.zeta(3) / (mp.pi**3 * y) + 180 / mp.pi**2 * total.real


class LatticeSum(NamedTuple):
    """Truncated lattice sum together with a certified tail bound."""

    value: mpf
    tail: mpf


# |c z + d| must stay below this for |c z + d|^4 to be a finite float.
_FLOAT_REACH = sys.float_info.max ** 0.25


def _float_point(z, n_scale: int, radius: int):
    """(x, y, lam) of z in floats for a sum over |c| <= n_scale radius,
    |d| <= radius, with lam = 2 det / (tr + sqrt(tr^2 - 4 det)), free of
    cancellation, the smallest eigenvalue of the form |(n_scale c) z + d|^2
    in (c, d). Raises DomainError at heights floats cannot hold: where the
    largest |c z + d|^4 overflows, or where 1/lam^2, the bound on every
    term 1/|c z + d|^4 and so on the tail, does (lam <= _FLOAT_REACH^-2),
    and for radius < 10."""
    if radius < 10:
        raise DomainError(f"radius must be >= 10, got {radius}")
    x, y = float(z.real), float(z.imag)
    n2 = n_scale * n_scale
    tr = n2 * (x * x + y * y) + 1.0
    det = n2 * y * y
    lam = 2 * det / (tr + math.sqrt(tr * tr - 4 * det))
    if not (lam > _FLOAT_REACH**-2
            and n_scale * radius * math.hypot(x, y) + radius < _FLOAT_REACH):
        raise DomainError(f"Im z = {mpmath.nstr(z.imag, 5)} is beyond the range "
                          "of the float lattice sum")
    return x, y, lam


def gamma0_lattice_sum(z, N: int, ctx: PrecisionContext, radius: int = 600) -> LatticeSum:
    """Oracle for ``epstein.epstein_gamma0`` and, at N = 1, ``epstein_sl2``:
    the level-N coset sum y^2 / |c z + d|^4 over coprime (c, d) with N | c,
    taken up to sign, |c| <= N radius and |d| <= radius, in floats. N = 1
    is E(z, 2) itself; at N = 2, 3, 4 it checks the closed form and the
    two-line lemma, which the closed form satisfies identically."""
    if N not in (1, *_LEVELS):
        raise DomainError(f"level must be in {(1, *_LEVELS)}, got {N}")
    z = _as_mpc(z, ctx)
    with ctx.working():
        x, y, lam = _float_point(z, N, radius)
        # The c = 0 cosets reduce to (0, 1) and contribute y^2, added below.
        total = 0.0
        for k in range(1, radius + 1):
            c = N * k
            cx, cy2 = c * x, (c * y) ** 2
            for d in range(-radius, radius + 1):
                if math.gcd(c, d) == 1:
                    u = cx + d
                    u = u * u + cy2
                    total += 1.0 / (u * u)
        value = mpf(y) ** 2 + mpf(y * y * total)
        tail = mpf(4.0 * y * y / (lam * lam * radius * radius))
        return LatticeSum(value, tail)


def fibonacci_lucas(n: int) -> Tuple[int, int]:
    """(F_n, L_n) by fast doubling; exact integers. The reference for the
    Binet split of a FibLucasSeries."""
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


def trigamma_plan_bernfrac(dps: int):
    """numerics._trigamma_plan with its Bernoulli numbers from mpmath's
    ``bernfrac``, searched up to order dps: the reference the tangent-number
    plan must match bit for bit."""
    n = int(0.7 * dps)
    coeffs = []
    for k in range(1, dps + 1):
        p, q = mpmath.bernfrac(2 * k)
        if abs(p) * 10 ** (dps + 1) < q * n ** (2 * k + 1):
            prec = libmp.dps_to_prec(dps) + (n + len(coeffs) + 4).bit_length() + 4
            return n, prec, tuple((b << prec) // c for b, c in reversed(coeffs))
        coeffs.append((p, q))
    raise RuntimeError(f"no Euler-Maclaurin order reaches 10^-{dps} with N = {n}")


@dataclass(frozen=True)
class FractionQuadratic:
    """Oracle for ``numerics.QuadraticNumber``: exact a + b*sqrt(D) with
    Fraction a, b and squarefree D >= 1, each result built by the public
    constructor, which tests D again.

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

    def _coerce(self, other) -> "FractionQuadratic":
        if isinstance(other, FractionQuadratic):
            return other
        if isinstance(other, (int, Fraction)):
            return FractionQuadratic(other)
        return NotImplemented

    def _common_d(self, other: "FractionQuadratic") -> int:
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
        return FractionQuadratic(self.a + other.a, self.b + other.b, D)

    __radd__ = __add__

    def __neg__(self):
        return FractionQuadratic(-self.a, -self.b, self.D)

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
        return FractionQuadratic(
            self.a * other.a + self.b * other.b * D,
            self.a * other.b + self.b * other.a,
            D,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "FractionQuadratic":
        return FractionQuadratic(self.a, -self.b, self.D)

    def norm(self) -> Fraction:
        return self.a * self.a - self.b * self.b * self.D

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero quadratic number")
        return self * other.conjugate() * FractionQuadratic(Fraction(1, 1) / n)

    def __rtruediv__(self, other):
        return FractionQuadratic(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = FractionQuadratic(1)
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


def embed_quadratic_mpf(q: FractionQuadratic, ctx: PrecisionContext) -> mpf:
    """Oracle for ``numerics.embed_quadratic``: the same rounding sequence on
    mpf objects inside ctx's working context. It evaluates a + b*sqrt(D) with
    the positive square root.

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


def embed_quad_expr_mpf(num: FractionQuadratic, den: FractionQuadratic,
                        ctx: PrecisionContext) -> mpf:
    """Oracle for ``numerics.QuadExpr.embed``: the quotient of the two
    mpf-path embeddings, rounded in ctx's working context."""
    with ctx.working():
        return embed_quadratic_mpf(num, ctx) / embed_quadratic_mpf(den, ctx)


def to_point_mpf(p: CMPoint, ctx: PrecisionContext) -> mpc:
    """Oracle for ``modular.CMPoint.to_point``: the point built from mpf
    objects inside ctx's working context."""
    with ctx.working():
        return mpc(mpf(-p.B) / (2 * p.A), mpmath.sqrt(mpf(-p.disc)) / (2 * p.A))


def reduce_sl2_mpf(z: mpc, ctx: PrecisionContext) -> tuple:
    """Oracle for ``modular._reduce_sl2``: (w, shift, inverted) from the
    translations v - nint(Re v) and inversions -1/v on mpc objects inside
    ctx's working context, with |v|^2 tested against (1 - tol)^2."""
    with ctx.working():
        edge = (1 - ctx.tol) ** 2
        shift, inverted = 0, []
        while True:
            n = mpmath.nint(z.real)
            z -= n
            shift += int(n)
            x, y = z.real, z.imag
            if x * x + y * y >= edge:
                return z, shift, inverted
            inverted.append(z)
            z = -1 / z


def eta_e2_star(z: mpc, ctx: PrecisionContext) -> tuple:
    """Oracle for ``modular.dedekind_eta`` and the E2* of
    ``modular._eta_squared_e2_star``: (eta(z), E2*(z)) from one mpc
    reduction (``modular._reduce_sl2``) and one pass of Euler's sums s = P - 1
    and M1 at the reduced point w, carried back over the k points
    ``inverted`` on mpc objects inside ctx's working context, one square
    root per inverted point: eta(z) = e^{pi i (w + shift + 3k) / 12} P /
    prod_v sqrt(v), shift + 3k taken mod 24, and E2*(z) =
    (1 + 24 M1 / P - 3 / (pi Im w)) / prod_v v^2."""
    with ctx.working():
        w, shift, inverted = modular._reduce_sl2(z, ctx)
        m1, s = modular._qsum(w, ctx, modular._pentagonal_table, (1, 2))
        eta = mpmath.expjpi((w + (shift + 3 * len(inverted)) % 24) / 12) * (1 + s)
        e2 = 1 + 24 * m1 / (1 + s) - 3 / (mp.pi * w.imag)
        for v in inverted:
            eta /= mpmath.sqrt(v)
            e2 /= v * v
        return eta, e2


def level_eta_e2_star(z: mpc, N: int, ctx: PrecisionContext) -> tuple:
    """Oracle for ``modular._level``: (t, E2*(z), E2*(Nz)) from
    ``eta_e2_star`` at z and at the product N z, each eta with its
    multiplier e^{pi i (w + shift + 3k) / 12} and its square roots, and
    t = (eta(z)/eta(Nz))^(24/(N-1)) / N^(6/(N-1)) on mpc objects inside
    ctx's working context."""
    with ctx.working():
        (eta, e2), (eta_n, e2n) = (eta_e2_star(v, ctx) for v in (z, N * z))
        return (eta / eta_n) ** (24 // (N - 1)) / modular._ALPHA_SCALE[N], e2, e2n


def _embed(p: CMPoint, bits: int) -> mpc:
    """The point ``CMPoint.fixed(bits)`` as an mpc, each part exact."""
    re, im = p.fixed(bits)
    return mp.make_mpc((libmp.from_man_exp(re, -bits), libmp.from_man_exp(im, -bits)))


def epstein_sl2_mpf(z, ctx: PrecisionContext) -> mpf:
    """Oracle for ``epstein.epstein_sl2`` on its mpf layer: a CMPoint
    reduced as a form and embedded from ``CMPoint.fixed``, an mpc reduced by
    ``reduce_sl2_mpf``; the cutoff from float(Im w) of an mpf; q from
    mpmath.expjpi on an mpc inside workprec; the library's integer loop
    (``modular._qsum_loop``) and finish; the total rounded by ldexp inside
    ctx's working context."""
    cm = isinstance(z, CMPoint)
    if cm:
        w = z.reduced()
        height = _embed(w, 53).imag
    else:
        with ctx.working():
            w = reduce_sl2_mpf(_as_mpc(z, ctx), ctx)[0]
        height = w.imag
    n_max = int((ctx.dps + 20) * math.log(10) / (2 * math.pi * float(height))) + 2
    prec = libmp.dps_to_prec(ctx.dps) + 5 * n_max.bit_length() + modular._GUARD_BITS
    with mpmath.workprec(prec + 10):
        qr, qi = to_fixed(mpmath.expjpi(2 * (_embed(w, prec + 10) if cm else w)), prec)
    _, (s2, s3), _ = _qsum_loop((prec, n_max, qr, qi, None), _sigma3_table, (2, 3), imag=False)
    if cm:
        y = math.isqrt(-w.disc << 2 * prec) // (2 * w.A)
    else:
        y = to_fixed(w.imag, prec)[0]
    zeta3, scale, inv_2pi = epstein._sl2_plan(prec)
    total = (y * y >> prec) + (zeta3 << prec) // y + (scale * (s2 + s3 * inv_2pi // y) >> prec)
    with ctx.working():
        return +mpmath.ldexp(total, -prec)
