"""Real-analytic Epstein/Eisenstein zeta values at s = 2.

The SL(2, Z) value is computed from the exponentially convergent Fourier
expansion (elementary K_{3/2} Bessel factors). One truncated float coset sum
is the independent low-precision oracle: at level 1 it is the SL(2, Z) sum,
and at levels 2, 3 and 4 it checks the two-line lattice lemma.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import NamedTuple

import mpmath
from mpmath import libmp, mp, mpf

from .numerics import DomainError, PrecisionContext, to_fixed, zeta_int
from .modular import _LEVELS, CMPoint, _as_mpc, _qsum_fixed, _reduce_sl2, _sigma3_table


class LatticeSum(NamedTuple):
    """Truncated lattice sum together with a certified tail bound."""

    value: mpf
    tail: mpf


@lru_cache(maxsize=16)
def _sl2_plan(prec: int) -> tuple:
    """(45 zeta(3) / pi^3, 180 / pi^2, 1 / (2 pi)) for epstein_sl2 as Python
    ints scaled by 2^prec, each truncated from a value good to prec + 10 bits:
    under 1 ulp. Memoized per prec, like numerics._trigamma_plan."""
    wide = PrecisionContext(libmp.prec_to_dps(prec + 10))
    with wide.working():
        consts = (45 * zeta_int(3, wide) / mp.pi**3, 180 / mp.pi**2, 1 / (2 * mp.pi))
    return tuple(to_fixed(c, prec)[0] for c in consts)


def epstein_sl2(z, ctx: PrecisionContext) -> mpf:
    """E(z, 2) summed over Im of the full modular orbit. E is SL(2, Z)
    invariant, so z is first reduced to the fundamental domain, where
    Im w >= sqrt(3)/2 and |q| < 0.0044, and then fed to the Fourier expansion

        E(w, 2) = y^2 + 45 zeta(3) / (pi^3 y) + (180/pi^2) (S_2 + S_3 / (2 pi y)),

    S_j = sum_n sigma_3(n) Re(q^n) / n^j, y = Im w, q = e^{2 pi i w}: the
    real lane of modular._qsum_fixed at its 24 guard bits, off by under
    8.1 (0.61 n_max (n_max + 1)) + n_max < 12 n_max^2 ulps of 2^-P. A CMPoint
    is reduced exactly, as an integer form (CMPoint.reduced); the kernel
    embeds the reduced point once, at P + 10 bits, for q, and y =
    floor(2^P sqrt|D| / (2A)), within 1 ulp, comes from the same form in
    integers. An mpc is reduced at the working precision (_reduce_sl2), and
    y = Im w is exact in P bits. In the same fixed point, with the plan's constants and each product or
    quotient within 1 ulp, 180/pi^2 < 18.3 and 1/(2 pi y) < 0.19, the finish
    is off by under 300 n_max^2 ulps, and by under 2y + 3 ulps more where y
    is within 1 ulp (a CMPoint): with the terms past n_max, under 2^-22 ulps
    of E >= max(3/4, y^2) (n_max >= 2). Rounded once, E is within
    1/2 + 2^-22 ulps of E(w, 2): correctly rounded unless E(w, 2) lies within
    2^-22 ulps of a rounding boundary. At a CMPoint, w is the exact reduced
    point, so that holds at the exact CM point; at an mpc, the reduction's
    own rounding, about one ulp of z per step, is not in the count.
    """
    if isinstance(z, CMPoint):
        w = z.reduced()
    else:
        with ctx.working():
            w = _reduce_sl2(_as_mpc(z, ctx), ctx)[0]
    prec, (s2, s3), _ = _qsum_fixed(w, ctx, _sigma3_table, (2, 3), imag=False)
    if isinstance(w, CMPoint):
        y = math.isqrt(-w.disc << 2 * prec) // (2 * w.A)  # Im of w.embed(P): floor(2^P Im w)
    else:
        y = to_fixed(w.imag, prec)[0]  # exact: Im w > 1/2 has under P bits past the point
    zeta3, scale, inv_2pi = _sl2_plan(prec)
    total = (y * y >> prec) + (zeta3 << prec) // y + (scale * (s2 + s3 * inv_2pi // y) >> prec)
    with ctx.working():
        return +mpmath.ldexp(total, -prec)


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


def epstein_gamma0(z, N: int, ctx: PrecisionContext, radius: int = 600) -> LatticeSum:
    """Level-N coset sum: y^2 / |c z + d|^4 over coprime (c, d) with N | c,
    taken up to sign, |c| <= N radius and |d| <= radius, in floats. N = 1
    is E(z, 2) itself, the oracle of epstein_sl2; N = 2, 3, 4 check the
    two-line lemma."""
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
