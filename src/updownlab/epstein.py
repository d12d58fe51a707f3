"""Real-analytic Epstein/Eisenstein zeta values at s = 2.

The SL(2, Z) value is computed from the exponentially convergent Fourier
expansion (elementary K_{3/2} Bessel factors); the Gamma0(N) coset sums are
closed forms in it.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath
from mpmath import libmp, mp, mpc, mpf

from .numerics import _NEAREST, DomainError, PrecisionContext, to_fixed, zeta_int
from .modular import (CMPoint, _as_mpc, _check_level, _q_fixed, _qsum_loop, _reduce_sl2,
                      _sigma3_table)


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
    real lane of modular._qsum_loop at its 24 guard bits, off by under
    8.1 (0.61 n_max (n_max + 1)) + n_max < 12 n_max^2 ulps of 2^-P. A CMPoint
    is reduced exactly, as an integer form (CMPoint.reduced); the reduced
    point is taken in fixed point once, at P + 10 bits, for q, and y =
    floor(2^P sqrt|D| / (2A)), within 1 ulp, comes from the same integer
    square root (modular._q_fixed). An mpc is reduced at the working
    precision (_reduce_sl2), and y = Im w is exact in P bits. In the same
    fixed point, with the plan's constants and each product or
    quotient within 1 ulp, 180/pi^2 < 18.3 and 1/(2 pi y) < 0.19, the finish
    is off by under 300 n_max^2 ulps, and by under 2y + 3 ulps more where y
    is within 1 ulp (a CMPoint): with the terms past n_max, under 2^-22 ulps
    of E >= max(3/4, y^2) (n_max >= 2). Rounded once, E is within
    1/2 + 2^-22 ulps of E(w, 2): correctly rounded unless E(w, 2) lies within
    2^-22 ulps of a rounding boundary. At a CMPoint, w is the exact reduced
    point, so that holds at the exact CM point; at an mpc, the reduction's
    own rounding, about one ulp of z per step, is not in the count.

    From the point to the rounded value the work is on raw tuples and
    Python ints, bit for bit the steps mpmath runs on mpf and mpc objects
    under ctx.working(), and no context is entered: the reduction, q and
    the finish, rounded once to nearest by from_man_exp. The exceptions are
    a z that is neither a CMPoint nor an mpc, made an mpc under
    ctx.working(), and the plan's constants, built once per precision.
    """
    if isinstance(z, CMPoint):
        w = z.reduced()
    else:
        if not isinstance(z, mpc):  # a float, int or string, taken at the working precision
            with ctx.working():
                z = mpc(z)
        w = _reduce_sl2(_as_mpc(z, ctx), ctx)[0]
    q = _q_fixed(w, ctx)
    prec, (s2, s3), _ = _qsum_loop(q, _sigma3_table, (2, 3), imag=False)
    y = q[4]
    zeta3, scale, inv_2pi = _sl2_plan(prec)
    total = (y * y >> prec) + (zeta3 << prec) // y + (scale * (s2 + s3 * inv_2pi // y) >> prec)
    return mp.make_mpf(libmp.from_man_exp(total, -prec, libmp.dps_to_prec(ctx.dps), _NEAREST))


# G_N = sum a E(m z, 2) / den over (m, a) in pairs: N -> (pairs, den).
_SPLITS = {2: (((2, 4), (1, -1)), 15), 3: (((3, 9), (1, -1)), 80), 4: (((4, 4), (2, -1)), 60)}
MAX_EXTRA_DIGITS = 2000  # the most digits of cancellation epstein_gamma0 pays for


def epstein_gamma0(z, N: int, ctx: PrecisionContext) -> mpf:
    """G_N(z) = sum y^2 / |c z + d|^4 over coprime (c, d), N | c, up to sign:
    the Eisenstein series of Gamma0(N), N in _LEVELS, at the cusp oo. Split by
    gcd (Diamond & Shurman, section 4.2), G_p = (p^2 E(pz, 2) - E(z, 2)) /
    (p^4 - 1) for p = 2, 3 and G_4(z) = G_2(2z) / 4 = (4 E(4z, 2) - E(2z, 2)) / 60,
    E by epstein_sl2 at m z (exact for a CMPoint: CMPoint.scaled). The terms
    cancel near the cusps, by at most log10 sum |a| 4 h_m^2 / (den y^2) digits,
    h_m = max(m y, 1/(m y)): G_N >= y^2 (the identity coset), and E(v, 2) =
    E(w, 2) < 4 Im(w)^2 <= 4 h^2 at the reduced point w of v, as Im w = Im v /
    |c v + d|^2 <= max(Im v, 1/Im v) and, for Im w >= sqrt(3)/2, |q| < 0.00434
    and S_j <= zeta(3) |q| / (1 - |q|)^2 < 0.00526, E / Im(w)^2 < 1 + 1.745 /
    0.6495 + 18.24 (1.184) 0.00526 / 0.75 < 3.84. The E values are summed that
    many digits past ctx.dps, plus guard digits, and rounded once at ctx: at a
    CMPoint correctly, unless within ~10^-14 ulps of a boundary. A point that
    needs over MAX_EXTRA_DIGITS = 2000 raises DomainError before any E is summed."""
    _check_level(N)
    pairs, den = _SPLITS[N]
    cm = isinstance(z, CMPoint)
    z = z if cm else _as_mpc(z, ctx)
    with mpmath.workprec(53):
        y = mpmath.sqrt(-z.disc) / (2 * z.A) if cm else +z.imag
        size = sum(abs(a) * 4 * max(m * y, 1 / (m * y)) ** 2 for m, a in pairs)
        extra = max(0, int(mpmath.ceil(mpmath.log10(size / (den * y * y)))))
    if extra > MAX_EXTRA_DIGITS:
        raise DomainError(f"G_{N} at Im z = {mpmath.nstr(y, 3)} may cancel {extra} digits, "
                          f"past MAX_EXTRA_DIGITS = {MAX_EXTRA_DIGITS}")
    wide = PrecisionContext(ctx.dps + extra)
    with wide.working():
        total = sum(a * epstein_sl2(z.scaled(m) if cm else m * z, wide) for m, a in pairs)
    with ctx.working():
        return total / den
