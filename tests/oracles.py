"""Reference implementations that only the tests use: each computes a
library value by an independent route, so a test can compare the two."""

import math
from typing import Tuple

import mpmath
from mpmath import mp, mpc, mpf

from updownlab.modular import _check_nu, _frac_mpf, _off_branch_point
from updownlab.numerics import DomainError, PrecisionContext


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
