"""Reference implementations that only the tests use: each computes a
library value by an independent route, so a test can compare the two."""

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
