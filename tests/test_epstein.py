"""Epstein zeta values: Fourier expansion vs lattice oracles, closed forms,
and the two-line coset-sum lemma."""

import mpmath
import pytest
from mpmath import mp, mpc, mpf

from updownlab import (
    PrecisionContext,
    dirichlet_l2,
    epstein_gamma0,
    epstein_sl2,
    epstein_sl2_bruteforce,
    zeta_int,
)
from updownlab.numerics import DomainError

from conftest import random_points


class TestClosedForms:
    def test_gaussian_point(self, ctx30):
        with ctx30.working():
            got = epstein_sl2(mpc(0, 1), ctx30)
            expected = 30 * dirichlet_l2(-4, ctx30) / mp.pi**2
            assert abs(got - expected) < ctx30.tol

    def test_disc_minus_seven_point(self, ctx30):
        with ctx30.working():
            z = mpc(mpf(1) / 2, mpmath.sqrt(7) / 2)
            got = epstein_sl2(z, ctx30)
            expected = 105 * dirichlet_l2(-7, ctx30) / (4 * mp.pi**2)
            assert abs(got - expected) < ctx30.tol

    def test_disc_minus_eight_point(self, ctx30):
        with ctx30.working():
            got = epstein_sl2(mpc(0, mpmath.sqrt(2)), ctx30)
            expected = 30 * dirichlet_l2(-8, ctx30) / mp.pi**2
            assert abs(got - expected) < ctx30.tol


class TestModularInvariance:
    def test_translation_and_inversion(self, ctx30):
        with ctx30.working():
            for z in random_points(4, seed=21):
                e = epstein_sl2(z, ctx30)
                assert abs(e - epstein_sl2(z + 1, ctx30)) < 10 * ctx30.tol
                assert abs(e - epstein_sl2(-1 / z, ctx30)) < 10 * ctx30.tol


class TestBruteForceOracle:
    def test_agreement_within_tail(self, ctx30):
        with ctx30.working():
            for z in random_points(5, seed=22, y_range=(0.8, 1.5)):
                exact = epstein_sl2(z, ctx30)
                approx = epstein_sl2_bruteforce(z, radius=150, ctx=ctx30)
                assert abs(exact - approx.value) < approx.tail

    def test_tail_shrinks_quadratically(self, ctx30):
        with ctx30.working():
            z = mpc(0, 1)
            exact = epstein_sl2(z, ctx30)
            err_small = abs(exact - epstein_sl2_bruteforce(z, 100, ctx30).value)
            err_large = abs(exact - epstein_sl2_bruteforce(z, 200, ctx30).value)
            # Doubling the radius should cut the error by about four.
            assert err_large < err_small / 2.5

    def test_minimum_radius_enforced(self, ctx30):
        with pytest.raises(DomainError):
            epstein_sl2_bruteforce(mpc(0, 1), 5, ctx30)


class TestGamma0:
    def test_identity_coset_dominates_at_large_height(self, ctx30):
        with ctx30.working():
            z = mpc("0.1", 200)
            got = epstein_gamma0(z, 2, ctx30, radius=100)
            # The non-identity cosets contribute O(1/y) in total.
            assert abs(got.value - z.imag**2) < mpf(1) / 100

    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_two_line_lemma(self, level, ctx30):
        # E_N(-1/(Nz)) - E_N(z) = [E(z) - E(Nz)] / (N^2 - 1).
        with ctx30.working():
            for z in random_points(2, seed=30 + level, y_range=(0.6, 1.0)):
                lhs_sum = epstein_gamma0(-1 / (level * z), level, ctx30)
                rhs_sum = epstein_gamma0(z, level, ctx30)
                lhs = lhs_sum.value - rhs_sum.value
                rhs = (epstein_sl2(z, ctx30)
                       - epstein_sl2(level * z, ctx30)) / (level**2 - 1)
                assert abs(lhs - rhs) < 2 * (lhs_sum.tail + rhs_sum.tail)

    def test_invalid_level(self, ctx30):
        with pytest.raises(DomainError):
            epstein_gamma0(mpc(0, 1), 1, ctx30)


class TestFourierExpansion:
    def test_against_cosine_loop_at_300_digits(self):
        # The Fourier expansion written out term by term, with a cosine per
        # term, mpmath's zeta(3), and sigma_3 by trial division.
        ctx = PrecisionContext(digits=300)
        z = mpc("0.3", "0.45")
        with ctx.working():
            x, y = z.real, z.imag
            q_abs = mpmath.exp(-2 * mp.pi * y)
            total = mpf(0)
            n = 0
            while True:
                n += 1
                sigma3 = sum(d**3 for d in range(1, n + 1) if n % d == 0)
                term = (mpf(sigma3) / n**2 * (1 + 1 / (2 * mp.pi * n * y))
                        * q_abs**n * mpmath.cos(2 * mp.pi * n * x))
                total += term
                if q_abs**n * sigma3 < ctx.eps / 10**5:
                    break
            expected = (y**2 + 45 * mpmath.zeta(3) / (mp.pi**3 * y)
                        + 180 / mp.pi**2 * total)
            assert abs(epstein_sl2(z, ctx) - expected) < ctx.tol

    def test_height_beyond_max_terms_rejected(self):
        # Im z = 1/1000 needs about 20000 q-series terms at 45 digits.
        ctx = PrecisionContext(digits=30, max_terms=1000)
        with pytest.raises(DomainError, match="max_terms"):
            epstein_sl2(mpc("0.1", "0.001"), ctx)


def test_precision_escalation():
    z = mpc("0.37", "1.21")
    lo = epstein_sl2(z, PrecisionContext(digits=30))
    hi = epstein_sl2(z, PrecisionContext(digits=45))
    assert abs(lo - hi) < mpf(10) ** -28
