"""Precision plumbing, exact quadratic arithmetic, and base constants."""

import dataclasses
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from updownlab import (
    MixedRadicandError,
    PrecisionContext,
    QuadExpr,
    QuadraticNumber,
    embed_quadratic,
    zeta_int,
)
from updownlab import numerics
from updownlab.numerics import (KEPT_TERMS, DomainError, _is_squarefree, _square_part,
                                kept_table, trigamma)

from conftest import run_bounded
from oracles import trigamma_plan_bernfrac


class TestPrecisionContext:
    def test_defaults(self):
        ctx = PrecisionContext()
        assert ctx.digits == 40 and ctx.dps == 55

    def test_validation(self):
        with pytest.raises(ValueError):
            PrecisionContext(digits=5)
        with pytest.raises(TypeError):  # the guard is a constant, not a field
            PrecisionContext(guard=3)

    def test_eps_and_tol(self):
        ctx = PrecisionContext(digits=20)
        with ctx.working():
            assert ctx.eps == mpf(10) ** -35
            assert ctx.tol == mpf(10) ** -20

    def test_no_field_beyond_digits_and_max_terms(self):
        assert [f.name for f in dataclasses.fields(PrecisionContext)] == ["digits"]

    @pytest.mark.parametrize("digits", [10, 21, 300])
    def test_thresholds_computed_once(self, digits):
        ctx = PrecisionContext(digits=digits)
        expected = {"eps": digits + 15, "tol": digits,
                    "verdict_tol": digits - 5, "slack": digits // 2}
        for name, n in expected.items():
            assert getattr(ctx, name) is getattr(ctx, name), name
            with ctx.working():
                assert getattr(ctx, name) == mpf(10) ** -n, name

    def test_bumped(self):
        up = PrecisionContext(digits=25).bumped()
        assert up.digits == 35 and up.dps == 50

    def test_bumped_once_per_instance(self):
        # One context per instance, so its cached thresholds are built once.
        ctx = PrecisionContext(digits=25)
        assert ctx.bumped() is ctx.bumped()
        assert ctx.bumped().tol is ctx.bumped().tol

    def test_working_scope(self):
        ctx = PrecisionContext(digits=60)
        before = mpmath.mp.dps
        with ctx.working():
            assert mpmath.mp.dps == 75
        assert mpmath.mp.dps == before


class TestKeptTable:
    @pytest.fixture
    def build(self, monkeypatch):
        """A builder of the table 0..size that records each size it builds,
        on an empty set of kept tables."""
        monkeypatch.setattr(numerics, "_kept", {})

        def build(size):
            build.sizes.append(size)
            return tuple(range(size + 1))

        build.sizes = []
        return build

    def test_reused_until_passed_then_doubled(self, build):
        first = kept_table(build, 100)
        assert kept_table(build, 100) is first and kept_table(build, 7) is first
        assert build.sizes == [100]
        assert kept_table(build, 101) == tuple(range(201))
        assert kept_table(build, 1000) == tuple(range(1001))
        assert build.sizes == [100, 200, 1000]

    def test_growth_stops_at_the_bound(self, build):
        kept_table(build, KEPT_TERMS - 1)
        top = kept_table(build, KEPT_TERMS)
        assert kept_table(build, KEPT_TERMS) is top
        assert build.sizes == [KEPT_TERMS - 1, KEPT_TERMS]

    def test_past_the_bound_a_table_of_its_own(self, build):
        kept = kept_table(build, 50)
        long = kept_table(build, KEPT_TERMS + 1)
        assert long == tuple(range(KEPT_TERMS + 2))
        assert kept_table(build, KEPT_TERMS + 1) is not long
        assert kept_table(build, 50) is kept
        assert build.sizes == [50, KEPT_TERMS + 1, KEPT_TERMS + 1]
        assert numerics._kept == {build: (50, kept)}


class TestSquarePart:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 10**6 - 1))
    def test_square_times_squarefree(self, n):
        s, r = _square_part(n)
        assert s * s * r == n
        assert all(r % (f * f) for f in range(2, math.isqrt(r) + 1))

    @pytest.mark.parametrize("n, parts", [
        (9973**2 * 10007, (9973, 10007)),    # the last prime below 10^4
        (999983**2 * 7, (999983, 7)),        # p^2 split by the isqrt test
        (10007 * 10009, (1, 10007 * 10009)),  # p q, both beyond trial division
        (-4 * 10007**2, (2 * 10007, 1)),
    ])
    def test_near_the_trial_bound(self, n, parts):
        assert _square_part(n) == parts

    def test_squarefree_test_bounded(self):
        assert not _is_squarefree(10**12 - 1)  # 3^3 7 11 13 37 101 9901
        assert not _is_squarefree(0)
        with pytest.raises(DomainError, match="10\\^12"):
            _is_squarefree(-10**12)


class TestQuadraticNumber:
    def test_normalization(self):
        assert QuadraticNumber(3, 0, 7).D == 1
        q = QuadraticNumber(2, 5, 1)  # sqrt(1) folds into the rational part
        assert q.a == 7 and q.b == 0

    def test_rejects_non_squarefree(self):
        with pytest.raises(ValueError):
            QuadraticNumber(1, 1, 12)
        with pytest.raises(ValueError):
            QuadraticNumber(1, 1, 0)

    def test_large_radicand_rejected_at_once(self):
        # A prime radicand near 10^18 is past the squarefree test's 10^12
        # bound: a ValueError within the child's time limit, not a hang.
        code = ("from updownlab import QuadraticNumber\n"
                "try:\n    QuadraticNumber(0, 1, 10**18 + 3)\n"
                "except ValueError as exc:\n    print(type(exc).__name__)")
        assert run_bounded("-c", code).stdout == "DomainError\n"

    def test_field_axioms_exact(self):
        p = QuadraticNumber(Fraction(1, 3), Fraction(-2, 5), 7)
        q = QuadraticNumber(4, Fraction(1, 2), 7)
        assert (p + q) - q == p
        assert (p * q) / q == p
        assert p * (q + 1) == p * q + p
        assert (p / q) * q == p

    def test_norm_and_conjugate(self):
        q = QuadraticNumber(3, 2, 5)
        assert q.norm() == 9 - 4 * 5
        assert (q * q.conjugate()).a == q.norm()
        assert (q * q.conjugate()).b == 0

    def test_mixed_radicand_rejected(self):
        with pytest.raises(MixedRadicandError):
            QuadraticNumber(0, 1, 2) + QuadraticNumber(0, 1, 3)

    def test_mixing_with_rationals_allowed(self):
        q = QuadraticNumber(0, 1, 2) + Fraction(1, 2)
        assert q == QuadraticNumber(Fraction(1, 2), 1, 2)
        assert 3 * QuadraticNumber(1, 1, 2) == QuadraticNumber(3, 3, 2)

    def test_pow_matches_repeated_multiplication(self):
        q = QuadraticNumber(2, -1, 11)
        by_mul = QuadraticNumber(1)
        for _ in range(6):
            by_mul = by_mul * q
        assert q**6 == by_mul
        assert q**0 == QuadraticNumber(1)
        with pytest.raises(ValueError):
            q ** (-1)

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            QuadraticNumber(1) / QuadraticNumber(0)

    def test_bool_and_str(self):
        assert not QuadraticNumber(0)
        assert QuadraticNumber(0, 1, 2)
        assert str(QuadraticNumber(Fraction(1, 2))) == "1/2"
        assert "sqrt(5)" in str(QuadraticNumber(1, 1, 5))


class TestEmbedQuadratic:
    def test_against_mpmath(self, ctx40):
        q = QuadraticNumber(Fraction(1, 3), Fraction(-2, 7), 13)
        with ctx40.working():
            expected = mpf(1) / 3 - mpf(2) / 7 * mpmath.sqrt(13)
            assert abs(embed_quadratic(q, ctx40) - expected) < ctx40.tol

    @pytest.mark.parametrize("k", [4, 12, 22, 40])
    def test_catastrophic_cancellation(self, k, ctx40):
        # (1121 - 338*sqrt(11))^k: the components grow like 2242^k while the
        # value shrinks like 0.019^k, so a + b*sqrt(D) evaluated as written
        # loses about 5 k digits, more than the working 55 from k = 11 on.
        q = QuadraticNumber(1121, -338, 11) ** k
        with mpmath.workdps(120):
            expected = (1121 - 338 * mpmath.sqrt(11)) ** k
        got = embed_quadratic(q, ctx40)
        assert abs(got - expected) / abs(expected) < mpf(10) ** -50

    def test_exact_rational_fast_path(self, ctx40):
        with ctx40.working():
            assert embed_quadratic(QuadraticNumber(Fraction(22, 7)), ctx40) \
                == mpf(22) / 7

    def test_quad_expr(self, ctx40):
        e = QuadExpr(QuadraticNumber(3, 1, 7), QuadraticNumber(0, 2, 2))
        with ctx40.working():
            expected = (3 + mpmath.sqrt(7)) / (2 * mpmath.sqrt(2))
            assert abs(e.embed(ctx40) - expected) < ctx40.tol

    def test_quad_expr_zero_denominator(self, ctx40):
        with pytest.raises(ZeroDivisionError):
            QuadExpr(QuadraticNumber(1), QuadraticNumber(0)).embed(ctx40)


class TestZetaAndTrigamma:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_zeta_against_mpmath(self, n, ctx40):
        with ctx40.working():
            assert abs(zeta_int(n, ctx40) - mpmath.zeta(n)) < ctx40.tol

    def test_zeta3_at_300_digits(self):
        ctx = PrecisionContext(digits=300)
        value = zeta_int(3, ctx)
        with mpmath.workdps(ctx.dps + 20):
            assert abs(value - mpmath.zeta(3)) < ctx.eps

    def test_zeta_rejects_other_orders(self, ctx40):
        with pytest.raises(DomainError):
            zeta_int(5, ctx40)

    @pytest.mark.parametrize("x, digits", [
        pytest.param(x, digits, id=f"x{i}" if digits == 40 else f"x{i}-{digits}")
        for digits in (40, 300, 1000)
        for i, x in enumerate([Fraction(1), Fraction(1, 2), Fraction(1, 3),
                               Fraction(5, 7), Fraction(11, 12),
                               Fraction(1, 116), Fraction(115, 116)])
    ])
    def test_trigamma_against_mpmath(self, x, digits):
        # The kernel's a-priori bound: relative error below 10^-dps. 1/116
        # and 115/116 are the largest psi' and the longest tail in the corpus.
        ctx = PrecisionContext(digits=digits)
        value = trigamma(x, ctx)
        with mpmath.workdps(ctx.dps + 20):
            expected = mpmath.polygamma(1, mpf(x.numerator) / x.denominator)
            assert abs(value - expected) < ctx.eps * expected

    @pytest.mark.parametrize("dps", [55, 1015, 2015,
                                     pytest.param(4015, marks=pytest.mark.highprec)])
    def test_plan_from_tangent_numbers_matches_bernfrac(self, dps):
        # N, P and every scaled Bernoulli number, bit for bit: the plan of
        # 40, 1000, 2000 and 4000 digits against the one from mpmath's bernfrac.
        assert numerics._trigamma_plan(dps) == trigamma_plan_bernfrac(dps)

    def test_trigamma_domain(self, ctx40):
        with pytest.raises(DomainError):
            trigamma(Fraction(3, 2), ctx40)
        with pytest.raises(DomainError):
            trigamma(Fraction(0), ctx40)
        with pytest.raises(DomainError):
            trigamma(0, ctx40)

    def test_trigamma_takes_only_exact_rationals(self, ctx40):
        assert trigamma(1, ctx40) == trigamma(Fraction(1), ctx40)
        with ctx40.working():
            for x in (mpf(1) / 2, 0.5):
                with pytest.raises(TypeError):
                    trigamma(x, ctx40)
