"""Precision plumbing, exact quadratic arithmetic, and base constants."""

import dataclasses
import importlib
import math
import pkgutil
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import libmp, mp, mpc, mpf

from updownlab import (
    MixedRadicandError,
    PrecisionContext,
    QuadExpr,
    QuadraticNumber,
    embed_quadratic,
    zeta_int,
)
import updownlab
from updownlab import numerics, series
from updownlab.identities import load_tables
from updownlab.numerics import (KEPT_TERMS, DomainError, _is_squarefree, _square_part,
                                kept_table, trigamma)
from updownlab.series import SeriesFamily, UpsideDownSeries

from conftest import run_bounded
from oracles import (FractionQuadratic, embed_quad_expr_mpf, embed_quadratic_mpf,
                     trigamma_plan_bernfrac)


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


class TestMemoRegistry:
    # The root conftest.py empties the memos of computed values before every
    # test (VALUE_MEMOS) and keeps its plans and tables (KEPT_MEMOS). A memo
    # in neither list would carry state from test to test unnoticed.
    @staticmethod
    def _name(memo) -> str:
        return f"{memo.__module__}.{memo.__qualname__}"

    def test_every_memo_is_emptied_or_kept(self, cold_memos):
        lists = cold_memos.__globals__
        emptied = {self._name(m) for m in lists["VALUE_MEMOS"]}
        kept = {self._name(m) for m in lists["KEPT_MEMOS"]}
        found = set()
        for info in pkgutil.iter_modules(updownlab.__path__):
            module = importlib.import_module(f"updownlab.{info.name}")
            found |= {self._name(obj) for obj in vars(module).values()
                      if hasattr(obj, "cache_clear")}
        assert not emptied & kept
        assert sorted(found - emptied - kept) == []
        assert sorted((emptied | kept) - found) == []
        cold_memos()
        assert [m.cache_info().currsize for m in lists["VALUE_MEMOS"]] == [0] * len(emptied)


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


def _oracle(q: QuadraticNumber) -> FractionQuadratic:
    return FractionQuadratic(q.a, q.b, q.D)


def _fields(q):
    """Everything of a quadratic number that its users read."""
    return q.a, q.b, q.D, str(q), hash(q), bool(q), q.is_rational


# Working precisions of 10, 40 and 300 digits are 86, 186 and 1050 bits.
# Numerators and denominators are drawn narrower than all of them and wider
# than all of them, where mpf(numerator) rounds before the division.
_INTS = st.one_of(st.just(0), st.integers(-2**40, 2**40), st.integers(-2**1200, 2**1200))
_RATIONALS = st.builds(Fraction, _INTS, st.one_of(st.integers(1, 2**40),
                                                 st.integers(1, 2**1200)))
_RADICANDS = st.sampled_from([1, 2, 3, 5, 6, 7, 11, 13, 101])
_WIDE = 3**700
_EDGES = [  # a = 0, b = 0, opposite signs narrow and wide, a rational with D > 1
    (Fraction(0), Fraction(3, 7), 5), (Fraction(-5, 3), Fraction(0), 11),
    (Fraction(1121), Fraction(-338), 11), (Fraction(-_WIDE, 7), Fraction(_WIDE + 1, 3), 2),
    (Fraction(_WIDE, _WIDE + 2), Fraction(-1, _WIDE), 3),
]


class TestAgainstFractionOracle:
    """QuadraticNumber's integer arithmetic and raw-tuple embedding against
    oracles.FractionQuadratic, the Fraction-based form they replaced, and its
    embedding on mpf objects inside the working context: the same values,
    the same hash and text, and the same bits."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_RADICANDS, _RATIONALS, _RATIONALS, _RATIONALS, _RATIONALS, _RATIONALS,
           st.integers(0, 4))
    @example(5, Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(0), Fraction(7), 3)
    @example(11, Fraction(1121), Fraction(-338), Fraction(1121), Fraction(338), Fraction(1, 2), 4)
    def test_arithmetic(self, D, a, b, c, d, k, n):
        x, y = QuadraticNumber(a, b, D), QuadraticNumber(c, d, D)
        ox, oy = FractionQuadratic(a, b, D), FractionQuadratic(c, d, D)
        pairs = [(x, ox), (x + y, ox + oy), (x - y, ox - oy), (x * y, ox * oy),
                 (-x, -ox), (x.conjugate(), ox.conjugate()), (x**n, ox**n),
                 (x + k, ox + k), (k - x, k - ox), (x * k, ox * k), (x - 3, ox - 3),
                 (2 * x + 1, 2 * ox + 1)]
        pairs += [(x / y, ox / oy)] if y else []
        pairs += [(k / x, k / ox), (y / x, oy / ox)] if x else []
        for got, want in pairs:
            assert _fields(got) == _fields(want)
            assert got._den > 0 and math.gcd(got._p, got._r, got._den) == 1
        assert x.norm() == ox.norm() and type(x.norm()) is Fraction
        assert (x == y) == (ox == oy) and x == QuadraticNumber(a, b, D)
        assert (x == y) == (x.a == y.a and x.b == y.b)

    def test_mixed_radicands_and_zero_as_before(self):
        x, y = QuadraticNumber(1, 2, 3), QuadraticNumber(0, 1, 5)
        for op in (lambda u, v: u + v, lambda u, v: u * v, lambda u, v: u / v):
            with pytest.raises(MixedRadicandError):
                op(x, y)
            with pytest.raises(MixedRadicandError):
                op(_oracle(x), _oracle(y))
        with pytest.raises(ZeroDivisionError):
            x / 0
        with pytest.raises(TypeError):
            x + 0.5
        assert x != (1, 2, 3) and QuadraticNumber(3) != 3

    @pytest.mark.parametrize("digits", [10, 40, 300])
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_RADICANDS, _RATIONALS, _RATIONALS)
    def test_embedding_bit_for_bit(self, digits, D, a, b):
        ctx = PrecisionContext(digits)
        for q in [QuadraticNumber(a, b, D), *(QuadraticNumber(*e) for e in _EDGES)]:
            got = embed_quadratic(q, ctx)
            assert type(got) is mpf and got._mpf_ == embed_quadratic_mpf(_oracle(q), ctx)._mpf_

    @pytest.mark.parametrize("digits", [10, 40, 300])
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_RADICANDS, _RATIONALS, _RATIONALS)
    def test_embedding_within_its_ulps(self, digits, D, a, b):
        # Under 5 ulps when a and b share a sign, under 8 on the norm route,
        # against the value at enough bits to absorb the cancellation.
        q = QuadraticNumber(a, b, D)
        got = embed_quadratic(q, PrecisionContext(digits))
        if not got:
            assert not q
            return
        prec = libmp.dps_to_prec(digits + numerics.GUARD_DIGITS)
        bound = 5 if a * b >= 0 else 8
        extra = 2 * sum(abs(v).bit_length() for v in (q._p, q._r, q._den))
        with mpmath.workprec(prec + extra + 64):
            exact = mpf(q.a.numerator) / q.a.denominator \
                + mpf(q.b.numerator) / q.b.denominator * mpmath.sqrt(D)
            man, exp = got.man_exp
            ulp = mpmath.ldexp(1, exp + man.bit_length() - prec)
            assert abs(got - exact) < bound * ulp

    @pytest.mark.parametrize("digits", [10, 40, 100, 300, 1000,
                                        pytest.param(4000, marks=pytest.mark.highprec)])
    def test_every_corpus_and_table_value(self, digits, corpus, monkeypatch):
        # Weights, RHS coefficients, each grouped (c1, c2, m) as the series
        # loops receive it, and every table cell, on the contexts they are
        # embedded on. Grouping is checked exactly against Fraction sums.
        ctx, seen = PrecisionContext(digits), []

        def recorded(q, at):
            seen.append((q, at))
            return embed_quadratic(q, at)

        monkeypatch.setattr(series, "embed_quadratic", recorded)
        monkeypatch.setattr(series, "_sum_linear_series", lambda *args: (mpc(0), 0))
        for rec in corpus.identities:
            seen.clear()
            series.evaluate_series_sum(((t.weight, t.series) for t in rec.lhs), ctx)
            assert [_fields(q) for q, _ in seen] == [_fields(q) for q in _oracle_groups(rec)]
            seen += [(q, ctx) for q, _ in rec.rhs] + [(t.weight, ctx) for t in rec.lhs]
            for q, at in seen:
                assert embed_quadratic(q, at)._mpf_ == embed_quadratic_mpf(_oracle(q), at)._mpf_
        cells = [c for tab in load_tables() for row in tab["rows"] for c in row["cells"].values()]
        assert len(cells) == 42
        for cell in cells:
            want = embed_quad_expr_mpf(_oracle(cell.num), _oracle(cell.den), ctx)
            assert cell.embed(ctx)._mpf_ == want._mpf_


def _oracle_groups(record):
    """The (c1, c2, m) that ``evaluate_series_sum`` embeds for a record, summed
    in FractionQuadratic: every weighted part keyed by family and exact m."""
    groups = {}
    for term in record.lhs:
        s = term.series
        if isinstance(s, UpsideDownSeries):
            family, parts = s.family, [(s.a, s.b, s.m)]
        else:
            family, parts = SeriesFamily.CENTRAL3, series._fib_halves(s)
        for a, b, m in parts:
            c1, c2 = groups.get((family, _oracle(m)), (0, 0))
            w = _oracle(term.weight)
            groups[family, _oracle(m)] = (c1 + w * _oracle(a), c2 + w * _oracle(b))
    return [v for (_, m), (c1, c2) in groups.items() if c1 or c2 for v in (c1, c2, m)]


class TestSavedWork:
    def test_grouping_tests_no_radicand(self, corpus, monkeypatch):
        # Every corpus left-hand side is grouped with arithmetic alone: the
        # radicands were tested once, when the corpus was loaded.
        calls, square_part = [], numerics._square_part
        monkeypatch.setattr(numerics, "_square_part", lambda n: calls.append(n) or square_part(n))
        monkeypatch.setattr(series, "_sum_linear_series", lambda *args: (mpc(0), 0))
        ctx = PrecisionContext(10)
        for rec in corpus.identities:
            series.evaluate_series_sum(((t.weight, t.series) for t in rec.lhs), ctx)
        assert calls == []
        QuadraticNumber(1, 1, 5)
        assert calls == [5]

    def test_embedding_enters_no_context(self, context_spy):
        # No working context, and no write to mp.prec or mp.dps: the oracle,
        # which enters one, shows that the spies see it.
        ctx, q = PrecisionContext(300), QuadraticNumber(1121, -338, 11) ** 3
        embed_quadratic_mpf(_oracle(q), ctx)
        assert context_spy.writes
        context_spy.arm()
        before = mp.prec
        for value in (QuadraticNumber(Fraction(22, 7)), QuadraticNumber(1, 2, 5), q):
            embed_quadratic(value, ctx)
        QuadExpr(q, QuadraticNumber(0, 2, 2)).embed(ctx)
        assert (context_spy.writes, context_spy.entered, mp.prec) == ([], [], before)


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

    @pytest.mark.parametrize("dps", [35, 65, 325, pytest.param(1025, marks=pytest.mark.highprec)])
    def test_hurwitz_plan_within_its_ulps(self, dps):
        # Each Z_s = zeta(s, K + 1/2) of the moment plan within the 1.1 N + 1.5
        # ulps of 2^-P that its docstring counts, against mpmath's Hurwitz zeta
        # 20 digits higher; 65 dps is corpus-40's, 35 the least ctx.bumped().
        k, n, prec, zs = numerics._hurwitz_plan(dps)
        assert (k, 2 * len(zs) - 1, prec) == numerics._moment_order(dps)
        with mpmath.workdps(dps + 20):
            x, ulp = k + mpf(1) / 2, mpmath.ldexp(1, -prec)
            for i, z in enumerate(zs):
                err = abs(mpmath.ldexp(z, -prec) - mpmath.zeta(2 * i + 3, x))
                assert err < (1.1 * n + 1.5) * ulp, 2 * i + 3

    def test_hurwitz_plan_is_built_on_first_use(self):
        # Lazily: importing the package builds no plan; an odd L_d(2) on the
        # moments builds the moment plan of its precision and no trigamma
        # plan, which the cost rule counts without building.
        code = ("from updownlab import PrecisionContext, dirichlet_l2, numerics\n"
                "plans = (numerics._hurwitz_plan, numerics._trigamma_plan)\n"
                "print([p.cache_info().currsize for p in plans])\n"
                "dirichlet_l2(-116, PrecisionContext(40))\n"
                "print([p.cache_info().currsize for p in plans])")
        assert run_bounded("-c", code).stdout == "[0, 0]\n[1, 0]\n"

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
