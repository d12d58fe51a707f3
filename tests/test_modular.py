"""Modular q-series machinery and Legendre-type special functions."""

import json
import math
import random
from fractions import Fraction
from importlib import resources

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from updownlab import (
    CMPoint,
    PrecisionContext,
    alpha_n,
    dedekind_eta,
    eichler_e4_tilde,
    eisenstein_e4,
    epstein_gamma0,
    epstein_sl2,
    j_invariant,
    legendre_ramanujan_r,
    re_eichler_closed_form,
    reflection_residual,
    satisfies_region,
    series_constants_from_cm,
)
from updownlab import cli, modular, numerics
from updownlab.identities import check_table, load_tables
from updownlab.modular import (
    _eta_e2_star, _eta_squared_e2_star, _pentagonal_table, _qsum, _r_direct, _reduce_sl2,
    _sigma3_table, legendre_p, legendre_p_dt)
from updownlab.numerics import KEPT_TERMS, DomainError, kept_table

from conftest import random_points, run_bounded, sigma1_table
from oracles import (epstein_fourier_reference, legendre_p_quadrature, level_eta_e2_star,
                     reduce_sl2_mpf, to_point_mpf)


@st.composite
def primitive_forms(draw):
    """A primitive positive-definite form (A, B, C) as a CMPoint."""
    a = draw(st.integers(1, 40))
    b = draw(st.integers(-40, 40))
    c = b * b // (4 * a) + draw(st.integers(1, 40))
    assume(math.gcd(a, b, c) == 1)
    return CMPoint(a, b, c)


class TestCMPoint:
    def test_from_string_forms(self):
        assert CMPoint.from_string("i") == CMPoint(1, 0, 1)
        assert CMPoint.from_string("2*i") == CMPoint(1, 0, 4)
        assert CMPoint.from_string("sqrt(2)*i") == CMPoint(1, 0, 2)
        assert CMPoint.from_string("1/2+1/2*sqrt(7)*i") == CMPoint(1, -1, 2)
        assert CMPoint.from_string("-1/8+1/8*sqrt(15)*i") == CMPoint(4, 1, 1)

    @pytest.mark.parametrize("text, point", [
        ("1/2+i", CMPoint(4, -4, 5)),
        ("1/2+3*i", CMPoint(4, -4, 37)),
        ("-1/2+sqrt(3)*i", CMPoint(4, 4, 13)),
    ])
    def test_real_part_with_short_imaginary_part(self, text, point):
        # A real part may precede any of the imaginary forms "i", "RAT*i"
        # and "sqrt(INT)*i", not only "RAT*sqrt(INT)*i".
        assert CMPoint.from_string(text) == point

    @pytest.mark.parametrize("bad", ["1/0*i", "1/2+1/00*i", "-i", "1/2-i"])
    def test_rejects_zero_denominator_and_sign(self, bad):
        with pytest.raises(DomainError):
            CMPoint.from_string(bad)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(primitive_forms())
    def test_string_round_trip(self, p):
        assert CMPoint.from_string(str(p)) == p

    def test_shipped_points_print_as_stored(self):
        # str() is the printer serialize_corpus uses: every point of
        # corpus.json and tables.json parses back and prints as its text.
        texts = [text for inst in json.loads(
            resources.files("updownlab").joinpath("data/corpus.json")
            .read_text("utf-8"))["kronecker"] for text in inst["points"]]
        texts += [row["text"] for tab in load_tables() for row in tab["rows"]]
        for text in texts:
            p = CMPoint.from_string(text)
            assert str(p) == text
            assert CMPoint.from_string(str(p)) == p

    @pytest.mark.parametrize("text, printed", [
        ("1/1000000000000000003*i", "1/1000000000000000003*i"),
        ("sqrt(1000000000000000003)*i", "1*sqrt(1000000000000000003)*i"),
    ])
    def test_large_prime_in_disc(self, text, printed):
        # str() splits disc by at most 10^4 trial divisions, so a prime near
        # 10^18 in y, squared or not, cannot stall it.
        code = (f"from updownlab import CMPoint; p = CMPoint.from_string({text!r}); "
                "print(p, CMPoint.from_string(str(p)) == p)")
        assert run_bounded("-c", code).stdout == f"{printed} True\n"

    def test_disc(self):
        assert CMPoint.from_string("i").disc == -4
        assert CMPoint.from_string("1/2+1/2*sqrt(7)*i").disc == -7
        assert CMPoint.from_string("-1/8+1/8*sqrt(15)*i").disc == -15

    def test_to_point(self, ctx30):
        z = CMPoint.from_string("1/2+1/2*sqrt(7)*i").to_point(ctx30)
        with ctx30.working():
            assert abs(z - mpc(mpf(1) / 2, mpmath.sqrt(7) / 2)) < ctx30.tol

    @pytest.mark.parametrize("bad", ["", "x", "1+2j", "1/2-1/2*sqrt(7)*i",
                                     "sqrt(-3)*i"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(DomainError):
            CMPoint.from_string(bad)

    def test_coefficient_validation(self):
        with pytest.raises(DomainError):
            CMPoint(-1, 0, -1)   # leading coefficient must be positive
        with pytest.raises(DomainError):
            CMPoint(1, 0, -1)    # real roots
        with pytest.raises(DomainError):
            CMPoint(2, 0, 2)     # not primitive

    def test_from_rational_reduces(self):
        p = CMPoint.from_rational(Fraction(1, 2), Fraction(7, 4))
        assert (p.A, p.B, p.C) == (1, -1, 2)


def _is_reduced(p):
    """The rule of CMPoint.reduced: |B| <= A <= C, and B >= 0 when |B| = A or A = C."""
    return abs(p.B) <= p.A <= p.C and (p.B >= 0 or abs(p.B) < p.A < p.C)


def _moved(p, gamma):
    """The form whose root is g(z) = (a z + b) / (c z + d), z the root of p:
    p(d w - b, a - c w) = 0, which SL(2, Z) keeps positive definite and primitive."""
    a, b, c, d = gamma
    A, B, C = p.A, p.B, p.C
    return CMPoint(A * d * d - B * c * d + C * c * c,
                   -2 * A * b * d + B * (a * d + b * c) - 2 * C * a * c,
                   A * b * b - B * a * b + C * a * a)


def _random_sl2(rng):
    """(a, b, c, d): a product of three matrices (0, 1; -1, k) of SL(2, Z),
    |k| <= 4, each the inversion w -> -1/w after the translation w -> w - k."""
    m = (1, 0, 0, 1)
    for _ in range(3):
        a, b, c, d = m
        k = rng.randint(-4, 4)
        m = (-b, a + k * b, -d, c + k * d)
    return m


class TestGaussReduction:
    # D = -4 and D = -3 (the corners i and rho), A = C, |B| = A, a point
    # below the fundamental domain and one far above it.
    FORMS = [CMPoint(1, 0, 1), CMPoint(1, 1, 1), CMPoint(1, -1, 1), CMPoint(2, 1, 2),
             CMPoint(3, -2, 3), CMPoint(2, 2, 3), CMPoint(2, -2, 3), CMPoint(4, 1, 1),
             CMPoint(29, 40, 14), CMPoint(1, 0, 58), CMPoint(8, 4, 15)]
    CTX = PrecisionContext(digits=40)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(primitive_forms())
    def test_reduced_primitive_same_discriminant(self, p):
        r = p.reduced()
        assert _is_reduced(r) and math.gcd(r.A, r.B, r.C) == 1 and r.disc == p.disc
        assert r.reduced() == r

    @pytest.mark.parametrize("p", FORMS, ids=str)
    def test_orbit_gives_one_form_and_one_value(self, p):
        # E is SL(2, Z) invariant, and so, bit for bit, is epstein_sl2 on a
        # CMPoint: every point of the orbit reduces to one integer form.
        rng = random.Random(str(p))
        r, e = p.reduced(), epstein_sl2(p, self.CTX)
        assert _is_reduced(r) and r.disc == p.disc
        for _ in range(8):
            q = _moved(p, _random_sl2(rng))
            assert q.reduced() == r
            assert epstein_sl2(q, self.CTX)._mpf_ == e._mpf_

    @pytest.mark.parametrize("p", FORMS, ids=str)
    def test_reduced_point_is_the_reduction_of_the_embedded_point(self, p):
        # _reduce_sl2 in mpc lands on the same point, or at |Re w| = 1/2 or
        # |w| = 1 on the edge the domain identifies with it (w -+ 1, -1/w).
        rng, ctx = random.Random(str(p)), self.CTX
        with ctx.working():
            r, tol = p.reduced().to_point(ctx), mpf(10) ** -(ctx.dps - 5)
            for q in [p] + [_moved(p, _random_sl2(rng)) for _ in range(8)]:
                w = _reduce_sl2(q.to_point(ctx), ctx)[0]
                assert min(abs(r - v) for v in (w, w - 1, w + 1, -1 / w)) < tol

    @pytest.mark.parametrize("N", [2, 3, 4])
    @pytest.mark.parametrize("p", FORMS, ids=str)
    def test_scaled_is_n_times_the_point(self, p, N):
        # N z is the root of (A, N B, N^2 C), made primitive by its gcd g:
        # g = 2, 4 and 8 for (4, 1, 1) and (8, 4, 15) at N = 2, 4.
        q, g = p.scaled(N), math.gcd(p.A, N * p.B, N * N * p.C)
        assert math.gcd(q.A, q.B, q.C) == 1 and q.disc * g * g == N * N * p.disc
        for bits in (53, 200):
            (qr, qi), (pr, pi) = q.fixed(bits), p.fixed(bits)
            assert (qr - N * pr) ** 2 + (qi - N * pi) ** 2 < (2 * (N + 1)) ** 2

    def test_embed_truncates_to_fixed_point(self):
        # Each part of fixed(bits) is the exact point scaled by 2^bits and
        # truncated toward -oo, at heights floats cannot hold too.
        for p in self.FORMS + [CMPoint(10**800, 0, 1).reduced(), CMPoint(1, 0, 10**60)]:
            for bits in (53, 200, 3333):
                parts = p.fixed(bits)
                with mpmath.workprec(bits + abs(p.disc).bit_length() + 64):
                    exact = p.to_point(PrecisionContext(mpmath.mp.dps))
                    for got, want in zip(parts, (exact.real, exact.imag)):
                        assert got == mpmath.floor(mpmath.ldexp(want, bits))


def _reduction_bits(reduce, z, ctx):
    """(w, shift, inverted) of ``reduce`` with each point as its raw parts."""
    w, shift, inverted = reduce(z, ctx)
    return w._mpc_, shift, [v._mpc_ for v in inverted]


def _boundary_points(ctx):
    """Points at which a rounding rule decides the reduction: Re v at a tie
    k + 1/2 of nint; |v|^2 within a few ulps of (1 - tol)^2, on either side;
    and low points at Fibonacci ratios, which need many inversions."""
    with ctx.working():
        ties = [mpc(k + mpf(1) / 2, y) for k in range(-3, 3) for y in ("0.3", "0.9", "2")]
        edge, ulp = ctx.edge, mpmath.ldexp(1, -mp.prec)
        rim = [mpc(x, mpmath.sqrt(edge - mpf(x) ** 2) + k * ulp)
               for x in ("0.1", "-0.3", "0.45") for k in range(-3, 4)]
        fib = [mpc(mpf(8) / 21, "1e-3"), mpc(mpf(-89) / 144, "1e-6"), mpc(mpf(233) / 377, "1e-9")]
    return ties, rim, fib


class TestReductionAgainstTheMpfLayer:
    # _reduce_sl2 and CMPoint.to_point run on raw tuples; the oracles run
    # the same steps on mpc objects inside the working context.
    DIGITS = [10, 40, 300, 1000]

    @pytest.mark.parametrize("digits", DIGITS)
    def test_corpus_and_table_points(self, digits, corpus):
        ctx = PrecisionContext(digits)
        points = [p for inst in corpus.kronecker for p in inst.points]
        points += [row["point"] for tab in load_tables() for row in tab["rows"]]
        assert len(points) == 94 + 14
        for p in points:
            z = p.to_point(ctx)
            assert z._mpc_ == to_point_mpf(p, ctx)._mpc_, str(p)
            want = _reduction_bits(reduce_sl2_mpf, z, ctx)
            assert _reduction_bits(_reduce_sl2, z, ctx) == want, str(p)

    @pytest.mark.parametrize("digits", DIGITS)
    def test_ties_circle_and_many_inversions(self, digits):
        ctx = PrecisionContext(digits)
        ties, rim, fib = _boundary_points(ctx)
        inversions = {}
        for z in ties + rim + fib:
            want = _reduction_bits(reduce_sl2_mpf, z, ctx)
            assert _reduction_bits(_reduce_sl2, z, ctx) == want, z
            inversions[z] = len(want[2])
        # The rim straddles the edge, a tie k + 1/2 above the circle goes to
        # the even one of k and k + 1, and a low point at a Fibonacci ratio
        # takes four to seven inversions.
        assert {inversions[z] for z in rim} == {0, 1}
        assert {_reduce_sl2(z, ctx)[1] % 2 for z in ties if z.imag > 1 / 2} == {0}
        assert [inversions[z] for z in fib] == [4, 6, 7]

    @pytest.mark.parametrize("digits", [10, 40, 300])
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.floats(-3, 3), st.floats(-3, 1))
    def test_random_points(self, digits, x, log_y):
        ctx = PrecisionContext(digits)
        z = mpc(x, 10.0 ** log_y)
        assert _reduction_bits(_reduce_sl2, z, ctx) == _reduction_bits(reduce_sl2_mpf, z, ctx)

    @pytest.mark.parametrize("digits", [10, 40, 300])
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(primitive_forms(), st.integers(0, 700))
    def test_to_point_of_random_forms(self, digits, p, scale):
        # Wide discriminants and wide B too: |D| 4^scale has more bits than P
        # from about 10 digits, so mpf(|D|) rounds before its square root,
        # and so does -B of the point moved by k = 2^scale.
        ctx, k = PrecisionContext(digits), 2**scale
        wide = CMPoint(p.A, p.B, p.C + 4**scale * p.A)
        moved = CMPoint(p.A, p.B - 2 * p.A * k, p.A * k * k - p.B * k + p.C)
        for q in (p, wide, moved):
            assert q.to_point(ctx)._mpc_ == to_point_mpf(q, ctx)._mpc_, str(q)


class TestDedekindEta:
    def test_eta_i_closed_form(self, ctx40):
        # eta(i) = Gamma(1/4) / (2 pi^(3/4)).
        with ctx40.working():
            expected = mpmath.gamma(mpf(1) / 4) / (2 * mp.pi ** (mpf(3) / 4))
            got = dedekind_eta(mpc(0, 1), ctx40)
            assert abs(got - expected) < ctx40.tol

    def test_translation(self, ctx30):
        with ctx30.working():
            for z in random_points(3, seed=11):
                lhs = dedekind_eta(z + 1, ctx30)
                rhs = mpmath.exp(1j * mp.pi / 12) * dedekind_eta(z, ctx30)
                assert abs(lhs - rhs) < ctx30.tol

    def test_inversion(self, ctx30):
        with ctx30.working():
            for z in random_points(3, seed=12):
                lhs = dedekind_eta(-1 / z, ctx30)
                rhs = mpmath.sqrt(-1j * z) * dedekind_eta(z, ctx30)
                assert abs(lhs - rhs) < ctx30.tol

    @pytest.mark.parametrize("digits", [100, 300])
    def test_against_q_pochhammer(self, digits):
        # eta(z) = e^{pi i z/12} (q; q)_oo, the reference at dps + 40, at every
        # eta argument of the three tables (z and N z) and two low points.
        ctx = PrecisionContext(digits=digits)
        with ctx.working():
            points = [mpc("0.1", "0.15"), mpc("-0.37", "0.131")]
            for tab in load_tables():
                for row in tab["rows"]:
                    z = row["point"].to_point(ctx)
                    points += [z, tab["level"] * z]
        for z in points:
            got = dedekind_eta(z, ctx)
            with mpmath.workdps(ctx.dps + 40):
                ref = mpmath.exp(1j * mp.pi * z / 12) * mpmath.qp(mpmath.exp(2j * mp.pi * z))
                assert abs(got - ref) < mpf(10) ** -digits * abs(ref)


class TestEisensteinE4:
    def test_against_theta_functions(self, ctx30):
        # E4 = (theta2^8 + theta3^8 + theta4^8) / 2 at nome q = e^(i pi z).
        with ctx30.working():
            for z in random_points(4, seed=13):
                q = mpmath.exp(1j * mp.pi * z)
                expected = (mpmath.jtheta(2, 0, q) ** 8
                            + mpmath.jtheta(3, 0, q) ** 8
                            + mpmath.jtheta(4, 0, q) ** 8) / 2
                assert abs(eisenstein_e4(z, ctx30) - expected) < ctx30.tol

    def test_weight_four_inversion(self, ctx30):
        with ctx30.working():
            z = mpc("0.21", "0.93")
            lhs = eisenstein_e4(-1 / z, ctx30)
            rhs = z**4 * eisenstein_e4(z, ctx30)
            assert abs(lhs - rhs) < 10 * ctx30.tol

    @pytest.mark.parametrize("y", ["1e-8", "1e-400"])
    def test_small_heights_reduce(self, ctx30, y):
        # E4(i y) = y^-4 E4(i / y), and q(i / y) is 0 in the kernel's bits:
        # a height of 1e-8 takes one inversion, not 2.4e9 terms, and 1e-400,
        # 0.0 as a float, does too.
        with ctx30.working():
            y = mpf(y)
            got = eisenstein_e4(mpc(0, y), ctx30)
            assert abs(got - y**-4) < ctx30.eps * y**-4


def _mpf_qsum(z, ctx, weight):
    """The mpf q-series loop the fixed-point kernel replaced:
    sum sigma_3(n) q^n weight(n), cut off 20 digits below the working eps."""
    q = mpmath.exp(2j * mp.pi * z)
    n_max = int((ctx.dps + 20) * math.log(10) / (2 * math.pi * float(z.imag))) + 2
    qn, total = mpc(1), mpc(0)
    for n in range(1, n_max + 1):
        qn *= q
        total += sum(d**3 for d in range(1, n + 1) if n % d == 0) * qn * weight(n)
    return total


class TestFixedPointKernel:
    POINTS = (mpc("0.21", "0.93"), mpc("-0.4", "0.15"), mpc("0.05", "2.7"))

    def test_e4_against_mpf_loop(self):
        ctx = PrecisionContext(digits=100)
        with ctx.working():
            for z in self.POINTS:
                expected = 1 + 240 * _mpf_qsum(z, ctx, lambda n: 1)
                assert abs(eisenstein_e4(z, ctx) - expected) < ctx.tol

    def test_eichler_against_mpf_loop(self):
        ctx = PrecisionContext(digits=100)
        with ctx.working():
            for z in self.POINTS:
                y = z.imag
                expected = 240j * _mpf_qsum(
                    z, ctx, lambda n: y / (2 * mp.pi**2 * n**2) + 1 / (4 * mp.pi**3 * n**3))
                assert abs(eichler_e4_tilde(z, ctx) - expected) < ctx.tol

    def test_ambient_precision_is_ignored(self):
        # _qsum takes its bits from ctx alone: the same sums inside and
        # outside ctx.working().
        ctx = PrecisionContext(digits=300)
        z = self.POINTS[0]
        with mpmath.workprec(53):
            outside = _qsum(z, ctx, _sigma3_table, (2, 3))
        with ctx.working():
            inside = _qsum(z, ctx, _sigma3_table, (2, 3))
        assert [v._mpc_ for v in outside] == [v._mpc_ for v in inside]

    @pytest.mark.parametrize("k", [10, 30, 50])
    def test_exactly_one_periodic(self, ctx40, k):
        # expjpi reduces 2 Re z mod 2 exactly, so z + 10^k gives the very
        # bits of z. The real parts are dyadic, so z + 10^k is exact at the
        # working precision.
        with ctx40.working():
            for x in (0, 0.5, -0.25, 0.375):
                z = mpc(x, "1.1")
                shifted = mpc(mpf(10) ** k + x, z.imag)
                assert eisenstein_e4(shifted, ctx40) == eisenstein_e4(z, ctx40)
                assert epstein_sl2(shifted, ctx40) == epstein_sl2(z, ctx40)

    @pytest.mark.parametrize("x", ["0.5", "-0.5"])
    def test_real_q_at_half_integers(self, ctx40, x):
        # q = -e^{-2 pi y} exactly at Re z = +-1/2, so every sum is real.
        with ctx40.working():
            z = mpc(x, "0.9")
        sums = [s for table, powers in _EVERY_TABLE for s in _qsum(z, ctx40, table, powers)]
        assert len(sums) == 6 and all(s.imag == 0 for s in sums)


_EVERY_TABLE = ((_pentagonal_table, (0, 1, 2)), (_sigma3_table, (0, 2, 3)))


class TestSigmaTable:
    def test_reused_table_is_a_fresh_sieve_and_immutable(self, monkeypatch):
        monkeypatch.setattr(numerics, "_kept", {})
        first = kept_table(_sigma3_table, 137)
        assert kept_table(_sigma3_table, 137) is first
        assert kept_table(_sigma3_table, 100) is first
        assert first == _sigma3_table(137)
        assert first[12] == 1 + 8 + 27 + 64 + 216 + 1728
        with pytest.raises(TypeError):
            first[1] = 0

    def test_long_tables_are_not_kept(self, monkeypatch):
        # Unreduced points can ask for up to MAX_TERMS terms: past
        # KEPT_TERMS each caller sieves a table of its own, and the kept
        # table stays as it was.
        monkeypatch.setattr(numerics, "_kept", {})
        kept = kept_table(_sigma3_table, 3000)
        long = kept_table(_sigma3_table, KEPT_TERMS + 1)
        assert long is not kept_table(_sigma3_table, KEPT_TERMS + 1)
        assert long == _sigma3_table(KEPT_TERMS + 1)
        assert isinstance(long, tuple)
        assert kept_table(_sigma3_table, 3000) is kept

    def test_second_eichler_call_builds_no_table(self, ctx30, monkeypatch):
        # n_max = 23822 at 0.123 + 0.001i and 30 digits, inside KEPT_TERMS:
        # the first call sieves sigma_3 once and the second reads it back.
        built = []

        def counted(n):
            built.append(n)
            return _sigma3_table(n)

        monkeypatch.setattr(numerics, "_kept", {})
        monkeypatch.setattr(modular, "_sigma3_table", counted)
        with ctx30.working():
            z = mpc("0.123", "0.001")
        first = eichler_e4_tilde(z, ctx30)
        assert built == [23822]
        assert eichler_e4_tilde(z, ctx30) == first
        assert built == [23822]


class TestPointEmbedding:
    # The Eichler integral embeds a CMPoint at the context it computes on, so
    # it gives the very bits of the same call on p.to_point(ctx). epstein_sl2,
    # epstein_gamma0 and the Gamma0(N) quantities of _level (alpha_n,
    # series_constants_from_cm) start at the exact point instead.
    CTX = PrecisionContext(digits=60)
    TEXTS = ["sqrt(232)*i", "1/2+1/2*sqrt(7)*i", "-1/8+1/8*sqrt(15)*i"]

    @pytest.mark.parametrize("fn, embed", [(eichler_e4_tilde, CTX)], ids=["eichler_e4_tilde"])
    @pytest.mark.parametrize("text", TEXTS)
    def test_cm_point_gives_the_bits_of_to_point(self, fn, embed, text):
        p = CMPoint.from_string(text)
        bits = [fn(z, self.CTX)._mpc_ for z in (p, p.to_point(embed))]
        assert bits[0] == bits[1]

    @pytest.mark.parametrize("fn, eps", [
        (lambda z, ctx: (alpha_n(z, 3, ctx),), CTX.eps),
        (lambda z, ctx: series_constants_from_cm(z, 4, ctx), CTX.bumped().eps),
    ], ids=["alpha_n", "constants"])
    @pytest.mark.parametrize("text", TEXTS)
    def test_exact_point_value(self, fn, eps, text):
        # alpha_n and series_constants_from_cm reduce a CMPoint in integers
        # and take q at the exact reduced points (_level): each value within
        # 32 eps of the context it runs on (ctx.bumped() for the constants),
        # relative, of the same call 60 digits wider. Measured worst: 11.4,
        # m at sqrt(232)*i, where |N z| = 61 scales the multiplier's error.
        p, wide = CMPoint.from_string(text), PrecisionContext(self.CTX.digits + 60)
        with wide.working():
            for got, want in zip(fn(p, self.CTX), fn(p, wide)):
                assert abs(got - want) < 32 * eps * abs(want), text

    @pytest.mark.parametrize("text", TEXTS)
    def test_cm_point_gives_the_correctly_rounded_epstein_sl2(self, text):
        # epstein_sl2 reduces a CMPoint as an integer form and embeds the
        # reduced point itself, so it gives E at the exact point rounded once,
        # not the bits of the call on p.to_point(ctx), which round z first.
        p = CMPoint.from_string(text)
        wide = PrecisionContext(self.CTX.digits + 60)
        want = epstein_fourier_reference(p.reduced().to_point(wide), wide.dps)
        with self.CTX.working():
            assert epstein_sl2(p, self.CTX)._mpf_ == (+want)._mpf_

    @pytest.mark.parametrize("level", [2, 3, 4])
    @pytest.mark.parametrize("text", TEXTS)
    def test_gamma0_from_exact_epstein_sl2(self, text, level):
        # epstein_gamma0 scales a CMPoint exactly, so it gives the closed form
        # of E at the exact points m z, each the oracle at the exact reduced
        # point 60 digits wider, rounded once: the same bits.
        p = CMPoint.from_string(text)
        wide = PrecisionContext(self.CTX.digits + 60)
        e = {m: epstein_fourier_reference(p.scaled(m).reduced().to_point(wide), wide.dps)
             for m in (1, 2, 3, 4)}
        with wide.working():
            want = {2: (4 * e[2] - e[1]) / 15, 3: (9 * e[3] - e[1]) / 80,
                    4: (4 * e[4] - e[2]) / 60}[level]
        with self.CTX.working():
            assert epstein_gamma0(p, level, self.CTX)._mpf_ == (+want)._mpf_


class TestQSeriesCutoff:
    def test_height_beyond_max_terms_rejected(self):
        # Im z = 10^-8 needs about 2.4e9 q-series terms at 45 digits, more
        # than MAX_TERMS; the Eichler integral, the one q-series summed at an
        # unreduced point, raises before it sums or tabulates anything.
        ctx = PrecisionContext(digits=30)
        with pytest.raises(DomainError, match="MAX_TERMS"):
            eichler_e4_tilde(mpc("0.1", "1e-8"), ctx)

    def test_height_zero_as_float_rejected(self, ctx30):
        # Im z = 10^-400 is 0.0 as a float: the cutoff is infinite, never a
        # division by zero.
        with pytest.raises(DomainError, match="MAX_TERMS"):
            eichler_e4_tilde(mpc(0, mpf("1e-400")), ctx30)


class TestEtaLostPrecision:
    @pytest.mark.parametrize("z", [mpc(0, "1e-3"), mpc(0, "3e-4"), mpc("0.3", "2e-3")],
                             ids=["1e-3", "3e-4", "off-axis"])
    def test_small_heights_against_q_pochhammer(self, ctx30, z):
        # |eta(i y)| is about y^(-1/2) e^(-pi/(12 y)), far below the
        # fixed-point ulp of a q-series summed at z itself. The reduced point
        # carries it back to 30 relative digits; the reference is
        # e^{pi i z/12} (q; q)_oo at 60 digits.
        got = dedekind_eta(z, ctx30)
        with mpmath.workdps(60):
            ref = mpmath.exp(1j * mp.pi * z / 12) * mpmath.qp(mpmath.exp(2j * mp.pi * z))
            assert abs(got / ref - 1) < mpf(10) ** -30

    @pytest.mark.parametrize("height", ["0.003", "0.005"])
    def test_cancelling_product_recomputed(self, ctx30, height):
        # prod (1 - q^n) at z itself is about 1e-37 at 0.003 i and 3e-22 at
        # 0.005 i, below the absolute 10^-45 of the q-series. Eta sums it at
        # the reduced point instead, where it is near 1, and keeps 30
        # relative digits.
        ctx120 = PrecisionContext(digits=120)
        with ctx120.working():
            z = mpc(0, mpf(height))
            ref = dedekind_eta(z, ctx120)
            assert abs(dedekind_eta(z, ctx30) / ref - 1) < mpf(10) ** -30


class TestJInvariant:
    def test_special_values(self, ctx30):
        with ctx30.working():
            assert abs(j_invariant(mpc(0, 1), ctx30) - 1728) < ctx30.tol
            z3 = mpc(mpf(1) / 2, mpmath.sqrt(3) / 2)
            assert abs(j_invariant(z3, ctx30)) < ctx30.tol
            assert abs(j_invariant(mpc(0, 2), ctx30) - 66**3) < 1e-20

    def test_modular_invariance(self, ctx30):
        with ctx30.working():
            z = mpc("0.3", "1.1")
            assert abs(j_invariant(z, ctx30)
                       - j_invariant(-1 / z, ctx30)) < 10 * ctx30.tol
            assert abs(j_invariant(z, ctx30)
                       - j_invariant(z + 1, ctx30)) < 10 * ctx30.tol

    @pytest.mark.parametrize("height, y", [
        ("20", 20), ("30", 30), ("300", 300), ("1e-3", 1000)])
    def test_large_and_small_heights(self, ctx30, height, y):
        # j(i y) = e^{2 pi y} + 744 + 196884 e^{-2 pi y} + 21493760 e^{-4 pi y}
        # + O(e^{-6 pi y}) with no pole at any height; j(i/1000) = j(1000 i).
        with ctx30.working():
            z = mpc(0, mpf(height))
        got = j_invariant(z, ctx30)
        with mpmath.workdps(60):
            q = mpmath.exp(-2 * mp.pi * y)
            ref = 1 / q + 744 + 196884 * q + 21493760 * q**2
            assert abs(got / ref - 1) < mpf(10) ** -30


def _cm_arguments(corpus):
    """The 28 eta arguments of the tables (z and N z, as CMPoint.scaled)
    and the 94 points of the corpus's lattice sums."""
    points = [p for tab in load_tables() for row in tab["rows"]
              for p in (row["point"], row["point"].scaled(tab["level"]))]
    return points + [p for inst in corpus.kronecker for p in inst.points]


class TestExactCMPath:
    # A CMPoint reaches the Gamma0(N) quantities exactly: _reduce_form
    # reduces it in integers, and no mpc reduction runs on its path.
    def test_no_mpc_reduction_on_a_cm_path(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("_reduce_sl2 on a CM path")

        monkeypatch.setattr(modular, "_reduce_sl2", refuse)
        ctx = PrecisionContext(digits=40)
        for table in (1, 2, 3):
            assert all(r < ctx.verdict_tol for _, _, r in check_table(table, ctx))
        for tab in load_tables():
            for row in tab["rows"]:
                series_constants_from_cm(row["point"], tab["level"], ctx)
                alpha_n(row["point"], tab["level"], ctx)
        assert satisfies_region(CMPoint.from_string("-1/8+1/8*sqrt(15)*i"), 4, ctx)
        for argv in (["alpha", "--z", "1/2+1/2*sqrt(7)*i", "--N", "3"],
                     ["constants", "--z=-1/8+1/8*sqrt(15)*i", "--N", "4"]):
            assert cli.main(argv) == cli.EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("digits", [10, 40, 300])
    def test_counted_reduction_matches_reduce_sl2(self, digits, corpus):
        # The same translations and inversions as the mpc reduction of the
        # embedded point: w within 4 ulps of _reduce_sl2's, and so is each
        # inverted point. Both may stop on an edge (Re w = 1/2, |w| = 1), at
        # the point that CMPoint.reduced() identifies with its own. Where the
        # last translation is a tie (|B| = A), the mpc point, rounded after an
        # inversion, can take the other one: then w + shift agree. That
        # happens at 1/2+1/22*sqrt(22)*i (three arguments) at 10 and 40
        # digits, and at 1/2+1/14*sqrt(7)*i at 10.
        ctx = PrecisionContext(digits)
        points = _cm_arguments(corpus)
        assert len(points) == 28 + 94
        for p in points:
            w, shift, inverted = modular._reduce_form(p)
            w_mpc, shift_mpc, inverted_mpc = _reduce_sl2(p.to_point(ctx), ctx)
            assert w.reduced() == p.reduced() and abs(w.B) <= w.A <= w.C, str(p)
            assert len(inverted) == len(inverted_mpc), str(p)
            forms = [CMPoint(a, b, (b * b - p.disc) // (4 * a)) for a, b in inverted]
            with ctx.working():
                ulp, v = mpmath.ldexp(1, -mp.prec), w.to_point(ctx)
                if shift != shift_mpc:
                    assert abs(w.B) == w.A and abs(shift - shift_mpc) == 1, str(p)
                    v += shift - shift_mpc
                for got, want in zip([*(f.to_point(ctx) for f in forms), v],
                                     inverted_mpc + [w_mpc]):
                    assert abs(got - want) < 4 * ulp * abs(want), str(p)

    def test_one_constants_call_is_two_q_passes(self, monkeypatch):
        # One q and one pass of Euler's sums at each of z and N z, and no
        # mpc reduction.
        calls = []
        for name in ("_reduce_sl2", "_q_fixed"):
            def counted(*args, _name=name, _fn=getattr(modular, name)):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(modular, name, counted)
        series_constants_from_cm(CMPoint.from_string("1/2+1/58*sqrt(58)*i"), 4,
                                 PrecisionContext(digits=100))
        assert calls == ["_q_fixed", "_q_fixed"]


class TestLevelAgainstEtaOracle:
    # _level at the 14 table rows against the oracle that takes eta and E2*
    # from _eta_e2_star at the embedded points z and N z, with its
    # multipliers and square roots: t, E2*(z) and E2*(Nz) within 16 eps of
    # the working precision, relative to max(|value|, 1) (E2* is 0 at the
    # orbit of i). Measured worst: 4.3 eps, t at 1000 digits.
    @pytest.mark.parametrize("digits", [40, 100, 300, pytest.param(1000, marks=pytest.mark.highprec)])
    def test_table_rows(self, digits):
        ctx = PrecisionContext(digits=digits)
        for tab in load_tables():
            for row in tab["rows"]:
                p, N = row["point"], tab["level"]
                got = modular._level(p, N, ctx)
                want = level_eta_e2_star(p.to_point(ctx), N, ctx)
                with ctx.working():
                    for a, b in zip(got, want):
                        err = abs(mp.make_mpc(a) - b)
                        assert err < 16 * ctx.eps * max(abs(b), 1), (row["text"], N)


class TestJSinglePass:
    def test_one_reduction_and_one_q_pass(self, ctx30, monkeypatch):
        # j = E4^3 / eta^24 takes both sums from one pass at the reduced
        # point, here after three inversions.
        calls = []
        for name in ("_reduce_sl2", "_qsum"):
            def counted(*args, _name=name, _fn=getattr(modular, name)):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(modular, name, counted)
        j_invariant(mpc("-0.38", "0.01"), ctx30)
        assert sorted(calls) == ["_qsum", "_reduce_sl2"]


def _euler_signs(n_max):
    """Euler's signs a(n) of prod (1 - q^n) = 1 + sum a(n) q^n, the table eta
    was summed on before _pentagonal_table scaled it by n^2."""
    signs = [0] * (n_max + 1)
    k = 1
    while k * (3 * k - 1) // 2 <= n_max:
        for n in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if n <= n_max:
                signs[n] = -1 if k % 2 else 1
        k += 1
    return signs


def _form_points(ctx):
    """Every eta argument of the three tables (z and N z), and a grid of
    heights from 0.002 to 30 at Re z in {0, 0.3, 0.5, -0.41}."""
    with ctx.working():
        points = [tab["level"] ** k * row["point"].to_point(ctx)
                  for tab in load_tables() for row in tab["rows"] for k in (0, 1)]
        return points + [mpc(x, y) for x in ("0", "0.3", "0.5", "-0.41")
                         for y in ("0.002", "0.01", "0.1", "0.9", "3", "30")]


# Gaps allowed between Euler's forms and the sigma oracles, in units
# u = 2^(1 - prec) of the working precision. Each kernel sum at the reduced
# point w is within u/512 of its value before its final rounding
# (_qsum_fixed), so within u after it (|sum| < 1). E2 = 1 + 24 M1 / P and
# 1 - 24 sum sigma_1(n) q^n take 24 times that each, plus a few roundings;
# E4 = E2^2 - 288 (M2 P - M1^2) / P^2 and 1 + 240 sum sigma_3(n) q^n take 288
# and 240 times it; j = E4^3 / (q P^24) three times E4's times |E4|^2 <= 4.4,
# over |q|. The weight-2 and weight-4 laws carry the gap at w back to z
# divided by prod |v|^2 and prod |v|^4 over the inverted points v.
_FORM_ULPS = {"E2*": 64, "E4": 1024, "j": 16384}


def _sigma_oracle_mismatches(ctx):
    """(z, form, gap in u) wherever E2* (_eta_squared_e2_star), eisenstein_e4 or
    j_invariant strays from its sigma oracle at _form_points past
    _FORM_ULPS: E2 by sigma_1 and E4 by sigma_3, each summed in its own pass
    at the same reduced point and carried back alike, and j as E4^3 / eta^24
    with E4 by sigma_3."""
    bad = []
    for z in _form_points(ctx):
        with ctx.working():
            w, _, inverted = _reduce_sl2(z, ctx)
            (t,), (e,), (s,) = (_qsum(w, ctx, table, (0,)) for table in
                                (sigma1_table, _sigma3_table, _euler_signs))
            e2, e4 = 1 - 24 * t - 3 / (mp.pi * w.imag), 1 + 240 * e
            j = e4**3 / (mpmath.expjpi(2 * w) * (1 + s) ** 24)
            scale = mpf(1)
            for v in inverted:
                e2, e4, scale = e2 / (v * v), e4 / v**4, scale * abs(v)
            u = mpmath.ldexp(1, 1 - mp.prec)
            gaps = {"E2*": abs(mp.make_mpc(_eta_squared_e2_star(z, ctx)[3]) - e2) * scale**2,
                    "E4": abs(eisenstein_e4(z, ctx) - e4) * scale**4,
                    "j": abs(j_invariant(z, ctx) - j) * mpmath.exp(-2 * mp.pi * w.imag)}
        bad += [(z, form, gap / u) for form, gap in gaps.items()
                if not gap < _FORM_ULPS[form] * u]
    return bad


class TestEulerSums:
    # eta, E2*, E4 and j all come from one pass of Euler's sums at the
    # reduced point.
    @pytest.mark.parametrize("digits", [40, 300])
    def test_eta_has_the_bits_of_the_sign_sum(self, digits):
        # n^2 a(n) / n^2 is exact, so the scaled table gives eta the bits of
        # the sum on Euler's signs themselves, carried back as before.
        ctx = PrecisionContext(digits=digits)
        for z in _form_points(ctx):
            with ctx.working():
                w, shift, inverted = _reduce_sl2(z, ctx)
                s, = _qsum(w, ctx, _euler_signs, (0,))
                want = mpmath.expjpi((w + (shift + 3 * len(inverted)) % 24) / 12) * (1 + s)
                for v in inverted:
                    want /= mpmath.sqrt(v)
                assert _eta_e2_star(z, ctx)[0]._mpc_ == want._mpc_, z
            assert dedekind_eta(z, ctx)._mpc_ == want._mpc_, z

    @pytest.mark.parametrize("digits", [40, 300, pytest.param(1000, marks=pytest.mark.highprec)])
    def test_forms_against_sigma_oracles(self, digits):
        assert _sigma_oracle_mismatches(PrecisionContext(digits=digits)) == []


class TestAlphaN:
    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_functional_equation(self, level, ctx30):
        # alpha_N(z) + alpha_N(-1/(N z)) = 1.
        with ctx30.working():
            for z in random_points(20, seed=100 + level):
                total = alpha_n(z, level, ctx30) \
                    + alpha_n(-1 / (level * z), level, ctx30)
                assert abs(total - 1) < 10 * ctx30.tol

    def test_invalid_level(self, ctx30):
        with pytest.raises(DomainError):
            alpha_n(mpc(0, 1), 5, ctx30)

    def test_lower_half_plane_rejected(self, ctx30):
        with pytest.raises(DomainError):
            alpha_n(mpc(0, -1), 2, ctx30)


def _eichler_error_ratios(heights, lo, hi):
    """(z, err / model) at z = x + h i, x in {0, 0.123, 0.3, 0.5} and h in
    ``heights``: err = |eichler_e4_tilde at lo - at hi| and model its
    docstring's absolute error u (8 M + y/20 + 1/100), with u an ulp of 1 at
    lo's working precision and M bounded through |S_j| <= 1.21 |q| /
    (1 - |q|)^(4-j)."""
    u = mpmath.ldexp(1, -mpmath.libmp.dps_to_prec(lo.dps))
    ratios = []
    for x in ("0", "0.123", "0.3", "0.5"):
        for height in heights:
            with lo.working():
                z = mpc(x, height)
            got = eichler_e4_tilde(z, lo)
            want = eichler_e4_tilde(z, hi)
            with hi.working():
                y = z.imag
                q = mpmath.exp(-2 * mp.pi * y)
                m = 240 * mpf("1.21") * q * (y / (2 * mp.pi**2 * (1 - q) ** 2)
                                             + 1 / (4 * mp.pi**3 * (1 - q)))
                ratios.append((z, abs(got - want) / (u * (8 * m + y / 20 + mpf(1) / 100))))
    return ratios


class TestEichlerIntegral:
    def test_anchor_fifteen_over_sixteen(self, ctx30):
        with ctx30.working():
            z = mpc(mpf(9) / 16, mpmath.sqrt(15) / 16)
            got = eichler_e4_tilde(z, ctx30).real
            assert abs(got - mpf(387) / 2048) < ctx30.tol

    def test_anchor_fifteen_over_four(self, ctx30):
        with ctx30.working():
            z = mpc(mpf(-7) / 4, mpmath.sqrt(15) / 4)
            got = eichler_e4_tilde(z, ctx30).real
            assert abs(got + mpf(1) / 32) < ctx30.tol

    def test_closed_form_half_integer_real_part(self, ctx30):
        with ctx30.working():
            z = mpc("0.5", "1.1")
            assert re_eichler_closed_form(z, ctx30) == 0
            assert abs(eichler_e4_tilde(z, ctx30).real) < ctx30.tol

    def test_closed_form_reflected_branch(self, ctx30):
        # 2 Re(1/z) = 1 on the circle |z - 1| = 1; z = 0.4 + 0.8i lies on it.
        with ctx30.working():
            z = mpc("0.4", "0.8")
            got = re_eichler_closed_form(z, ctx30)
            assert abs(got - eichler_e4_tilde(z, ctx30).real) < ctx30.tol

    def test_closed_form_rejects_generic_points(self, ctx30):
        with pytest.raises(DomainError):
            re_eichler_closed_form(mpc("0.21", "0.9"), ctx30)

    @pytest.mark.parametrize("heights", [
        pytest.param(("0.1", "0.03", "0.01", "0.003", "0.001"), id="to-1e-3"),
        # n_max is 79k to 458k terms here, past numerics.KEPT_TERMS: every
        # call sieves and sums on a table of its own.
        pytest.param(("3e-4", "1e-4"), id="past-the-kept-table", marks=pytest.mark.highprec),
    ])
    def test_unreduced_points_within_the_error_model(self, heights):
        # The q-series at z itself, where the recurrence amplifies an error
        # most: 1/(1 - |q|)^2 is about 25000 at Im z = 0.001.
        for z, ratio in _eichler_error_ratios(heights, PrecisionContext(30), PrecisionContext(90)):
            assert ratio < 1, z

    def test_reflection_residual_random(self, ctx40):
        for z in random_points(10, seed=17):
            assert reflection_residual(z, ctx40) < mpf(10) ** -35


class TestLegendreFunctions:
    NUS = [Fraction(-1, 4), Fraction(-1, 3), Fraction(-1, 2)]

    @pytest.mark.parametrize("nu", NUS)
    def test_against_quadrature(self, nu, ctx30):
        with ctx30.working():
            for t in (mpf("0.23"), mpf("-0.4"), mpc("0.2", "-0.25"),
                      mpc("0.3", "0.4"), mpc("-1.2", "0.7")):
                a = legendre_p(nu, t, ctx30)
                b = legendre_p_quadrature(nu, t, ctx30)
                # The quadrature has endpoint singularities, so it only
                # certifies a moderate number of digits.
                assert abs(a - b) < mpf(10) ** -10

    def test_elliptic_integral_special_case(self, ctx40):
        # P_{-1/2}(1 - 2t) = (2/pi) K(t) in the parameter convention.
        with ctx40.working():
            for t in (mpf("0.1"), mpf("0.37"), mpf("0.81")):
                lhs = legendre_p(Fraction(-1, 2), t, ctx40)
                rhs = 2 / mp.pi * mpmath.ellipk(t)
                assert abs(lhs - rhs) < ctx40.tol

    @pytest.mark.parametrize("nu", NUS)
    def test_derivative_against_finite_difference(self, nu, ctx30):
        with ctx30.working():
            t = mpf("0.31")
            h = mpf(10) ** -12
            fd = (legendre_p(nu, t + h, ctx30)
                  - legendre_p(nu, t - h, ctx30)) / (2 * h)
            assert abs(legendre_p_dt(nu, t, ctx30) - fd) < mpf(10) ** -20

    def test_cut_rejected(self, ctx30):
        # Only the branch point t = 1 is rejected; (1, oo) has a value.
        for f in (legendre_p, legendre_p_dt, legendre_p_quadrature):
            with pytest.raises(DomainError):
                f(Fraction(-1, 2), mpf(1), ctx30)

    @pytest.mark.parametrize("nu", NUS)
    def test_on_cut_against_quadrature(self, nu, ctx30):
        with ctx30.working():
            for t in (mpf("1.3"), mpf("2.5"), mpf(40)):
                a = legendre_p(nu, t, ctx30)
                b = legendre_p_quadrature(nu, t, ctx30)
                # The base of the integrand changes sign at X = 1/t, so
                # the quadrature certifies fewer digits than off the cut.
                assert abs(a - b) < mpf(10) ** -8

    @pytest.mark.parametrize("nu", NUS)
    def test_on_cut_is_limit_from_below(self, nu, ctx30):
        with ctx30.working():
            eps = mpf(10) ** -(ctx30.dps + 5)
            for t in (mpf("1.3"), mpf("2.5"), mpf(40)):
                for f in (legendre_p, legendre_p_dt):
                    on = f(nu, t, ctx30)
                    assert abs(on - f(nu, mpc(t, -eps), ctx30)) < ctx30.tol
                    # The limit from above is the conjugate, a jump of 2i Im.
                    above = f(nu, mpc(t, eps), ctx30)
                    assert abs(above - mpmath.conj(on)) < ctx30.tol
                    assert abs(on.imag) > abs(on) / 10

    def test_bad_degree_rejected(self, ctx30):
        with pytest.raises(DomainError):
            legendre_p(Fraction(-1, 5), mpf("0.2"), ctx30)
        with pytest.raises(DomainError):
            legendre_ramanujan_r(Fraction(1, 2), mpf("0.5"), ctx30)


class TestLegendreRamanujanR:
    def test_continuity_across_real_axis(self, ctx30):
        # The value on the line |xi| > 1, the real part of the one-sided
        # limit, must agree with nearby off-axis evaluations.
        with ctx30.working():
            xi = mpf("3.7")
            on_line = legendre_ramanujan_r(Fraction(-1, 2), xi, ctx30)
            near = legendre_ramanujan_r(
                Fraction(-1, 2), mpc(xi, mpf(10) ** -10), ctx30)
            # The off-axis value differs from the limit by O(offset).
            assert abs(on_line - near) < mpf(10) ** -8

    @pytest.mark.parametrize("nu", [Fraction(-1, 4), Fraction(-1, 3),
                                    Fraction(-1, 2)])
    def test_real_line_matches_richardson(self, nu):
        # Reference: the quadratic Richardson extrapolation of off-axis
        # values at xi (1 +- i delta), delta/2, delta/4, averaged over the
        # two sides; its error is O(delta^3).
        ctx = PrecisionContext(digits=100)
        with ctx.working():
            delta = mpf(10) ** (-(ctx.digits // 3))

            def richardson(x, sign):
                r1, r2, r4 = (_r_direct(nu, x * (1 + sign * 1j * d), ctx)
                              for d in (delta, delta / 2, delta / 4))
                return (8 * r4 - 6 * r2 + r1) / 3

            for x in ("1.0000001", "1.8", "-2.5", "3.7", "-19602"):
                x = mpf(x)
                ref = (richardson(x, +1) + richardson(x, -1)) / 2
                got = legendre_ramanujan_r(nu, x, ctx)
                assert got.imag == 0
                assert abs(got - ref) < mpf(10) ** -90 * abs(ref)

    @pytest.mark.parametrize("nu", [Fraction(-1, 4), Fraction(-1, 3),
                                    Fraction(-1, 2)])
    def test_odd_in_xi(self, nu, ctx30):
        with ctx30.working():
            for x in (mpf("0.4"), mpf("1.8"), mpf("3.7"), mpf(19602)):
                r = legendre_ramanujan_r(nu, x, ctx30)
                r_neg = legendre_ramanujan_r(nu, -x, ctx30)
                assert abs(r_neg + r) < ctx30.tol * (1 + abs(r))

    @pytest.mark.parametrize("nu", [Fraction(-1, 4), Fraction(-1, 3),
                                    Fraction(-1, 2)])
    def test_near_real_xi_keeps_every_digit(self, nu):
        # An Im xi far above rounding noise is not snapped to the line: the
        # value matches the direct evaluation at 140 digits.
        ctx = PrecisionContext(digits=100)
        ref_ctx = PrecisionContext(digits=140)
        for x in ("0.4", "1.8", "-2.5"):
            for offset in (-51, -60):
                with ctx.working():
                    xi = mpc(mpf(x), mpf(10) ** offset)
                got = legendre_ramanujan_r(nu, xi, ctx)
                ref = _r_direct(nu, xi, ref_ctx)
                with ref_ctx.working():
                    assert abs(got - ref) < mpf(10) ** -110 * abs(ref)

    def test_branch_points_rejected(self, ctx30):
        for x in (mpf(1), mpf(-1)):
            with pytest.raises(DomainError):
                legendre_ramanujan_r(Fraction(-1, 2), x, ctx30)

    @pytest.mark.parametrize("nu", [Fraction(-1, 4), Fraction(-1, 3),
                                    Fraction(-1, 2)])
    def test_precision_escalation(self, nu):
        lo = legendre_ramanujan_r(nu, mpf("2.5"), PrecisionContext(digits=25))
        hi = legendre_ramanujan_r(nu, mpf("2.5"), PrecisionContext(digits=40))
        assert abs(lo - hi) < mpf(10) ** -20


class TestAdmissibleRegion:
    def test_known_anchors(self, ctx30):
        with ctx30.working():
            z1 = mpc(mpf(-1) / 8, mpmath.sqrt(15) / 8)
            z2 = mpc(mpf(-7) / 16, mpmath.sqrt(15) / 16)
            assert satisfies_region(z1, 4, ctx30)
            assert satisfies_region(z2, 4, ctx30)

    def test_excluded_disks(self, ctx30):
        with ctx30.working():
            # Deep inside the disk |z - 1/N| < 1/N.
            assert not satisfies_region(mpc("0.25", "0.05"), 4, ctx30)
            assert not satisfies_region(mpc("-0.25", "0.05"), 4, ctx30)

    def test_strip_bound(self, ctx30):
        assert not satisfies_region(mpc("0.8", "1.0"), 2, ctx30)

    def test_invalid_level(self, ctx30):
        with pytest.raises(DomainError):
            satisfies_region(mpc(0, 1), 7, ctx30)
