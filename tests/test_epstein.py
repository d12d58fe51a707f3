"""Epstein zeta values: Fourier expansion vs lattice oracles, closed forms,
the Gamma0(N) coset sums, and the two-line coset-sum lemma."""

import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpc, mpf

from updownlab import (
    CMPoint,
    PrecisionContext,
    dirichlet_l2,
    epstein_gamma0,
    epstein_sl2,
)
from updownlab import epstein
from updownlab.epstein import MAX_EXTRA_DIGITS
from updownlab.identities import load_corpus, load_tables
from updownlab.modular import _pentagonal_table, _qsum_fixed, _reduce_sl2, _sigma3_table
from updownlab.numerics import DomainError, to_fixed

from conftest import random_admissible, random_points
from oracles import _float_point, epstein_fourier_reference, gamma0_lattice_sum


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


    def test_corner_point_at_300_digits(self):
        # rho = (1 + sqrt(-3))/2 sits on the corner of the fundamental
        # domain, where rounding puts |z| on either side of 1.
        ctx = PrecisionContext(digits=300)
        with ctx.working():
            for text in ("1/2+1/2*sqrt(3)*i", "-1/2+1/2*sqrt(3)*i"):
                got = epstein_sl2(CMPoint.from_string(text).to_point(ctx), ctx)
                expected = 135 * dirichlet_l2(-3, ctx) / (4 * mp.pi**2)
                assert abs(got - expected) < ctx.tol


class TestModularInvariance:
    def test_translation_and_inversion(self, ctx30):
        with ctx30.working():
            for z in random_points(4, seed=21):
                e = epstein_sl2(z, ctx30)
                assert abs(e - epstein_sl2(z + 1, ctx30)) < 10 * ctx30.tol
                assert abs(e - epstein_sl2(-1 / z, ctx30)) < 10 * ctx30.tol


class TestBruteForceOracle:
    # The level-1 coset sum is E(z, 2) over the full SL(2, Z) orbit.
    def test_agreement_within_tail(self, ctx30):
        with ctx30.working():
            for z in random_points(5, seed=22, y_range=(0.8, 1.5)):
                exact = epstein_sl2(z, ctx30)
                approx = gamma0_lattice_sum(z, 1, ctx30, radius=150)
                assert abs(exact - approx.value) < approx.tail

    def test_tail_shrinks_quadratically(self, ctx30):
        with ctx30.working():
            z = mpc(0, 1)
            exact = epstein_sl2(z, ctx30)
            err_small = abs(exact - gamma0_lattice_sum(z, 1, ctx30, radius=100).value)
            err_large = abs(exact - gamma0_lattice_sum(z, 1, ctx30, radius=200).value)
            # Doubling the radius should cut the error by about four.
            assert err_large < err_small / 2.5

    def test_minimum_radius_enforced(self, ctx30):
        with pytest.raises(DomainError):
            gamma0_lattice_sum(mpc(0, 1), 1, ctx30, radius=5)


class TestOraclePointSets:
    # The coset sum against a direct double loop at radius 12. They agree to
    # rounding, so a dropped or doubled point shows; agreement within the
    # truncation tail (about 1e-4) cannot see one.
    RADIUS = 12

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    @pytest.mark.parametrize("z", [mpc(0, 1), mpc("0.3", "0.8")])
    def test_gamma0_against_coprime_rows(self, z, level, ctx30):
        with ctx30.working():
            got = gamma0_lattice_sum(z, level, ctx30, radius=self.RADIUS).value
            x, y = float(z.real), float(z.imag)
            expected = y * y
            for k in range(1, self.RADIUS + 1):
                c = level * k
                for d in range(-self.RADIUS, self.RADIUS + 1):
                    if math.gcd(c, abs(d)) == 1:
                        expected += y * y / ((c * x + d) ** 2 + (c * y) ** 2) ** 2
            assert abs(float(got) - expected) <= 1e-14 * expected


class TestGamma0:
    def test_identity_coset_dominates_at_large_height(self, ctx30):
        # The non-identity cosets contribute O(1/y) in total: at y = 200,
        # (4 E(2z) - E(z)) / 15 - y^2 = 45 zeta(3) / (15 pi^3 y) up to
        # e^(-2 pi y), from the constant terms of E.
        with ctx30.working():
            z = mpc("0.1", 200)
            got = epstein_gamma0(z, 2, ctx30)
            rest = 45 * mpmath.zeta(3) / (15 * mp.pi**3 * z.imag)
            assert abs(got - z.imag**2 - rest) < ctx30.tol * got

    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_two_line_lemma(self, level, ctx30):
        # E_N(-1/(Nz)) - E_N(z) = [E(z) - E(Nz)] / (N^2 - 1).
        with ctx30.working():
            for z in random_points(2, seed=30 + level, y_range=(0.6, 1.0)):
                lhs_sum = gamma0_lattice_sum(-1 / (level * z), level, ctx30)
                rhs_sum = gamma0_lattice_sum(z, level, ctx30)
                lhs = lhs_sum.value - rhs_sum.value
                rhs = (epstein_sl2(z, ctx30)
                       - epstein_sl2(level * z, ctx30)) / (level**2 - 1)
                assert abs(lhs - rhs) < 2 * (lhs_sum.tail + rhs_sum.tail)

    def test_invalid_level(self, ctx30):
        # Level 1 is epstein_sl2's sum; level 0 has no cosets.
        for level in (0, 1):
            with pytest.raises(DomainError, match="level"):
                epstein_gamma0(mpc(0, 1), level, ctx30)

    def test_level_above_four_rejected(self, ctx30):
        with pytest.raises(DomainError):
            epstein_gamma0(mpc(0, 1), 5, ctx30)


# G_N(i eps) = 45 zeta(3) eps c_N / pi^3 up to e^(-pi / (N eps)): each
# E(i m eps, 2) = E(i / (m eps), 2) is 1 / (m eps)^2 + 45 zeta(3) m eps / pi^3
# up to e^(-2 pi / (m eps)), the 1 / eps^2 terms cancel in the closed form,
# and the rest leaves c_N = (4*2 - 1)/15, (9*3 - 1)/80 and (4*4 - 2)/60.
CUSP_CONSTANTS = {2: Fraction(7, 15), 3: Fraction(26, 80), 4: Fraction(7, 30)}


class TestGamma0ClosedForm:
    POINTS = ([row["point"] for tab in load_tables() for row in tab["rows"]]
              + [CMPoint.from_string("1/100*i")])

    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_100_digits_against_160(self, level):
        # The E values carry the cancellation bound's extra digits, so the
        # value holds to 10^-100 and past it, to the guard digits' 10^-115,
        # at 1/100*i too, where about 6 digits cancel.
        lo, hi = PrecisionContext(digits=100), PrecisionContext(digits=160)
        assert len(self.POINTS) == 15
        for p in self.POINTS:
            got, want = epstein_gamma0(p, level, lo), epstein_gamma0(p, level, hi)
            with hi.working():
                assert abs(got - want) < lo.eps * want

    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_against_the_float_oracle(self, level):
        # The acceptance suite's admissible points, as complex numbers.
        ctx = PrecisionContext(digits=15)
        with ctx.working():
            for z in random_admissible(10, level, ctx, seed=720 + level):
                want = gamma0_lattice_sum(z, level, ctx, radius=200)
                assert abs(epstein_gamma0(z, level, ctx) - want.value) < want.tail

    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_cusp_value(self, level, ctx30):
        # About 1600 digits cancel at 10^-400 i.
        got = epstein_gamma0(CMPoint.from_string("1/1" + "0" * 400 + "*i"), level, ctx30)
        c = CUSP_CONSTANTS[level]
        with ctx30.working():
            want = 45 * mpmath.zeta(3) * mpf(10) ** -400 * c.numerator / (c.denominator * mp.pi**3)
            assert abs(got - want) < ctx30.tol * want

    def test_past_the_budget_raises_before_summing(self, ctx30, monkeypatch):
        # 10^-600 i would cancel about 2400 digits, past MAX_EXTRA_DIGITS.
        def summed(*args):
            raise AssertionError("epstein_sl2 called past the budget")

        monkeypatch.setattr(epstein, "epstein_sl2", summed)
        assert MAX_EXTRA_DIGITS < 2400
        for z in (CMPoint.from_string("1/1" + "0" * 600 + "*i"), mpc(0, mpf("1e-600"))):
            with pytest.raises(DomainError, match="MAX_EXTRA_DIGITS"):
                epstein_gamma0(z, 2, ctx30)


class TestOracleFloatRange:
    # At 10^200 i the terms |c z + d|^4 overflow a float; at 10^-100 i the
    # smallest eigenvalue lam of the form is a float, but the bound 1/lam^2
    # on a term is not, and at 10^-200 i lam rounds to 0. The oracle, at
    # level 2 and at level 1 (SL(2, Z)), refuses such points before summing.
    @pytest.mark.parametrize("height", [200, -100, -200])
    @pytest.mark.parametrize("oracle", [
        lambda z, ctx: gamma0_lattice_sum(z, 2, ctx),
        lambda z, ctx: gamma0_lattice_sum(z, 1, ctx, radius=200),
    ], ids=["gamma0", "sl2"])
    def test_height_beyond_floats(self, oracle, height, ctx30):
        with ctx30.working():
            z = mpc(0, mpf(10) ** height)
        with pytest.raises(DomainError):
            oracle(z, ctx30)

    # Every level takes the radius check: radius 0 divided by zero in the
    # tail, and a negative radius summed nothing but reported a tail.
    @pytest.mark.parametrize("radius", [0, -5, 9])
    @pytest.mark.parametrize("oracle", [
        lambda z, ctx, radius: gamma0_lattice_sum(z, 2, ctx, radius),
        lambda z, ctx, radius: gamma0_lattice_sum(z, 1, ctx, radius),
    ], ids=["gamma0", "sl2"])
    def test_radius_below_ten_rejected(self, oracle, radius, ctx30):
        with pytest.raises(DomainError, match="radius"):
            oracle(mpc(0, 1), ctx30, radius)

    def test_smallest_eigenvalue_without_cancellation(self):
        # On the imaginary axis the form |2 c z + d|^2 is 4 y^2 c^2 + d^2,
        # so lam = 4 y^2; (tr - sqrt(tr^2 - 4 det)) / 2 gave 3.5 times that.
        y = 2e-9
        _, _, lam = _float_point(mpc(0, y), 2, 600)
        assert abs(lam / (4 * y * y) - 1) < 1e-12


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

    def test_height_beyond_max_terms_reduced(self):
        # Im z = 10^-8 would need about 2 * 10^9 q-series terms, more than
        # MAX_TERMS; reduced to 10^8 i it needs 2, and E(10^8 i, 2) is
        # y^2 + 45 zeta(3) / (pi^3 y) up to e^(-2 pi 10^8).
        ctx = PrecisionContext(digits=30)
        with ctx.working():
            y = mpf(10) ** 8
            expected = y**2 + 45 * mpmath.zeta(3) / (mp.pi**3 * y)
            got = epstein_sl2(mpc(0, 1 / y), ctx)
            assert abs(got - expected) < ctx.tol * expected


class TestReduction:
    def test_invariance_at_300_digits(self):
        ctx = PrecisionContext(digits=300)
        with ctx.working():
            for z in (mpc("0.37", "1.21"), mpc("-0.41", "0.12"), mpc("0.5", "0.05")):
                e = epstein_sl2(z, ctx)
                assert abs(e - epstein_sl2(z + 1, ctx)) < 10 * ctx.tol * e
                assert abs(e - epstein_sl2(-1 / z, ctx)) < 10 * ctx.tol * e

    def test_low_corpus_points_against_unreduced_reference(self, corpus):
        # The corpus points with Im z < 0.25 reduce to Im z >= sqrt(3)/2;
        # the reference sums the unreduced expansion at dps + 40.
        ctx = PrecisionContext(digits=300)
        points = {p for inst in corpus.kronecker for p in inst.points}
        low = [p for p in points if -4 * p.disc < p.A * p.A]  # y < 1/4
        assert len(low) == 2
        for p in low:
            z = p.to_point(ctx)
            with ctx.working():
                got = epstein_sl2(z, ctx)
                expected = epstein_fourier_reference(z, ctx.dps + 40)
                assert abs(got - expected) < ctx.eps * expected


def test_precision_escalation():
    z = mpc("0.37", "1.21")
    lo = epstein_sl2(z, PrecisionContext(digits=30))
    hi = epstein_sl2(z, PrecisionContext(digits=45))
    assert abs(lo - hi) < mpf(10) ** -28


def _rounding_mismatches(ctx, extra=()):
    """The points, among the distinct corpus points and the points (x, y) in
    ``extra``, at which epstein_sl2 differs in any bit from epstein_fourier_reference
    at its reduced point w, summed at ctx.dps + 60 digits and rounded at ctx."""
    points = sorted({p for inst in load_corpus().kronecker for p in inst.points}, key=str)
    with ctx.working():
        zs = [p.to_point(ctx) for p in points] + [mpc(x, y) for x, y in extra]
    bad = []
    for z in zs:
        with ctx.working():
            w = _reduce_sl2(z, ctx)[0]
            want = +epstein_fourier_reference(w, ctx.dps + 60)
        if epstein_sl2(z, ctx)._mpf_ != want._mpf_:
            bad.append(z)
    return bad


class TestCorrectRounding:
    @pytest.mark.parametrize("digits", [40, 300, pytest.param(1000, marks=pytest.mark.highprec)])
    def test_correctly_rounded_at_the_reduced_point(self, digits):
        # One fixed-point pass and one rounding: the bits of E(w, 2) summed
        # 60 digits wider and rounded once at the working precision.
        extra = [(x, h) for x in ("-0.41", "0.23") for h in ("0.02", "0.3", "1.7")]
        assert _rounding_mismatches(PrecisionContext(digits=digits), extra) == []


def _cm_rounding_mismatches(ctx):
    """(bad, n): the points, among the n distinct corpus CMPoints p, at which
    epstein_sl2(p) differs in any bit from the oracle at the exact reduced
    point p.reduced(), embedded and summed 60 digits wider and rounded once
    at ctx."""
    points = sorted({p for inst in load_corpus().kronecker for p in inst.points}, key=str)
    wide = PrecisionContext(ctx.digits + 60)
    bad = []
    for p in points:
        want = epstein_fourier_reference(p.reduced().to_point(wide), wide.dps)
        with ctx.working():
            want = +want
        if epstein_sl2(p, ctx)._mpf_ != want._mpf_:
            bad.append(str(p))
    return bad, len(points)


class TestCorrectRoundingAtCMPoints:
    @pytest.mark.parametrize("digits", [40, 300, pytest.param(1000, marks=pytest.mark.highprec)])
    def test_correctly_rounded_at_the_exact_point(self, digits):
        # A CMPoint is reduced as an integer form and its reduced point
        # embedded once at the kernel's precision: no rounding of z comes
        # before the one of E, so E is correctly rounded at the exact point.
        assert _cm_rounding_mismatches(PrecisionContext(digits=digits)) == ([], 52)


def _lane_mismatches(ctx):
    """(bad, n): the reduced points w, among the n distinct reduced corpus
    points, at which the real-lane sums epstein_sl2 reads from _qsum_fixed
    differ in P or in any bit from the Re parts of the two-lane sums at the
    same w and guard bits."""
    calls = []

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return _qsum_fixed(*args, **kwargs)

    with ctx.working():
        points = {_reduce_sl2(p.to_point(ctx), ctx)[0]
                  for inst in load_corpus().kronecker for p in inst.points}
    epstein._qsum_fixed = recorded
    try:
        for w in points:
            epstein_sl2(w, ctx)
    finally:
        epstein._qsum_fixed = _qsum_fixed
    bad = [args[0] for args, kwargs in calls
           if kwargs != {"imag": False} or _qsum_fixed(*args, **kwargs)[:2] != _qsum_fixed(*args)[:2]]
    return bad, len(points)


class TestRealLane:
    @pytest.mark.parametrize("digits", [40, 300, pytest.param(1000, marks=pytest.mark.highprec)])
    def test_bits_of_the_two_lane_pass(self, digits):
        # Skipping the Im lane leaves the Re lane's bits as they are.
        assert _lane_mismatches(PrecisionContext(digits=digits)) == ([], 52)


def _fixed_sl2(w, ctx):
    """(total, P): epstein_sl2's E(w, 2) at the reduced point w before its
    one rounding, total / 2^P, from the same kernel call and finish."""
    prec, (s2, s3), _ = _qsum_fixed(w, ctx, _sigma3_table, (2, 3), imag=False)
    y = to_fixed(w.imag, prec)[0]
    zeta3, scale, inv_2pi = epstein._sl2_plan(prec)
    total = (y * y >> prec) + (zeta3 << prec) // y + (scale * (s2 + s3 * inv_2pi // y) >> prec)
    return total, prec


def _guard_gaps(ctx):
    """(gaps, n): at each of the n distinct reduced corpus points w, the gap
    between the unrounded fixed-point E(w, 2) at ctx and the same finish at
    ctx.digits + 40 with the same w, in ulps of E at ctx's working precision.
    Each ctx value, rounded once, must be epstein_sl2's."""
    wide = PrecisionContext(ctx.digits + 40)
    wp = mpmath.libmp.dps_to_prec(ctx.dps)
    with ctx.working():
        points = {_reduce_sl2(p.to_point(ctx), ctx)[0]
                  for inst in load_corpus().kronecker for p in inst.points}
    gaps = []
    for w in points:
        total, prec = _fixed_sl2(w, ctx)
        with ctx.working():
            assert (+mpmath.ldexp(total, -prec))._mpf_ == epstein_sl2(w, ctx)._mpf_
        wide_total, wide_prec = _fixed_sl2(w, wide)
        gap = abs(Fraction(total, 2**prec) - Fraction(wide_total, 2**wide_prec))
        gaps.append(gap * 2 ** (wp - (total.bit_length() - prec)))
    return gaps, len(points)


def _qsum_guard_gaps(ctx):
    """(gaps, n): at each of the n distinct reduced eta arguments w of the
    table rows (z and Nz at each row), the largest gap, over both lanes and
    the powers 0, 1, 2, between _qsum_fixed's unrounded sums on Euler's table
    at ctx and the same sums at ctx.digits + 40 with the same w, in ulps of 1
    at ctx's working precision, the unit of the kernel's error bound."""
    wide = PrecisionContext(ctx.digits + 40)
    wp = mpmath.libmp.dps_to_prec(ctx.dps)
    with ctx.working():
        rows = [(tab["level"], row["point"].to_point(ctx))
                for tab in load_tables() for row in tab["rows"]]
        points = {_reduce_sl2(v, ctx)[0] for N, z in rows for v in (z, N * z)}
    gaps = []
    for w in points:
        prec, re, im = _qsum_fixed(w, ctx, _pentagonal_table, (0, 1, 2))
        wide_prec, wide_re, wide_im = _qsum_fixed(w, wide, _pentagonal_table, (0, 1, 2))
        gaps.append(max(abs(Fraction(a, 2**prec) - Fraction(b, 2**wide_prec))
                        for a, b in zip(re + im, wide_re + wide_im)) * 2**wp)
    return gaps, len(points)


class TestGuardBits:
    @pytest.mark.parametrize("digits", [40, 300])
    def test_unrounded_sum_within_its_bound(self, digits):
        # The 24 guard bits keep the unrounded E(w, 2) within 2^-22 ulps of
        # the same sum 40 digits wider, as the correct rounding needs.
        gaps, n = _guard_gaps(PrecisionContext(digits=digits))
        assert n == 52 and max(gaps) <= Fraction(1, 2**22)

    @pytest.mark.parametrize("digits", [40, 300])
    def test_euler_sums_within_their_bound(self, digits):
        # The same guard bits hold the two-lane sums that eta and E2* read
        # within 2^-22 ulps of 1 before _qsum rounds them.
        gaps, n = _qsum_guard_gaps(PrecisionContext(digits=digits))
        assert n == 28 and max(gaps) <= Fraction(1, 2**22)
