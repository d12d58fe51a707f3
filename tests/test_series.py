"""Central-binomial series evaluation and the series constants at CM points."""

import math
import re
from fractions import Fraction

import mpmath
import pytest
from mpmath import libmp, mp, mpc, mpf

from updownlab import (
    PrecisionContext,
    QuadraticNumber,
    SeriesFamily,
    UpsideDownSeries,
    FibLucasSeries,
    evaluate_updown,
    alpha_n,
    legendre_ramanujan_r,
    satisfies_region,
    series_constants_from_cm,
    sigma_gr,
    sigma_gr_im_rhs,
)
from updownlab import eichler_e4_tilde, modular, numerics, series
from updownlab.identities import load_corpus, load_tables
from updownlab.modular import _ALPHA_SCALE, _NU_BY_LEVEL, CMPoint, _eta_e2_star, _qsum
from updownlab.numerics import KEPT_TERMS, MAX_TERMS, DomainError, embed_quadratic, to_fixed
from updownlab.series import _FAMILY_BY_LEVEL, _fib_halves, evaluate_fib_series

from conftest import random_admissible, random_points, sigma1_table
from oracles import fibonacci_lucas


def _exact(x) -> Fraction:
    """The rational number an mpf stores."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


def _exact_sum(c1, c2, m, family, k_max, weights=None):
    """sum_{k<=k_max} w_k (c1 k - c2) m^k / (k^3 denom(k)) in exact Gaussian
    rationals, (Re num, Im num, den), for mpf/mpc c1, c2, m, with the
    integer weights w_k = weights[k-1], or 1.

    With every input equal to G / 2^E for a Gaussian integer G, Horner's
    rule from the last term, y_k = m k^3 / den_k (lin_k / k^3 + y_{k+1}),
    keeps a Gaussian integer over an integer without reducing fractions.
    """
    parts = [(_exact(v.real), _exact(v.imag)) for v in (c1, c2, m)]
    scale = max(x.denominator for pair in parts for x in pair)  # 2^E
    (ar, ai), (br, bi), (mr, mi) = (
        (int(x * scale), int(y * scale)) for x, y in parts)
    yr, yi, d = 0, 0, 1
    for k in range(k_max, 0, -1):
        cube, den_k = family.ratio(k)
        w = weights[k - 1] if weights else 1
        lr, li = (ar * k - br) * w, (ai * k - bi) * w
        sr = lr * d + yr * scale * cube
        si = li * d + yi * scale * cube
        yr, yi = mr * sr - mi * si, mr * si + mi * sr
        d *= scale * scale * den_k
    return yr, yi, d


def _plain_linear_series(c1, c2, m, family, ctx):
    """The series loop with one full-width product, u_{k-1} m, per term, and
    its own term-count plan: the oracle for the blocked loop's K and bits.
    Rounding: under 4 K (|c1| K + |c2| + 1) / (1-r) ulps of 2^-P."""
    with ctx.working():
        r = abs(m) / family.scale
        if r >= 1:
            raise DomainError(f"series diverges: |m|/{family.scale} = {float(r)}")
        exact = (r, 1 - r, abs(c1), abs(c2))
        r, gap, a1, a2 = plan = [float(v) for v in exact]
        underflow = any(v and not f for f, v in zip(plan, exact))
        base = libmp.dps_to_prec(ctx.bumped().dps)
    lin, const = a1 / gap / gap, a2 / gap
    big = max(lin, const)
    try:
        if underflow or math.isinf(big):
            raise OverflowError
        K = 1
        if r and big:
            rate = -math.log(r) if r < 0.5 else -math.log1p(-gap)
            top = (math.log(big) + math.log(family.scale / family.ratio(1)[1])
                   + ctx.dps * math.log(10) - rate)
            w1, w0 = lin / big, const / big
            last = 0
            while K != last:
                step = (top + math.log(w1 * (K + 1) + w0)) / rate
                last, K = K, max(K, math.ceil(step))
            K += 1
        if K > MAX_TERMS:
            raise DomainError(f"series needs {K} terms at {ctx.dps} digits, "
                              f"more than MAX_TERMS = {MAX_TERMS}")
        prec = base + int(4 * K * (a1 * K + a2 + 1) / gap).bit_length()
    except OverflowError:
        raise DomainError(f"series plan leaves the float range: "
                          f"r, 1 - r, |c1|, |c2| = {plan}") from None
    (c1r, c1i), (c2r, c2i), (mr, mi) = (to_fixed(v, prec) for v in (c1, c2, m))
    c, a = family.c, family.a
    if not any(isinstance(v, mpc) for v in (c1, c2, m)):
        u, s2, s3 = 1 << prec, 0, 0
        for k in range(1, K + 1):
            ak = a * k
            s = ((u * mr) >> prec) // (c * (2 * k - 1)) // ((ak - 1) * (ak - a + 1))
            s3 += s
            s2 += k * s
            u = s * k * k * k
        return mpmath.ldexp((c1r * s2 - c2r * s3) >> prec, -prec), K
    ur, ui = 1 << prec, 0
    s2r = s2i = s3r = s3i = 0
    for k in range(1, K + 1):
        ak = a * k
        p, q = c * (2 * k - 1), (ak - 1) * (ak - a + 1)
        sr = ((ur * mr - ui * mi) >> prec) // p // q
        si = ((ur * mi + ui * mr) >> prec) // p // q
        s3r += sr
        s3i += si
        s2r += k * sr
        s2i += k * si
        cube = k * k * k
        ur, ui = sr * cube, si * cube
    total_r = (c1r * s2r - c1i * s2i - c2r * s3r + c2i * s3i) >> prec
    total_i = (c1r * s2i + c1i * s2r - c2r * s3i - c2i * s3r) >> prec
    with ctx.working():
        return mpc(mpmath.ldexp(total_r, -prec), mpmath.ldexp(total_i, -prec)), K


def _record_loops(ctx):
    """{record id: [(c1, c2, m, family), ...]}: the loops that each corpus
    left-hand side runs at ctx, one per (family, m) group, found without
    running any loop."""
    loops, found = {}, []
    original = series._sum_linear_series

    def recording(c1, c2, m, family, ctx):
        found.append((c1, c2, m, family))
        return mpf(0), 0

    series._sum_linear_series = recording
    try:
        for record in load_corpus().identities:
            series.evaluate_series_sum(((t.weight, t.series) for t in record.lhs), ctx)
            loops[record.id] = found[:]
            found.clear()
    finally:
        series._sum_linear_series = original
    return loops


def _corpus_loops(ctx):
    """The distinct (c1, c2, m, family) of _record_loops."""
    return list(dict.fromkeys(loop for loops in _record_loops(ctx).values() for loop in loops))


def _plain_loop_mismatches(ctx):
    """The corpus loops that the plain loop sums (not CRVZ) whose blocked sum
    and one-product-per-term sum differ in K or in their bits rounded at ctx."""
    loops = [loop for loop in _corpus_loops(ctx) if not series._plan(*loop, ctx)[1]]
    bad = []
    for loop in loops:
        value, K = series._sum_linear_series(*loop, ctx)
        plain, plain_K = _plain_linear_series(*loop, ctx)
        with ctx.working():
            if K != plain_K or (+value)._mpf_ != (+plain)._mpf_:
                bad.append((loop[3].tag, mpmath.nstr(loop[2], 8), K, plain_K))
    return bad


def _crvz_against_plain(ctx):
    """(record id, n, K, |CRVZ - plain| / ctx.eps) for each corpus loop summed
    by CRVZ in n terms, against the loop with one product per term and its K."""
    rows = []
    for rid, loops in _record_loops(ctx).items():
        for loop in loops:
            if series._plan(*loop, ctx)[1]:
                value, n = series._sum_linear_series(*loop, ctx)
                plain, K = _plain_linear_series(*loop, ctx)
                with ctx.working():
                    rows.append((rid, n, K, abs(value - plain) / ctx.eps))
    return rows


def _algorithm_1(n):
    """(d, [w_1 .. w_n]): CRVZ Algorithm 1 in exact rationals, with
    sum_{k>=1} s_k ~ sum_k w_k s_k / d for s_1 < 0 and alternating signs:
    w_k = (-1)^(k-1) c_{k-1}, d = T_n(3) from T_{j+1} = 6 T_j - T_{j-1}."""
    d, last = 1, 3  # T_0 and T_-1 = T_1 at 3
    for _ in range(n):
        d, last = 6 * d - last, d
    b, c, weights = Fraction(-1), Fraction(-d), []
    for k in range(n):
        c = b - c
        weights.append((-1) ** k * c)
        b = (k + n) * (k - n) * b / (Fraction(2 * k + 1, 2) * (k + 1))
    assert all(w.denominator == 1 for w in weights)
    return d, [int(w) for w in weights]


DENOMINATORS = {
    SeriesFamily.CENTRAL3: lambda k: math.comb(2 * k, k) ** 3,
    SeriesFamily.C2X3K: lambda k: math.comb(2 * k, k) ** 2 * math.comb(3 * k, k),
    SeriesFamily.C2X4K: lambda k: math.comb(2 * k, k) ** 2 * math.comb(4 * k, 2 * k),
}


class TestDenominators:
    @pytest.mark.parametrize("family,formula", list(DENOMINATORS.items()))
    def test_recurrence_matches_comb(self, family, formula):
        # The product of the term ratios denom(j-1)/denom(j) is 1/denom(k).
        product = Fraction(1)
        for k in range(1, 26):
            num, den = family.ratio(k)
            product *= Fraction(num, den)
            assert product == Fraction(1, formula(k))

    def test_scales(self):
        assert SeriesFamily.CENTRAL3.scale == 64
        assert SeriesFamily.C2X3K.scale == 108
        assert SeriesFamily.C2X4K.scale == 256


class TestFibonacciLucas:
    def test_against_iteration(self):
        f0, f1 = 0, 1
        for n in range(100):
            f, lucas = fibonacci_lucas(n)
            assert f == f0
            assert lucas == 2 * f1 - f0
            f0, f1 = f1, f0 + f1

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            fibonacci_lucas(-1)


class TestEvaluateUpdown:
    def test_against_direct_mpmath_loop(self):
        # Independent re-summation with math.comb denominators and m**k, for
        # every family, at 30 and 300 digits.
        cases = [
            (SeriesFamily.CENTRAL3, QuadraticNumber(-105, 48, 5),
             QuadraticNumber(-44, 20, 5),
             QuadraticNumber(Fraction(47, 2), Fraction(21, 2), 5)),
            (SeriesFamily.C2X3K, QuadraticNumber(7, -3, 5),
             QuadraticNumber(Fraction(1, 3), 2, 5), QuadraticNumber(27, 9, 5)),
            (SeriesFamily.C2X4K, QuadraticNumber(-5, 2, 2),
             QuadraticNumber(11, Fraction(-1, 4), 2), QuadraticNumber(64, -16, 2)),
        ]
        for digits in (30, 300):
            ctx = PrecisionContext(digits=digits)
            for family, a_q, b_q, m_q in cases:
                s = UpsideDownSeries(family, a_q, b_q, m_q)
                denom = DENOMINATORS[family]
                with ctx.working():
                    a = embed_quadratic(a_q, ctx)
                    b = embed_quadratic(b_q, ctx)
                    m = embed_quadratic(m_q, ctx)
                    direct = mpf(0)
                    k = 0
                    while True:
                        k += 1
                        term = (a * k - b) * m**k / (k**3 * denom(k))
                        direct += term
                        if abs(term) < ctx.eps / 10**6:
                            break
                    got = evaluate_updown(s, ctx)
                    assert abs(got - direct) < 10 * ctx.tol, (family, digits)

    def test_complex_m_through_sigma_gr(self, ctx30):
        # At a point with complex m the weighted series is summed in mpc;
        # compare with a direct loop over the same constants.
        z = mpc("0.3", "0.6")
        assert satisfies_region(z, 4, ctx30)
        with ctx30.working():
            c1, c2, m = series_constants_from_cm(z, 4, ctx30)
            assert abs(m.imag) > 1
            direct = mpc(0)
            for k in range(1, 2000):
                term = (c1 * k - c2) * m**k / (k**3 * math.comb(2 * k, k) ** 3)
                direct += term
                if abs(term) < ctx30.eps / 10**6:
                    break
            got = sigma_gr(z, 4, ctx30)
            assert isinstance(got, mpc)
            assert abs(got - direct) < 10 * ctx30.tol

    def test_complex_m_against_exact_rational_loop(self):
        # sigma_gr's constants read as the exact rationals they store, summed
        # in exact Gaussian rationals, so that only the fixed-point loop rounds.
        ctx = PrecisionContext(digits=60)
        z = mpc("0.3", "0.6")
        with ctx.working():
            c1, c2, m = series_constants_from_cm(z, 4, ctx)
            got = sigma_gr(z, 4, ctx)
            ratio = float(abs(m)) / 64
        assert m.imag != 0
        # Terms fall below |c1| ratio^k, so K terms reach 10^-(dps+10).
        k_max = int((ctx.dps + 10) * math.log(10) / -math.log(ratio)) + 20
        num_r, num_i, den = _exact_sum(c1, c2, m, SeriesFamily.CENTRAL3, k_max)
        with mpmath.workdps(ctx.dps + 20):
            exact = mpc(mpf(num_r) / den, mpf(num_i) / den)
            assert abs(got - exact) < ctx.eps * abs(exact)

    def test_zero_series(self, ctx30):
        s = UpsideDownSeries(SeriesFamily.CENTRAL3, QuadraticNumber(0),
                             QuadraticNumber(0), QuadraticNumber(1))
        assert evaluate_updown(s, ctx30) == 0
        assert series.evaluate_series_sum(((QuadraticNumber(1), s),), ctx30) == (0, 0)

    def test_divergent_rejected(self, ctx30):
        s = UpsideDownSeries(SeriesFamily.CENTRAL3, QuadraticNumber(1),
                             QuadraticNumber(0), QuadraticNumber(64))
        with pytest.raises(DomainError):
            evaluate_updown(s, ctx30)

    def test_term_budget_over_max_terms_rejected(self):
        # |m|/64 = 1 - 10^-6 needs about 1.5e8 terms at 45 digits, more than
        # MAX_TERMS, and raises before the loop.
        ctx = PrecisionContext(digits=30)
        m = QuadraticNumber(64 * (1 - Fraction(1, 10**6)))
        s = UpsideDownSeries(SeriesFamily.CENTRAL3, QuadraticNumber(1),
                             QuadraticNumber(0), m)
        with pytest.raises(DomainError, match="MAX_TERMS"):
            evaluate_updown(s, ctx)

    def test_term_counter(self, ctx30):
        s = UpsideDownSeries(SeriesFamily.CENTRAL3, QuadraticNumber(1),
                             QuadraticNumber(0), QuadraticNumber(1))
        _, count = series.evaluate_series_sum(((QuadraticNumber(1), s),), ctx30)
        assert count > 4


class TestTermCount:
    @pytest.mark.parametrize("digits", [40, 300])
    def test_corpus_tails_below_eps(self, digits, monkeypatch):
        # Each loop's value is within ctx.eps of the same series summed to
        # twice the plain loop's K at 20 more digits by an mpf recurrence:
        # the tail bound, and CRVZ's bound where it sums in n < K terms.
        ctx = PrecisionContext(digits=digits)
        loops = _corpus_loops(ctx)
        assert len(loops) >= 20
        for c1, c2, m, family in loops:
            value, count = series._sum_linear_series(c1, c2, m, family, ctx)
            with monkeypatch.context() as plain:
                plain.setattr(series, "_CRVZ_COST", math.inf)
                K = series._plan(c1, c2, m, family, ctx)[0]
            assert count <= K
            with mpmath.workdps(ctx.dps + 20):
                u, ref = mpf(1), mpf(0)
                for k in range(1, 2 * K + 1):
                    cube, den = family.ratio(k)
                    u = u * m * cube / den
                    ref += (c1 * k - c2) * u / cube
                assert abs(value - ref) <= ctx.eps, (family, m, count)

    @pytest.mark.parametrize("digits, r", [
        (10, "1e-30"), (10, "3e-4"), (10, "0.5"), (10, "0.99"),
        (300, "1e-30"), (300, "3e-4"), (300, "0.5")])
    @pytest.mark.parametrize("c1, c2", [(3.5, -2), (0, 1), (4.7e10, 1e3)])
    def test_count_is_least_within_two(self, digits, r, c1, c2):
        # K meets the tail bound |s_1| r^K (|c1| (K+1)/(1-r)^2 + |c2|/(1-r))
        # <= eps, and K - 2 does not unless K sits at its floor 1 + 1: the
        # steps converge, for tiny r and for r close to 1 alike.
        ctx = PrecisionContext(digits=digits)
        family = SeriesFamily.C2X4K
        with ctx.working():
            m = mpf(r) * family.scale
            _, count = series._sum_linear_series(mpf(c1), mpf(c2), m, family, ctx)
        with mpmath.workdps(ctx.dps + 20):
            ratio = m / family.scale
            head = m / family.ratio(1)[1]

            def bound(k):
                return head * ratio**k * (abs(c1) * (k + 1) / (1 - ratio) ** 2
                                          + abs(c2) / (1 - ratio))

            assert bound(count) <= ctx.eps
            assert count <= 2 or bound(count - 2) > ctx.eps

    @pytest.mark.parametrize("gap", ["1e-6", "1e-9"])
    def test_count_converges_near_one(self, gap):
        # Over MAX_TERMS terms: the count is read from the budget error, so
        # no loop runs. Fixed-point steps from K = 1 converge slowly here.
        ctx = PrecisionContext(digits=10)
        family = SeriesFamily.CENTRAL3
        with ctx.working():
            ratio = 1 - mpf(gap)
            with pytest.raises(DomainError, match="MAX_TERMS") as err:
                series._sum_linear_series(mpf(1), mpf(1), ratio * family.scale,
                                          family, ctx)
        count = int(re.search(r"needs (\d+) terms", str(err.value)).group(1))
        with mpmath.workdps(ctx.dps + 20):
            head = ratio * family.scale / family.ratio(1)[1]

            def bound(k):
                return head * ratio**k * ((k + 1) / (1 - ratio) ** 2 + 1 / (1 - ratio))

            assert bound(count) <= ctx.eps < bound(count - 2)

    def test_zero_m_sums_one_term(self, ctx30):
        with ctx30.working():
            value, count = series._sum_linear_series(mpf(3), mpf(2), mpf(0),
                                                     SeriesFamily.C2X3K, ctx30)
        assert value == 0 and count == 1


class TestRealLoop:
    @pytest.mark.parametrize("digits", [40, 300])
    def test_mpf_inputs_give_the_real_bits_of_mpc_inputs(self, corpus, digits, monkeypatch):
        # The phi^8 half of fib1 (CENTRAL3), b6 (C2X3K) and c3 (C2X4K), on
        # the plain loop: mpc inputs never take CRVZ. The mpf is the
        # fixed-point sum itself, which mpc rounds at ctx's working
        # precision: rounded there, it has the bits of the real part.
        monkeypatch.setattr(series, "_CRVZ_COST", math.inf)
        ctx = PrecisionContext(digits=digits)
        wide = ctx.bumped()
        (c1, c2, m), _ = _fib_halves(corpus.identity("fib1").lhs[0].series)
        cases = [(c1, c2, m, SeriesFamily.CENTRAL3)]
        for rid in ("b6", "c3"):
            s = corpus.identity(rid).lhs[0].series
            cases.append((s.a, s.b, s.m, s.family))
        assert [f for *_, f in cases] == list(SeriesFamily)
        for a, b, m, family in cases:
            with wide.working():
                real = [embed_quadratic(v, wide) for v in (a, b, m)]
                cplx = [mpc(v, 0) for v in real]
            value, K = series._sum_linear_series(*real, family, ctx)
            cvalue, cK = series._sum_linear_series(*cplx, family, ctx)
            assert isinstance(value, mpf) and isinstance(cvalue, mpc)
            with ctx.working():
                assert ((+value)._mpf_, K) == (cvalue.real._mpf_, cK)


def _documented_count(c1, c2, m, family, K, ctx):
    """(P, N) of _sum_linear_series's docstring: the loop's bits and its
    rounding count, N ulps of 2^-P, for a loop of K terms."""
    g = series._BLOCK
    with ctx.working():
        r = abs(m) / family.scale
        a1, a2, gap, am = (float(v) for v in (abs(c1), abs(c2), 1 - r, abs(m)))
    count = 5 * K * (a1 * K + a2 + 1) / gap
    guard = g * max(0, math.frexp(am)[1])
    P = libmp.dps_to_prec(ctx.bumped().dps) + int(count).bit_length() + guard
    return P, Fraction(count) * 2**guard


class TestBlocks:
    G = series._BLOCK

    @staticmethod
    def _cases(corpus, ctx):
        """(name, c1, c2, m, family) on ctx.bumped(): m = 0, psi^8 (|m| < 1),
        b6's and c3's negative m with |m| > 1, and the complex m at
        0.3 + 0.6i, over every family."""
        wide = ctx.bumped()
        _, psi_half = _fib_halves(corpus.identity("fib1").lhs[0].series)
        cases = []
        with wide.working():
            cases.append(("zero", mpf(3), mpf(2), mpf(0), SeriesFamily.C2X3K))
            cases.append(("psi8", *(embed_quadratic(v, wide) for v in psi_half),
                          SeriesFamily.CENTRAL3))
            for rid in ("b6", "c3"):
                s = corpus.identity(rid).lhs[0].series
                cases.append((rid, *(embed_quadratic(v, wide) for v in (s.a, s.b, s.m)),
                              s.family))
        cases.append(("gaussian", *series_constants_from_cm(mpc("0.3", "0.6"), 4, ctx),
                      SeriesFamily.CENTRAL3))
        return cases

    @pytest.mark.parametrize("K", [1, G - 1, G, G + 1, 2 * G + 1, 32 * G, 32 * G + 1])
    def test_block_edges_within_the_documented_count(self, corpus, K, monkeypatch):
        # K terms summed exactly in Gaussian rationals from the inputs' own
        # bits; the loop is within its docstring's N ulps of 2^-P, plus the
        # rounding at ctx's working precision of a complex result. K runs
        # over the edges of blocks, all below CRVZ's cost at 30 digits, so
        # b6 and c3 stay on the plain loop.
        ctx = PrecisionContext(digits=30)
        monkeypatch.setattr(series, "_term_count", lambda *args: K)
        for name, c1, c2, m, family in self._cases(corpus, ctx):
            assert series._plan(c1, c2, m, family, ctx)[:2] == (K, False)
            P, N = _documented_count(c1, c2, m, family, K, ctx)
            for v in (c1, c2, m):
                assert all((_exact(x) * 2**P).denominator == 1 for x in (v.real, v.imag))
            value, count = series._sum_linear_series(c1, c2, m, family, ctx)
            assert count == K
            num_r, num_i, den = _exact_sum(c1, c2, m, family, K)
            err_r = _exact(value.real) - Fraction(num_r, den)
            err_i = _exact(value.imag) - Fraction(num_i, den)
            allowed = N / 2**P
            if isinstance(value, mpc):
                wp = libmp.dps_to_prec(ctx.dps)
                allowed += (abs(_exact(value.real)) + abs(_exact(value.imag))) / 2**wp
            assert err_r**2 + err_i**2 <= allowed**2, (name, K)

    def test_loop_past_the_kept_table(self, corpus, monkeypatch):
        # A bound of one block: the phi^8 loop at 40 digits runs past it on a
        # ratio table of its own, which is not kept. The bits are those of
        # the loop with the bound raised, and rounded at ctx those of the
        # one-product loop.
        ctx = PrecisionContext(digits=40)
        wide = ctx.bumped()
        phi_half, _ = _fib_halves(corpus.identity("fib1").lhs[0].series)
        with wide.working():
            loop = (*(embed_quadratic(v, wide) for v in phi_half), SeriesFamily.CENTRAL3)
        default, default_K = series._sum_linear_series(*loop, ctx)
        monkeypatch.setattr(numerics, "_kept", {})
        monkeypatch.setattr(numerics, "KEPT_TERMS", self.G)
        value, K = series._sum_linear_series(*loop, ctx)
        assert K > self.G
        assert numerics._kept == {}
        assert (value._mpf_, K) == (default._mpf_, default_K)
        plain, plain_K = _plain_linear_series(*loop, ctx)
        with ctx.working():
            assert ((+value)._mpf_, K) == ((+plain)._mpf_, plain_K)

    def test_kernel_and_loop_past_the_bound_keep_no_more(self, corpus, monkeypatch):
        # The Eichler integral at 0.123 + 0.0005i (n_max = 47645) and a loop
        # of KEPT_TERMS + 3 terms run past the bound, each after a call that
        # keeps a table: no kept table then covers more than KEPT_TERMS
        # coefficients, n for sigma_3 and terms k for a family's ratios.
        ctx = PrecisionContext(digits=30)
        case = self._cases(corpus, ctx)[1][1:]  # psi^8, CENTRAL3
        monkeypatch.setattr(numerics, "_kept", {})
        for height in ("0.001", "0.0005"):
            with ctx.working():
                z = mpc("0.123", height)
            eichler_e4_tilde(z, ctx)
        assert modular._qseries_cutoff(z.imag, ctx) > KEPT_TERMS
        for K in (100, KEPT_TERMS + 3):
            monkeypatch.setattr(series, "_term_count", lambda *args, K=K: K)
            assert series._sum_linear_series(*case, ctx)[1] == K
        family = SeriesFamily.CENTRAL3
        assert set(numerics._kept) == {modular._sigma3_table, family.ratio_table}
        assert all(size <= KEPT_TERMS for size, _ in numerics._kept.values())
        assert len(numerics._kept[modular._sigma3_table][1]) - 1 <= KEPT_TERMS
        assert len(numerics._kept[family.ratio_table][1]) * self.G <= KEPT_TERMS


class TestBlockedAgainstPlainLoop:
    @pytest.mark.parametrize("digits", [40, 300, 1000,
                                        pytest.param(2000, marks=pytest.mark.highprec)])
    def test_every_corpus_group(self, digits):
        # Same K and the same bits once rounded at ctx as the loop that pays
        # one full-width product per term, on every loop the plain loop sums.
        bad = _plain_loop_mismatches(PrecisionContext(digits=digits))
        assert not bad


class TestCRVZ:
    G = series._BLOCK

    @pytest.mark.parametrize("digits", [40, 300, 1000,
                                        pytest.param(4000, marks=pytest.mark.highprec)])
    def test_b6_and_c3_within_one_eps_of_the_plain_loop(self, digits):
        rows = _crvz_against_plain(PrecisionContext(digits=digits))
        assert [rid for rid, *_ in rows] == ["b6", "c3"]
        for rid, n, K, gap in rows:
            assert n < K and gap <= 1, (rid, n, K, gap)

    @pytest.mark.parametrize("digits", [40, 300, 1000, 2000])
    def test_rule_picks_exactly_b6_and_c3(self, digits):
        # b7 (m/scale = -0.42) stays on the plain loop: K / n = 2.1 there.
        ctx = PrecisionContext(digits=digits)
        picked = {rid for rid, loops in _record_loops(ctx).items()
                  for loop in loops if series._plan(*loop, ctx)[1]}
        assert picked == {"b6", "c3"}

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_weights_are_algorithm_1s(self, n):
        d, weights = series._crvz_weights(n)
        assert (d, list(weights)) == _algorithm_1(n)

    @pytest.mark.parametrize("n", [1, G - 1, G, G + 1, 2 * G + 1])
    def test_block_edges_within_the_documented_count(self, corpus, n, monkeypatch):
        # n terms weighted by Algorithm 1 and summed exactly from the inputs'
        # own bits: the loop is within the docstring's count for K = n. b6
        # and c3 have |m| > 1; m = -1/2 has |m| < 1.
        ctx = PrecisionContext(digits=30)
        wide = ctx.bumped()
        monkeypatch.setattr(series, "_crvz_count", lambda *args: n)
        monkeypatch.setattr(series, "_term_count", lambda *args: MAX_TERMS)
        with wide.working():
            cases = [("half", mpf(5), mpf(-3), mpf(-0.5), SeriesFamily.C2X4K)]
            for rid in ("b6", "c3"):
                s = corpus.identity(rid).lhs[0].series
                cases.append((rid, *(embed_quadratic(v, wide) for v in (s.a, s.b, s.m)),
                              s.family))
        d, weights = _algorithm_1(n)
        for name, c1, c2, m, family in cases:
            assert series._plan(c1, c2, m, family, ctx)[:2] == (n, True)
            P, N = _documented_count(c1, c2, m, family, n, ctx)
            value, count = series._sum_linear_series(c1, c2, m, family, ctx)
            assert isinstance(value, mpf) and count == n
            num, _, den = _exact_sum(c1, c2, m, family, n, weights)
            assert abs(_exact(value) - Fraction(num, den * d)) <= N / 2**P, (name, n)


class TestExactGrouping:
    @pytest.mark.parametrize("record_id", ["flpm-plus", "flpm-minus"])
    def test_cancelled_half_runs_no_loop(self, corpus, record_id, monkeypatch):
        # The two Fibonacci/Lucas terms of each record cancel exactly in one
        # half (psi^8 for flpm-plus, phi^8 for flpm-minus): one loop is left.
        loops = []
        original = series._sum_linear_series

        def recording(c1, c2, m, family, ctx):
            loops.append(m)
            return original(c1, c2, m, family, ctx)

        monkeypatch.setattr(series, "_sum_linear_series", recording)
        record = corpus.identity(record_id)
        series.evaluate_series_sum(((t.weight, t.series) for t in record.lhs),
                                   PrecisionContext(digits=40))
        assert len(loops) == 1

    def test_mixed_radicands_under_one_m_rejected(self, ctx30):
        m, zero = QuadraticNumber(1), QuadraticNumber(0)
        terms = [(QuadraticNumber(1), UpsideDownSeries(
            SeriesFamily.CENTRAL3, QuadraticNumber(0, 1, d), zero, m)) for d in (2, 3)]
        with pytest.raises(DomainError, match=r"sqrt\(2\).*sqrt\(3\)"):
            series.evaluate_series_sum(terms, ctx30)

    def test_distinct_m_may_mix_radicands(self, ctx30):
        # Only terms that share an m are summed exactly.
        zero = QuadraticNumber(0)
        terms = [(QuadraticNumber(1), UpsideDownSeries(
            SeriesFamily.CENTRAL3, QuadraticNumber(0, 1, d), zero, QuadraticNumber(d)))
            for d in (2, 3)]
        got, _ = series.evaluate_series_sum(terms, ctx30)
        with ctx30.working():
            expected = sum(evaluate_updown(s, ctx30) for _, s in terms)
            assert abs(got - expected) < 10 * ctx30.tol

    @pytest.mark.parametrize("c1, m", [("1e400", "1"), ("1e307", "1"), ("1", "1e-400")])
    def test_magnitudes_beyond_floats_rejected(self, ctx30, c1, m):
        # |c1| or r beyond the float range, or a guard-bit count that
        # overflows, is an error, never a short term count.
        with ctx30.working():
            with pytest.raises(DomainError, match="float range"):
                series._sum_linear_series(mpf(c1), mpf(0), mpf(m),
                                          SeriesFamily.CENTRAL3, ctx30)

    def test_huge_exact_coefficient_rejected(self, ctx30):
        s = UpsideDownSeries(SeriesFamily.CENTRAL3, QuadraticNumber(10**400),
                             QuadraticNumber(0), QuadraticNumber(1))
        with pytest.raises(DomainError, match="float range"):
            evaluate_updown(s, ctx30)


class TestFibLucasSeries:
    def test_exact_binet_termwise(self):
        # F_{8k} and L_{8k} from fast doubling must match exact Binet values
        # computed in Q(sqrt(5)): phi^8 = (47 + 21 sqrt(5))/2.
        phi8 = QuadraticNumber(Fraction(47, 2), Fraction(21, 2), 5)
        psi8 = phi8.conjugate()
        inv_sqrt5 = QuadraticNumber(0, Fraction(1, 5), 5)
        for k in range(1, 21):
            f = (phi8**k - psi8**k) * inv_sqrt5
            lucas = phi8**k + psi8**k
            assert f == QuadraticNumber(fibonacci_lucas(8 * k)[0])
            assert lucas == QuadraticNumber(fibonacci_lucas(8 * k)[1])

    def test_against_equivalent_updown_pair(self, ctx30):
        # sum (p k + q) F_{8k} / (k^3 C(2k,k)^3) rewritten through Binet as a
        # difference of two plain series with conjugate quadratic arguments.
        p, q = Fraction(3, 2), Fraction(-5)
        fib = FibLucasSeries(p, q, Fraction(0), Fraction(0))
        phi8 = QuadraticNumber(Fraction(47, 2), Fraction(21, 2), 5)
        psi8 = phi8.conjugate()
        plus = UpsideDownSeries(SeriesFamily.CENTRAL3, QuadraticNumber(p),
                                QuadraticNumber(-q), phi8)
        minus = UpsideDownSeries(SeriesFamily.CENTRAL3, QuadraticNumber(p),
                                 QuadraticNumber(-q), psi8)
        with ctx30.working():
            expected = (evaluate_updown(plus, ctx30)
                        - evaluate_updown(minus, ctx30)) / mpmath.sqrt(5)
            got = evaluate_fib_series(fib, ctx30)
            assert abs(got - expected) < 10 * ctx30.tol

    def test_f_prev_weights(self, ctx30):
        # The F_{8k-1} weights must shift the sum by exactly the F_{8k-1} part.
        base = FibLucasSeries(Fraction(1), Fraction(2), Fraction(3),
                              Fraction(4))
        extended = FibLucasSeries(Fraction(1), Fraction(2), Fraction(3),
                                  Fraction(4), Fraction(0), Fraction(1))
        with ctx30.working():
            diff = evaluate_fib_series(extended, ctx30) \
                - evaluate_fib_series(base, ctx30)
            direct = mpf(0)
            for k in range(1, 300):
                direct += mpf(fibonacci_lucas(8 * k - 1)[0]) \
                    / (k**3 * math.comb(2 * k, k) ** 3)
            assert abs(diff - direct) < 10 * ctx30.tol

    def test_against_direct_exact_loop(self):
        # Exact-integer F_{8k}, L_{8k}, F_{8k-1} and binomials at 300 digits.
        s = FibLucasSeries(Fraction(3, 2), Fraction(-5), Fraction(1, 7),
                           Fraction(2), Fraction(-4, 3), Fraction(1, 5))
        ctx = PrecisionContext(digits=300)
        with ctx.working():
            direct = mpf(0)
            for k in range(1, 3000):
                f, lucas = fibonacci_lucas(8 * k)
                f_prev = fibonacci_lucas(8 * k - 1)[0]
                num = (s.p * k + s.q) * f + (s.r * k + s.s) * lucas \
                    + (s.t * k + s.u) * f_prev
                term = mpf(num.numerator) / num.denominator \
                    / (k**3 * math.comb(2 * k, k) ** 3)
                direct += term
                if abs(term) < ctx.eps / 10**6:
                    break
            got, count = series.evaluate_series_sum(((QuadraticNumber(1), s),), ctx)
            assert abs(got - direct) < 10 * ctx.tol
            assert evaluate_fib_series(s, ctx) == got
        # The count covers both halves.
        halves = [series.evaluate_series_sum(((QuadraticNumber(1), UpsideDownSeries(
            SeriesFamily.CENTRAL3, c1, c2, m)),), ctx)[1] for c1, c2, m in _fib_halves(s)]
        assert count == sum(halves)


class TestSeriesConstants:
    def test_term_ratio_approaches_m_over_scale(self, ctx30):
        # The k-th root test: term ratios must approach |m|/scale, within one
        # percent by k = 50.
        s = UpsideDownSeries(
            SeriesFamily.CENTRAL3,
            QuadraticNumber(-105, 48, 5),
            QuadraticNumber(-44, 20, 5),
            QuadraticNumber(Fraction(47, 2), Fraction(21, 2), 5),
        )
        with ctx30.working():
            a = embed_quadratic(s.a, ctx30)
            b = embed_quadratic(s.b, ctx30)
            m = embed_quadratic(s.m, ctx30)

            def term(k):
                return (a * k - b) * m**k / (k**3 * math.comb(2 * k, k) ** 3)

            ratio = abs(term(51) / term(50))
            assert abs(ratio / (abs(m) / 64) - 1) < 0.01

    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_constants_at_admissible_points(self, level, ctx30):
        for z in random_admissible(2, level, ctx30, seed=40 + level):
            c1, c2, m = series_constants_from_cm(z, level, ctx30)
            assert abs(m) < _FAMILY_BY_LEVEL[level].scale

    def test_precision_escalation(self):
        z = mpc("-0.125", mpf(15) ** mpf("0.5") / 8)
        lo = series_constants_from_cm(z, 4, PrecisionContext(digits=25))
        hi = series_constants_from_cm(z, 4, PrecisionContext(digits=40))
        for a, b in zip(lo, hi):
            assert abs(a - b) < mpf(10) ** -20


def _unreduced_constants(z, N, ctx):
    """Oracle for series_constants_from_cm: E2 = 1 - 24 sum sigma_1(n) q^n
    summed at the unreduced points z and Nz, alpha from alpha_n, and
    R_nu = (N-1)[1/(pi y) - (E2(z) + N E2(Nz))/6]/(N E2(Nz) - E2(z)) + (N+1)xi/6,
    all on ctx.bumped()."""
    wide = ctx.bumped()
    with wide.working():
        alpha = alpha_n(z, N, wide)
        xi = 1 - 2 * alpha
        e2, e2n = (1 - 24 * _qsum(v, wide, sigma1_table, (0,))[0] for v in (z, N * z))
        c2 = ((N - 1) * (1 / (mp.pi * z.imag) - (e2 + N * e2n) / 6) / (N * e2n - e2)
              + (N + 1) * xi / 6)
        return 2 * xi, c2, _ALPHA_SCALE[N] / (alpha * (1 - alpha))


class TestPoleRule:
    # modular._uncancelled raises where alpha's denominator 1 + Q/s or c2's
    # N E2*(Nz) - E2*(z) cancels past the 15 guard digits.
    ROWS = [(row["point"], tab["level"]) for tab in load_tables() for row in tab["rows"]]

    @pytest.mark.parametrize("digits", [10, 40, 100])
    def test_table_rows_stay_far_from_the_rule(self, digits):
        # Measured smallest ratios: 1.0e-4 for alpha, 3.1e-4 for c2.
        wide = PrecisionContext(digits=digits).bumped()
        for point, N in self.ROWS:
            with wide.working():
                z = point.to_point(wide)
                (eta, e2), (eta_n, e2n) = (_eta_e2_star(v, wide) for v in (z, N * z))
                t = (eta / eta_n) ** (24 // (N - 1)) / _ALPHA_SCALE[N]
                assert abs(1 + t) > mpf("1e-5") * abs(t), (point, N)
                den = N * e2n - e2
                assert abs(den) > mpf("1e-5") * (abs(e2) + N * abs(e2n)), (point, N)

    def test_cancelled_c2_denominator_raises(self, ctx30, monkeypatch):
        # Both E2* values 0, as at the elliptic point 1/2+1/2*i of Gamma0(2),
        # at an ordinary point: the c2 rule alone raises.
        monkeypatch.setattr(modular, "_eta_e2_star",
                            lambda v, ctx: (_eta_e2_star(v, ctx)[0], mpc(0)))
        with pytest.raises(DomainError, match="N E2"):
            series_constants_from_cm(mpc("0.1", "1.1"), 2, ctx30)

    @pytest.mark.parametrize("text, N", [("1/2+1/2*i", 2), ("1/2+1/6*sqrt(3)*i", 3)])
    def test_region_test_at_a_pole_raises(self, ctx30, text, N):
        with pytest.raises(DomainError, match="pole"):
            satisfies_region(CMPoint.from_string(text), N, ctx30)


class TestE2Star:
    # E2*(z) = E2(z) - 3/(pi Im z) from one pass at the reduced point.
    @staticmethod
    def _e2_star(z, ctx):
        with ctx.working():
            return _eta_e2_star(z, ctx)[1]

    @pytest.mark.parametrize("digits", [40, 300])
    def test_weight_two_law(self, digits):
        ctx = PrecisionContext(digits=digits)
        with ctx.working():
            for z in random_points(3, seed=80) + [mpc("0.41", "0.02"), mpc("-0.3", "0.07")]:
                e2 = self._e2_star(z, ctx)
                assert abs(self._e2_star(z + 1, ctx) - e2) < ctx.tol * abs(e2), z
                rhs = z**2 * e2
                assert abs(self._e2_star(-1 / z, ctx) - rhs) < ctx.tol * abs(rhs), z

    @pytest.mark.parametrize("digits", [40, 300])
    def test_against_lambert_series(self, digits):
        # E2 = 1 - 24 sum n q^n / (1 - q^n), summed in mpf at z itself.
        ctx = PrecisionContext(digits=digits)
        for z in random_points(3, seed=81, y_range=(0.3, 1.4)):
            got = self._e2_star(z, ctx)
            with mpmath.workdps(ctx.dps + 20):
                q = mpmath.exp(2j * mp.pi * z)
                lambert = mpmath.nsum(lambda n: n * q**n / (1 - q**n), [1, mpmath.inf])
                ref = 1 - 24 * lambert - 3 / (mp.pi * z.imag)
                assert abs(got - ref) < mpf(10) ** -digits * abs(ref), z


class TestConstantsAgainstUnreducedOracle:
    # Every table row, and two low points whose reduction takes three
    # inversions: the constants agree with the unreduced-E2 oracle within
    # 1000 ulps of ctx.bumped(), relative. Measured worst: 100 for c2 at
    # 1/2+1/58*sqrt(58)*i, level 4, where both lose about 4 of its 10 guard
    # digits alike, and 3 at the low points.
    ROWS = [(row["point"], tab["level"]) for tab in load_tables() for row in tab["rows"]]
    LOW = [(mpc(x, y), level) for x, y in (("0.41", "0.02"), ("-0.38", "0.01"))
           for level in (2, 3, 4)]

    @pytest.mark.parametrize("digits, points", [
        pytest.param(40, ROWS + LOW, id="40"),
        pytest.param(100, ROWS + LOW, id="100"),
        pytest.param(300, ROWS + LOW, id="300"),
        # The rows alone: at 1000 digits the oracle's q-series at a low point
        # runs to 38000 terms, and the six cost eight times the 14 rows.
        pytest.param(1000, ROWS, id="1000", marks=pytest.mark.highprec),
    ])
    def test_rows_and_low_points(self, digits, points):
        ctx = PrecisionContext(digits=digits)
        for point, level in points:
            z = point.to_point(ctx) if isinstance(point, CMPoint) else point
            got = series_constants_from_cm(z, level, ctx)
            want = _unreduced_constants(z, level, ctx)
            with ctx.working():
                for a, b in zip(got, want):
                    assert abs(a - b) < 1000 * ctx.bumped().eps * abs(b), (point, level)

    def test_cm_points_embedded_on_the_bumped_context(self):
        # A CMPoint is embedded at ctx.bumped(), where the passes run, so the
        # ten extra digits reach c1, c2 and m: within 1e-60 relative of a
        # 200-digit run at 40 digits (embedded at ctx: up to 1.0e-55).
        ctx, ref = PrecisionContext(digits=40), PrecisionContext(digits=200)
        for point, level in self.ROWS:
            got = series_constants_from_cm(point, level, ctx)
            want = series_constants_from_cm(point, level, ref)
            with ref.working():
                for a, b in zip(got, want):
                    assert abs(a - b) < mpf(10) ** -60 * abs(b), (point, level)

    def test_low_points_reduce_with_three_inversions(self):
        ctx = PrecisionContext(digits=40)
        with ctx.working():
            for z, _ in self.LOW:
                assert len(modular._reduce_sl2(z, ctx)[2]) >= 3, z


class TestConstantsAgainstLegendreOracle:
    # c2 comes from E2* on the q-series kernel; R_nu through hyp2f1 at
    # xi = 1 - 2 alpha_N(z) is the independent oracle.
    CTX = PrecisionContext(digits=100)

    def _check(self, z, level):
        ctx = self.CTX
        with ctx.working():
            _, c2, _ = series_constants_from_cm(z, level, ctx)
            xi = 1 - 2 * alpha_n(z, level, ctx)
            expected = legendre_ramanujan_r(_NU_BY_LEVEL[level], xi, ctx)
            assert abs(c2 - expected) < mpf(10) ** -110 * abs(expected), (z, level)

    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_random_admissible_points(self, level):
        for z in random_admissible(3, level, self.CTX, seed=70 + level):
            self._check(z, level)

    @pytest.mark.parametrize("table", [1, 2, 3])
    def test_table_rows(self, table):
        (tab,) = [t for t in load_tables() if t["table"] == table]
        for row in tab["rows"]:
            self._check(row["point"].to_point(self.CTX), tab["level"])


# Points near the cusps 0 (y <= 0.05) and infinity (y >= 5), where alpha_N
# rounds to 1 or to 0 at low digits.
CUSP_GRID = [(mpc(x, y), N) for x in ("0", "0.1", "-0.2")
             for y in ("0.05", "0.03", "0.02", "0.01", "5", "15", "30") for N in (2, 3, 4)]


def _cusp_grid_mismatches(ctx, ref):
    """(z, N, name, relative error or DomainError text) for each CUSP_GRID
    point where series_constants_from_cm at ``ctx`` refuses, or where c1, c2
    or m is off by ctx.eps or more, or alpha_n by 10 ctx.tol or more,
    relative to the values at the higher precision ``ref``."""
    bad = []
    for z, N in CUSP_GRID:
        try:
            got = (*series_constants_from_cm(z, N, ctx), alpha_n(z, N, ctx))
        except DomainError as exc:
            bad.append((z, N, "refused", str(exc)))
            continue
        want = (*series_constants_from_cm(z, N, ref), alpha_n(z, N, ref))
        with ref.working():
            for name, a, b, bound in zip(("c1", "c2", "m", "alpha"), got, want,
                                         (ctx.eps, ctx.eps, ctx.eps, 10 * ctx.tol)):
                err = abs(a - b) / abs(b)
                if not err < bound:
                    bad.append((z, N, name, err))
    return bad


class TestConstantsNearCusps:
    # alpha = 1/(1 + t) and m = s (1 + t)^2 / t from the eta quotient t: no
    # 1 - alpha is formed, so c1, c2 and m keep the working precision where
    # alpha rounds to 0 or 1, and none is refused there.
    @pytest.mark.parametrize("digits, ref", [
        pytest.param(30, 120, id="30-120"),
        pytest.param(300, 900, id="300-900", marks=pytest.mark.highprec),
    ])
    def test_grid_against_a_wider_run(self, digits, ref):
        bad = _cusp_grid_mismatches(PrecisionContext(digits=digits), PrecisionContext(digits=ref))
        assert bad == []


class TestConvergenceAgainstRegion:
    # m = s (1 + t)^2 / t and 1 - xi^2 = 4 t / (1 + t)^2, so with scale = 4 s
    # the ratio r = |m| / scale is 1 / |1 - xi^2|: _plan's divergence test
    # r >= 1 is _in_region's first condition, |1 - xi^2| <= 1.
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_family_scale_is_four_alpha_scales(self, N):
        assert _FAMILY_BY_LEVEL[N].scale == 4 * _ALPHA_SCALE[N]

    @pytest.mark.parametrize("digits", [40, 300])
    def test_ratio_is_the_reciprocal_of_the_region_modulus(self, digits):
        ctx, n = PrecisionContext(digits=digits), 0
        for tab in load_tables():
            N = tab["level"]
            for row in tab["rows"]:
                c1, _, m = series_constants_from_cm(row["point"], N, ctx)
                with ctx.working():
                    r = abs(m) / _FAMILY_BY_LEVEL[N].scale
                    assert abs(r * abs(1 - (c1 / 2) ** 2) - 1) < 4 * ctx.eps
                n += 1
        assert n == 14


class TestSigmaGR:
    def test_imaginary_part_anchor_one(self, ctx30):
        with ctx30.working():
            z = mpc(mpf(-1) / 8, mpmath.sqrt(15) / 8)
            got = sigma_gr(z, 4, ctx30).imag
            expected = 71 * mp.pi**2 / (15 * mpmath.sqrt(15))
            assert abs(got - expected) < ctx30.tol

    def test_imaginary_part_anchor_two(self, ctx30):
        with ctx30.working():
            z = mpc(mpf(-7) / 16, mpmath.sqrt(15) / 16)
            got = sigma_gr(z, 4, ctx30).imag
            expected = mp.pi**2 / (15 * mpmath.sqrt(15))
            assert abs(got - expected) < ctx30.tol

    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_imaginary_part_closed_form_random(self, level, ctx30):
        ctx25 = PrecisionContext(digits=25)
        for z in random_admissible(2, level, ctx25, seed=50 + level,
                                   max_ratio=0.9):
            with ctx25.working():
                lhs = sigma_gr(z, level, ctx25).imag
                rhs = sigma_gr_im_rhs(z, level, ctx25)
                assert abs(lhs - rhs) < mpf(10) ** -20

    def test_alpha_computed_once(self, monkeypatch):
        # The region test takes alpha_N(z) from the constants, so one call
        # of sigma_gr computes alpha once: one _level call, the one pass
        # alpha_n, the region test and the constants share. Only modular
        # reads _level.
        calls = []
        original = modular._level

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(modular, "_level", counted)
        ctx = PrecisionContext(digits=100)
        z = CMPoint.from_string("-1/8+1/8*sqrt(15)*i").to_point(ctx)
        sigma_gr(z, 4, ctx)
        assert len(calls) == 1

    @pytest.mark.parametrize("z, level", [
        (mpc("0.25", "0.05"), 4), (mpc("-0.25", "0.05"), 4), (mpc("0.8", "1.0"), 2),
        *((row["point"], tab["level"]) for tab in load_tables() for row in tab["rows"]),
    ], ids=str)
    def test_region_rule_on_xi(self, z, level, ctx30):
        # sigma_gr tests xi = c1 / 2 from its constants and satisfies_region
        # xi = 1 - 2 alpha_N(z): both reach the one verdict of _in_region.
        if satisfies_region(z, level, ctx30):
            assert mpmath.isfinite(sigma_gr(z, level, ctx30))
        else:
            with pytest.raises(DomainError, match="outside the admissible region"):
                sigma_gr(z, level, ctx30)

    def test_rejects_inadmissible_points(self, ctx30):
        with pytest.raises(DomainError):
            sigma_gr(mpc("0.25", "0.05"), 4, ctx30)
        with pytest.raises(DomainError):
            sigma_gr_im_rhs(mpc("0.25", "0.05"), 4, ctx30)
