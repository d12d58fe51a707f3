"""Kronecker symbols, fundamental discriminants, and L_d(2) values."""

import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from updownlab import (
    CMPoint,
    Discriminant,
    PrecisionContext,
    dirichlet_l2,
    epstein_sl2,
    is_fundamental_discriminant,
    kronecker_symbol,
)
from updownlab import lfunctions
from updownlab.identities import _check_tag, load_corpus
from updownlab.numerics import DomainError, _is_squarefree, trigamma

from conftest import dirichlet_l2_direct, run_bounded


def _legendre_prime(d, p):
    """Euler-criterion oracle for the symbol at an odd prime."""
    r = pow(d % p, (p - 1) // 2, p)
    return {0: 0, 1: 1, p - 1: -1}[r]


ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def _sine_sum_l2(d, ctx):
    """L_d(2) for d > 1 as pi^2 / d^2 sum_{0<a<d/2} chi(a) / sin^2(pi a / d),
    from psi'(x) + psi'(1 - x) = pi^2 / sin^2(pi x) and chi(d - a) = chi(a):
    one full-precision sinpi per residue, the oracle of the closed form."""
    with ctx.working():
        total = mpf(0)
        for a in range(1, (d + 1) // 2):
            chi = kronecker_symbol(d, a)
            if chi:
                total += chi / mpmath.sinpi(mpf(a) / d) ** 2
        return mpmath.pi**2 * total / d**2


def _hurwitz_l2(d, ctx):
    """|d|^-2 sum_{0<a<|d|} chi(a) zeta(2, a/|d|) through mpmath's Hurwitz zeta."""
    q = abs(d)
    with ctx.working():
        chis = ((a, kronecker_symbol(d, a)) for a in range(1, q))
        return sum(chi * mpmath.zeta(2, mpf(a) / q) for a, chi in chis if chi) / q**2


def _reduced_forms(d):
    """The reduced primitive forms (a, b, c) of discriminant d < 0: |b| <= a
    <= c, with b >= 0 when |b| = a or a = c, so a <= sqrt(|d| / 3)."""
    forms = []
    a = 1
    while 3 * a * a <= -d:
        for b in range(1 - a, a + 1):
            c, r = divmod(b * b - d, 4 * a)
            if not r and c >= a and not (b < 0 and a == c) and math.gcd(a, b, c) == 1:
                forms.append((a, b, c))
        a += 1
    return forms


def _form_sum_l2(d, ctx):
    """L_d(2) for a fundamental d < 0 from its class group, independent of
    dirichlet_l2's trigamma: sum_Q Z_Q(2) = w zeta(2) L_d(2) over the reduced
    forms Q, with Z_Q(2) = 8 zeta(4) E(z_Q, 2) / |d|, so L_d(2) =
    (2/w) 4 zeta(4) sum_Q E(z_Q, 2) / (|d| zeta(2)), 4 zeta(4) / zeta(2) =
    4 pi^2 / 15 and w = 6, 4 or 2 units."""
    w = {-3: 6, -4: 4}.get(d, 2)
    with ctx.working():
        total = sum(epstein_sl2(CMPoint(*q), ctx) for q in _reduced_forms(d))
        return 8 * mpmath.pi**2 * total / (15 * w * -d)


def _corpus_odd_discriminants():
    """Every d < 0 whose L_d(2) the corpus reads: RHS tags, lattice-sum
    factors, and the products d1 d2 of DIRICHLET instances."""
    corpus = load_corpus()
    ds = {_check_tag(tag) for rec in corpus.identities for _, tag in rec.rhs}
    ds = {d.d for d in ds if d is not None}
    for inst in corpus.kronecker:
        ds |= {inst.d1.d, inst.d2.d}
        if inst.kind == "DIRICHLET":
            ds.add(inst.d1.d * inst.d2.d)
    return sorted(d for d in ds if d < 0)


class TestKroneckerSymbol:
    @pytest.mark.parametrize("d", [-68, -11, -8, -7, -4, -3, 1, 5, 8, 12, 33])
    def test_odd_primes_match_euler_criterion(self, d):
        for p in ODD_PRIMES:
            assert kronecker_symbol(d, p) == _legendre_prime(d, p)

    @pytest.mark.parametrize("d", [-20, -7, -4, 8, 13])
    def test_multiplicative_in_k(self, d):
        for j in range(1, 30):
            for k in range(1, 30):
                assert kronecker_symbol(d, j * k) == \
                    kronecker_symbol(d, j) * kronecker_symbol(d, k)

    @pytest.mark.parametrize("d", [-11, -8, -4, -3, 5, 8, 12])
    def test_periodic_mod_abs_d(self, d):
        q = abs(d)
        for k in range(1, 3 * q):
            assert kronecker_symbol(d, k) == kronecker_symbol(d, k + q)

    def test_every_discriminant_gives_a_character_of_sign_d(self):
        # dirichlet_l2 presumes chi(k + |d|) = chi(k) and chi(|d| - a) =
        # sign(d) chi(a) for every valid discriminant, fundamental or not.
        for d in range(-200, 201):
            if d in (0, 1) or d % 4 not in (0, 1):
                continue
            q, sign = abs(d), (1 if d > 0 else -1)
            for a in range(1, q):
                chi = kronecker_symbol(d, a)
                assert kronecker_symbol(d, a + q) == chi, (d, a)
                assert kronecker_symbol(d, q - a) == sign * chi, (d, a)

    def test_two_part(self):
        assert kronecker_symbol(7, 2) == 1    # 7 = -1 mod 8
        assert kronecker_symbol(3, 2) == -1
        assert kronecker_symbol(-4, 2) == 0

    def test_edge_cases(self):
        assert kronecker_symbol(1, 0) == 1
        assert kronecker_symbol(-1, 0) == 1
        assert kronecker_symbol(5, 0) == 0
        assert kronecker_symbol(0, 1) == 1
        assert kronecker_symbol(0, 7) == 0
        with pytest.raises(DomainError):
            kronecker_symbol(5, -3)


class TestFundamentalDiscriminants:
    def test_against_field_discriminant_enumeration(self):
        # Field discriminants: m for squarefree m = 1 mod 4 (m != 1),
        # 4m for squarefree m = 2, 3 mod 4.
        expected = set()
        for m in range(-300, 301):
            if m in (0, 1) or not _is_squarefree(m):
                continue
            if m % 4 == 1:
                expected.add(m)
            else:
                expected.add(4 * m)
        for D in range(-300, 301):
            assert is_fundamental_discriminant(D) == (D in expected), D


class TestDiscriminant:
    def test_valid(self):
        assert Discriminant(1).d == 1
        assert Discriminant(-4).d == -4
        assert Discriminant(-68).d == -68

    @pytest.mark.parametrize("d", [0, -1, -2, 3, 6])
    def test_invalid(self, d):
        with pytest.raises(DomainError):
            Discriminant(d)


class TestDirichletL2:
    def test_catalan(self, ctx40):
        with ctx40.working():
            assert abs(dirichlet_l2(-4, ctx40) - mpmath.catalan) < ctx40.tol

    def test_trivial_character(self, ctx40):
        with ctx40.working():
            assert abs(dirichlet_l2(1, ctx40) - mpmath.zeta(2)) < ctx40.tol

    def test_minus_three_hurwitz(self, ctx40):
        # L_{-3}(2) = (zeta(2, 1/3) - zeta(2, 2/3)) / 9 via the Hurwitz zeta.
        with ctx40.working():
            expected = (mpmath.zeta(2, mpf(1) / 3)
                        - mpmath.zeta(2, mpf(2) / 3)) / 9
            assert abs(dirichlet_l2(-3, ctx40) - expected) < ctx40.tol

    def test_minus_eight_hurwitz(self, ctx40):
        with ctx40.working():
            expected = sum(
                kronecker_symbol(-8, a) * mpmath.zeta(2, mpf(a) / 8)
                for a in range(1, 9)
            ) / 64
            assert abs(dirichlet_l2(-8, ctx40) - expected) < ctx40.tol

    def test_accepts_discriminant_instances(self, ctx30):
        assert dirichlet_l2(Discriminant(-4), ctx30) == dirichlet_l2(-4, ctx30)

    def test_direct_sum_oracle(self, ctx30):
        for d in (-11, -4, 8, 12):
            assert abs(float(dirichlet_l2(d, ctx30))
                       - dirichlet_l2_direct(d)) < 1e-4

    def test_precision_escalation(self):
        lo = dirichlet_l2(-7, PrecisionContext(digits=30))
        hi = dirichlet_l2(-7, PrecisionContext(digits=45))
        assert abs(lo - hi) < mpf(10) ** -28

    @pytest.mark.parametrize("d", [-4, -111, 5, 8, 12, 32, 48, 253])
    def test_hurwitz_at_300_digits(self, d):
        # Both branches against |d|^-2 sum_a chi(a) zeta(2, a/|d|). 5 and 8
        # are the smallest odd and even fundamental d > 1, 12 = 4 * 3 is
        # fundamental too, and 32 = 8 * 2^2 and 48 = 12 * 2^2 are not.
        ctx = PrecisionContext(digits=300)
        with ctx.working():
            assert abs(dirichlet_l2(d, ctx) - _hurwitz_l2(d, ctx)) < ctx.tol

    @pytest.mark.parametrize("d", [-7, -8])
    def test_odd_character_hurwitz_at_1000_digits(self, d):
        ctx = PrecisionContext(digits=1000)
        with ctx.working():
            assert abs(dirichlet_l2(d, ctx) - _hurwitz_l2(d, ctx)) < ctx.tol

    @pytest.mark.parametrize("d", [5, 12, 32, 48])
    def test_even_character_hurwitz_at_1000_digits(self, d):
        # 32 and 48 take the closed form through d0 = 8 and 12 and the Euler
        # factor at p = 2.
        ctx = PrecisionContext(digits=1000)
        with ctx.working():
            assert abs(dirichlet_l2(d, ctx) - _hurwitz_l2(d, ctx)) < ctx.tol

    def test_closed_form_against_sine_sum_at_1000_digits(self):
        # d = 253 = 11 * 23 against the sine sum, 110 sinpi calls where the
        # Hurwitz check takes 220 Hurwitz zetas; d = 253 is checked against
        # the Hurwitz zeta at 300 digits.
        ctx = PrecisionContext(digits=1000)
        with ctx.working():
            assert abs(dirichlet_l2(253, ctx) - _sine_sum_l2(253, ctx)) < ctx.tol

    @pytest.mark.parametrize("digits, ds", [
        pytest.param(40, range(2, 301), id="40"),
        pytest.param(300, range(2, 301), id="300"),
        # Every d > 1 that the corpus's lattice-sum instances read.
        pytest.param(2000, (5, 8, 12, 24, 28, 29, 32, 33, 44, 48, 56, 65, 85, 88, 92,
                            185, 232, 253), id="2000", marks=pytest.mark.highprec),
    ])
    def test_closed_form_against_sine_sum(self, digits, ds):
        # Every valid 1 < d <= 300: fundamental, d0 f^2 with E != 1 (45 =
        # 5 * 3^2) and squares, whose d0 is 1 (4, 9, ..., 289).
        ctx = PrecisionContext(digits=digits)
        with ctx.working():
            for d in ds:
                if d % 4 in (0, 1):
                    assert abs(dirichlet_l2(d, ctx) - _sine_sum_l2(d, ctx)) < ctx.tol, d

    def test_cost_follows_the_fundamental_discriminant(self):
        # d = 5 * 10007^2 has 2.5e8 residues, but d0 = 5 and chi_5(10007)
        # = -1: L_d(2) = L_5(2) (1 + 10007^-2) under MAX_TERMS and
        # within the child's time limit, where one sinpi per residue would
        # run for hours.
        code = ("from mpmath import mpf\n"
                "from updownlab import PrecisionContext, dirichlet_l2\n"
                "ctx = PrecisionContext(40)\n"
                "with ctx.working():\n"
                "    want = dirichlet_l2(5, ctx) * (1 + mpf(10007) ** -2)\n"
                "    print(abs(dirichlet_l2(5 * 10007**2, ctx) - want) < ctx.eps)")
        assert run_bounded("-c", code).stdout == "True\n"

    def test_square_part_bound(self):
        # The closed form needs d0 exactly, which _square_part finds below 10^12.
        with pytest.raises(DomainError, match="10\\^12"):
            dirichlet_l2(10**12 + 1, PrecisionContext(digits=20))

    @pytest.mark.parametrize("d", [-12, -16, -27, -28, -44, -63, -75, -99])
    def test_imprimitive_characters_against_hurwitz(self, d):
        # The unit sum J_2(q) zeta(2) holds for characters that are not
        # primitive too: Hurwitz's sum at ten more digits, rounded to ctx.
        ctx = PrecisionContext(digits=100)
        want = _hurwitz_l2(d, ctx.bumped())
        with ctx.working():
            assert dirichlet_l2(d, ctx) == +want

    @pytest.mark.parametrize("d", [-4, -111, -116])
    def test_trigamma_runs_on_half_the_units(self, d, monkeypatch):
        calls = []

        def counted(x, ctx):
            calls.append(x)
            return trigamma(x, ctx)

        monkeypatch.setattr(lfunctions, "trigamma", counted)
        dirichlet_l2(d, PrecisionContext(digits=20))
        q = -d
        units = sum(math.gcd(a, q) == 1 for a in range(1, q))
        assert len(calls) == units // 2
        assert all(kronecker_symbol(d, x.numerator) == -1 for x in calls)

    def test_more_residues_than_max_terms(self):
        # |d| = 10^7 + 3 residues, over MAX_TERMS, raise before any trigamma.
        with pytest.raises(DomainError, match="MAX_TERMS"):
            dirichlet_l2(-10000003, PrecisionContext(digits=20))

    def test_even_branch_bounded_by_d0(self):
        # The closed form sums d0/2 residues: the fundamental d0 = 10000013
        # is over MAX_TERMS, d = 5 * 10007^2 (d0 = 5) is not.
        ctx = PrecisionContext(digits=20)
        with pytest.raises(DomainError, match="d0 = 10000013"):
            dirichlet_l2(10000013, ctx)
        assert dirichlet_l2(5 * 10007**2, ctx) > 0


class TestClassGroupOracle:
    # The odd L_d(2) against Kronecker's form sum on epstein_sl2, for every
    # d < 0 the corpus reads and a few more. Measured worst: 0.37 eps
    # relative at 40 digits, 0.29 eps at 300.
    DS = sorted(set(_corpus_odd_discriminants()) | {-20, -84, -232})

    def test_forms_are_the_class_group(self):
        assert [len(_reduced_forms(d)) for d in (-3, -4, -20, -56, -84, -87, -111, -116)] \
            == [1, 1, 2, 4, 4, 6, 8, 6]
        assert _reduced_forms(-84) == [(1, 0, 21), (2, 2, 11), (3, 0, 7), (5, 4, 5)]

    def test_kronecker_instances_are_full_class_groups(self, corpus):
        # Each lattice-sum instance takes one point of each class of its
        # discriminant D: its points reduce, as integer forms, to exactly
        # the reduced forms of D, none twice (_reduced_forms lists each once).
        for inst in corpus.kronecker:
            (d,) = {p.disc for p in inst.points}
            forms = sorted((r.A, r.B, r.C) for r in (p.reduced() for p in inst.points))
            assert forms == _reduced_forms(d), inst.id

    @pytest.mark.parametrize("digits", [40, 300, pytest.param(1000, marks=pytest.mark.highprec)])
    def test_form_sum_against_trigamma(self, digits):
        ctx = PrecisionContext(digits=digits)
        for d in self.DS:
            want = dirichlet_l2(d, ctx)
            got = _form_sum_l2(d, ctx)
            with ctx.working():
                assert abs(got - want) < 10 * ctx.eps * want, d

    @pytest.mark.parametrize("digits", [40, 300, pytest.param(1000, marks=pytest.mark.highprec)])
    def test_correctly_rounded(self, digits):
        # L_d(2) against its own value at 40 more digits, rounded to ctx.
        ctx, wide = PrecisionContext(digits=digits), PrecisionContext(digits=digits + 40)
        for d in self.DS:
            want = dirichlet_l2(d, wide)
            with ctx.working():
                assert dirichlet_l2(d, ctx) == +want, d
