"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line (visible even under pytest's
capture) and then asserts, so the run log doubles as an acceptance report.
"""

import time
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpc, mpf

from updownlab import (
    CMPoint,
    PrecisionContext,
    alpha_n,
    dedekind_eta,
    dirichlet_l2,
    eichler_e4_tilde,
    eisenstein_e4,
    epstein_sl2,
    j_invariant,
    legendre_ramanujan_r,
    load_corpus,
    reflection_residual,
    sigma_gr,
    sigma_gr_im_rhs,
    verify_all,
    zeta_int,
)
from updownlab.cli import check_table
from updownlab.numerics import trigamma

from conftest import dirichlet_l2_direct, random_admissible, random_points
from oracles import gamma0_lattice_sum


def announce(capsys, number, description, ok):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"\nACCEPTANCE {number} [{status}] {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def full_run():
    """One full-corpus verification at 40 digits, shared by two criteria."""
    corpus = load_corpus()
    t0 = time.monotonic()
    reports = verify_all(PrecisionContext(digits=40), corpus=corpus)
    elapsed = time.monotonic() - t0
    return corpus, reports, elapsed


def test_criterion_1_corpus_identities(full_run, capsys):
    corpus, reports, elapsed = full_run
    identity_ids = {r.id for r in corpus.identities}
    idents = [r for r in reports if r.id in identity_ids]
    ok = (
        len(idents) >= 25
        and all(r.passed and r.abs_residual < mpf(10) ** -35 for r in idents)
        and elapsed < 300
    )
    announce(capsys, 1,
             f"{len(idents)} identity records at 40 digits, residuals < 1e-35,"
             f" full corpus run in {elapsed:.1f}s", ok)


def test_criterion_2_eichler_anchors(capsys):
    ctx = PrecisionContext(digits=30)
    ok = True
    with ctx.working():
        for x, y_num, expected in (
            (mpf(9) / 16, 16, mpf(387) / 2048),
            (mpf(-7) / 4, 4, mpf(-1) / 32),
        ):
            z = mpc(x, mpmath.sqrt(15) / y_num)
            t0 = time.monotonic()
            got = eichler_e4_tilde(z, ctx).real
            took = time.monotonic() - t0
            ok = ok and abs(got - expected) < mpf(10) ** -30 and took < 5
    announce(capsys, 2,
             "Eichler integral anchors 387/2048 and -1/32 to 30 digits, "
             "under 5s each", ok)


def test_criterion_3_series_imaginary_anchors(capsys):
    ctx = PrecisionContext(digits=30)
    ok = True
    with ctx.working():
        anchors = (
            (mpc(mpf(-1) / 8, mpmath.sqrt(15) / 8),
             71 * mp.pi**2 / (15 * mpmath.sqrt(15))),
            (mpc(mpf(-7) / 16, mpmath.sqrt(15) / 16),
             mp.pi**2 / (15 * mpmath.sqrt(15))),
        )
        for z, expected in anchors:
            got = sigma_gr(z, 4, ctx).imag
            ok = ok and abs(got - expected) < mpf(10) ** -30
    announce(capsys, 3,
             "weighted series Im parts 71*pi^2/(15*sqrt(15)) and "
             "pi^2/(15*sqrt(15)) to 30 digits", ok)


def test_criterion_4_epstein_anchors(capsys):
    ctx = PrecisionContext(digits=30)
    tol = mpf(10) ** -25
    ok = True
    with ctx.working():
        L = lambda d: dirichlet_l2(d, ctx)
        z2, z4 = zeta_int(2, ctx), zeta_int(4, ctx)
        cases = [
            (mpc(0, 1), 30 * L(-4) / mp.pi**2),
            (mpc(mpf(1) / 2, mpmath.sqrt(7) / 2), 105 * L(-7) / (4 * mp.pi**2)),
            (mpc(0, mpmath.sqrt(2)), 30 * L(-8) / mp.pi**2),
            (mpc(0, 3),
             18 / (4 * z4) * (28 * z2 * L(-4) / 27 + L(-3) * L(12))),
            (mpc(0, 2 * mpmath.sqrt(2)),
             4 / z4 * (7 * z2 * L(-8) / 8 + L(-4) * L(8))),
            (mpc(0, 2 * mpmath.sqrt(7)),
             56 / (4 * z4) * (mpf(41) / 64 * z2 * L(-7) + L(-4) * L(28))),
            (mpc(mpf(1) / 2, 3 * mpmath.sqrt(11) / 2),
             99 / (8 * z4) * (22 * z2 * L(-11) / 27 + L(-3) * L(33))),
        ]
        for z, expected in cases:
            ok = ok and abs(epstein_sl2(z, ctx) - expected) < tol
    announce(capsys, 4,
             "seven Epstein closed forms (three anchors plus four tabulated "
             "values) to 25 digits", ok)


def test_criterion_5_kronecker_instances(full_run, capsys):
    corpus, reports, _ = full_run
    instance_ids = {k.id for k in corpus.kronecker}
    insts = [r for r in reports if r.id in instance_ids]
    # Residual below 1e-20 certifies agreement beyond 25 significant digits
    # for every signed lattice-sum combination.
    ok = bool(insts) and all(
        r.passed and r.abs_residual < mpf(10) ** -20 for r in insts
    )
    announce(capsys, 5,
             f"{len(insts)} signed lattice-sum instances, including the "
             "twisted disc -112 pair, to 25 digits", ok)


def test_criterion_6_table_reconstruction(capsys):
    ctx = PrecisionContext(digits=30)
    tol = mpf(10) ** -20
    count = 0
    ok = True
    for table in (1, 2, 3):
        for _row, _cell, residual in check_table(table, ctx):
            count += 1
            ok = ok and residual < tol
    ok = ok and count == 42  # 14 rows x 3 cells
    announce(capsys, 6,
             f"all {count} cells of the three CM-point tables match to "
             "20 digits", ok)


def test_criterion_7_property_suites(capsys):
    ok = True
    ctx30 = PrecisionContext(digits=30)
    ctx40 = PrecisionContext(digits=40)

    # alpha functional equation, 20 points per level.
    with ctx30.working():
        for level in (2, 3, 4):
            for z in random_points(20, seed=700 + level):
                total = alpha_n(z, level, ctx30) \
                    + alpha_n(-1 / (level * z), level, ctx30)
                ok = ok and abs(total - 1) < mpf(10) ** -28

    # Eichler reflection residual at 10 random points, 40 digits.
    for z in random_points(10, seed=710):
        ok = ok and reflection_residual(z, ctx40) < mpf(10) ** -35

    # Two-line lattice lemma at 5 admissible points per level, against the
    # truncated coset-sum oracle and its certified tails.
    ctx15 = PrecisionContext(digits=15)
    with ctx15.working():
        for level in (2, 3, 4):
            for z in random_admissible(5, level, ctx15, seed=720 + level):
                a = gamma0_lattice_sum(-1 / (level * z), level, ctx15)
                b = gamma0_lattice_sum(z, level, ctx15)
                rhs = (epstein_sl2(z, ctx15)
                       - epstein_sl2(level * z, ctx15)) / (level**2 - 1)
                ok = ok and abs((a.value - b.value) - rhs) \
                    < 2 * (a.tail + b.tail)

    # Weighted-series closed form for the imaginary part, 3 admissible
    # points per level, 20 digits.
    ctx25 = PrecisionContext(digits=25)
    with ctx25.working():
        for level in (2, 3, 4):
            for z in random_admissible(3, level, ctx25, seed=730 + level,
                                       max_ratio=0.9):
                lhs = sigma_gr(z, level, ctx25).imag
                rhs = sigma_gr_im_rhs(z, level, ctx25)
                ok = ok and abs(lhs - rhs) < mpf(10) ** -20

    # Precision escalation: digits vs digits + 10 across public operations.
    lo, hi = PrecisionContext(digits=30), PrecisionContext(digits=40)
    z = mpc("0.31", "1.07")
    cm = CMPoint.from_string("-1/8+1/8*sqrt(15)*i")
    pairs = [
        (dirichlet_l2(-7, lo), dirichlet_l2(-7, hi)),
        (zeta_int(3, lo), zeta_int(3, hi)),
        (trigamma(Fraction(2, 7), lo), trigamma(Fraction(2, 7), hi)),
        (dedekind_eta(z, lo), dedekind_eta(z, hi)),
        (alpha_n(z, 3, lo), alpha_n(z, 3, hi)),
        (eichler_e4_tilde(z, lo), eichler_e4_tilde(z, hi)),
        (eisenstein_e4(cm, lo), eisenstein_e4(cm, hi)),
        (j_invariant(cm, lo), j_invariant(cm, hi)),
        (epstein_sl2(z, lo), epstein_sl2(z, hi)),
        (legendre_ramanujan_r(Fraction(-1, 2), mpf("1.8"), lo),
         legendre_ramanujan_r(Fraction(-1, 2), mpf("1.8"), hi)),
    ]
    for a, b in pairs:
        ok = ok and abs(a - b) < mpf(10) ** -25

    announce(capsys, 7,
             "property suites: alpha functional equation, reflection "
             "residuals, two-line lattice lemma, series closed form, and "
             "precision escalation", ok)


def test_criterion_8_oracle_equivalence(capsys):
    ok = True
    ctx = PrecisionContext(digits=20)

    # Fourier expansion vs truncated SL(2, Z) coset sums at 10 points.
    with ctx.working():
        for z in random_points(10, seed=800, y_range=(0.8, 1.6)):
            exact = epstein_sl2(z, ctx)
            approx = gamma0_lattice_sum(z, 1, ctx, radius=120)
            ok = ok and abs(exact - approx.value) < approx.tail

    # Residue-class L-values vs direct 1e5-term sums for every discriminant
    # appearing anywhere in the corpus.
    corpus = load_corpus()
    discs = set()
    for rec in corpus.identities:
        for _coeff, tag in rec.rhs:
            if tag.startswith("L("):
                discs.add(int(tag[2:-1]))
    for inst in corpus.kronecker:
        discs.update({inst.d1.d, inst.d2.d})
        if inst.kind == "DIRICHLET":
            discs.add(inst.d1.d * inst.d2.d)
    assert discs
    for d in sorted(discs):
        ok = ok and abs(float(dirichlet_l2(d, ctx))
                        - dirichlet_l2_direct(d)) < 1e-4

    announce(capsys, 8,
             f"oracle equivalence: lattice sums at 10 points and direct "
             f"L-series sums for {len(discs)} discriminants", ok)
