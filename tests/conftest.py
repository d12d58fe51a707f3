"""Shared fixtures: precision contexts, the shipped corpus, and random
half-plane points drawn from a fixed seed so runs are reproducible. The
fixture that empties the memos before every test is in the root conftest.py."""

import os
import random
import subprocess
import sys
import types

import mpmath
import pytest
from mpmath import mp, mpc

import updownlab
from updownlab import PrecisionContext, kronecker_symbol, load_corpus
from updownlab import satisfies_region


@pytest.fixture(scope="session")
def ctx30():
    return PrecisionContext(digits=30)


@pytest.fixture(scope="session")
def ctx40():
    return PrecisionContext(digits=40)


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


@pytest.fixture
def context_spy(monkeypatch):
    """Spies on mpmath's context: ``writes`` collects every value written to
    mp.prec or mp.dps, and, once ``arm()`` has run (after any set-up that may
    enter a context), ``entered`` every mpmath.workdps, mpmath.workprec or
    PrecisionContext.working entered, which then does nothing."""
    spy = types.SimpleNamespace(writes=[], entered=[])
    for name in ("prec", "dps"):
        old = getattr(type(mp), name)
        monkeypatch.setattr(type(mp), name, property(
            old.fget, lambda ctx, v, old=old: spy.writes.append(v) or old.fset(ctx, v)))

    def arm():
        spy.writes.clear()
        for name in ("workdps", "workprec"):
            monkeypatch.setattr(mpmath, name, lambda *args, **kw: spy.entered.append(args))
        monkeypatch.setattr(PrecisionContext, "working", lambda self: spy.entered.append(self))

    spy.arm = arm
    return spy


def run_bounded(*args, seconds=10):
    """``python *args`` on this package in a child process; the test fails,
    instead of stalling the suite, if the child runs past ``seconds``."""
    src = os.path.dirname(os.path.dirname(updownlab.__file__))
    try:
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=seconds)
    except subprocess.TimeoutExpired:
        pytest.fail(f"python {' '.join(args)} ran past {seconds} s")


def sigma1_table(n_max):
    """sigma_1(n) for n <= n_max by a divisor sieve: the tests' own E2 =
    1 - 24 sum sigma_1(n) q^n, as the library sums E2 from Euler's product."""
    sig = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        for m in range(d, n_max + 1, d):
            sig[m] += d
    return sig


def dirichlet_l2_direct(d: int) -> float:
    """Truncated direct series sum_{k<=10^5} (d/k)/k^2 (float oracle)."""
    q = abs(d)
    pattern = [kronecker_symbol(d, r) for r in range(q)]
    total = 0.0
    for k in range(1, 100_001):
        chi = pattern[k % q]
        if chi:
            total += chi / (k * k)
    return total


def random_points(n, seed, x_range=(-0.45, 0.45), y_range=(0.7, 1.4)):
    """Deterministic sample of generic upper half-plane points."""
    rng = random.Random(seed)
    return [
        mpc(rng.uniform(*x_range), rng.uniform(*y_range)) for _ in range(n)
    ]


# Sampling windows in which admissible points are reasonably dense per level.
_ADMISSIBLE_Y = {2: (0.7, 1.3), 3: (0.7, 1.3), 4: (0.25, 0.7)}


def random_admissible(n, level, ctx, seed, max_ratio=None, tries=3000):
    """Deterministic admissible CM-free points for the series/lattice lemmas.

    ``max_ratio`` additionally bounds |m|/scale so the series converge fast
    enough for tests.
    """
    from updownlab.modular import series_constants_from_cm
    from updownlab.series import _FAMILY_BY_LEVEL

    rng = random.Random(seed)
    lo, hi = _ADMISSIBLE_Y[level]
    out = []
    for _ in range(tries):
        z = mpc(rng.uniform(-0.45, 0.45), rng.uniform(lo, hi))
        if not satisfies_region(z, level, ctx):
            continue
        if max_ratio is not None:
            _, _, m = series_constants_from_cm(z, level, ctx)
            if abs(m) / _FAMILY_BY_LEVEL[level].scale > max_ratio:
                continue
        out.append(z)
        if len(out) == n:
            return out
    raise RuntimeError(
        f"only found {len(out)}/{n} admissible points for level {level}"
    )
