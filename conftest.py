"""The fixture every tier-1 test shares, under tests/ and perfbench/ alike:
each test starts with the per-process memos of computed values empty."""

import pytest

from updownlab import epstein, identities, numerics, series

# The per-process memos of computed values: the series loop's kept lanes and
# Fibonacci-Lucas halves, the RHS constants and E(z, 2) that verify keeps,
# zeta(n) and the square roots sqrt(D) of CMPoint.to_point.
VALUE_MEMOS = (
    series._real_lanes,
    series._fib_halves,
    identities._kept_constant,
    identities._kept_epstein,
    numerics.zeta_int,
    numerics._sqrt_bits,
)

# Memos kept from test to test: plans that depend on a precision alone, and
# the tables parsed from the packaged data. tests/test_numerics.py fails on
# any memo of the package in neither list.
KEPT_MEMOS = (
    numerics._hurwitz_plan,
    numerics._trigamma_plan,
    numerics._trigamma_order,
    numerics._moment_order,
    epstein._sl2_plan,
    identities.load_tables,
)


def clear_memos():
    """Empty the per-process memos of computed values (VALUE_MEMOS)."""
    for memo in VALUE_MEMOS:
        memo.cache_clear()


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test starts with empty memos, so its result does not depend on
    which tests ran before it in the process. The fixture's value is
    clear_memos, for a test that empties them again."""
    clear_memos()
    return clear_memos
