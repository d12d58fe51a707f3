"""The fixture every tier-1 test shares, under tests/ and perfbench/ alike:
each test starts with the per-process memos of computed values empty."""

import pytest

from updownlab import identities, series


def clear_memos():
    """Empty the per-process memos of computed values: the series loop's
    kept lanes and Fibonacci-Lucas halves, and the RHS constants and
    E(z, 2) that verify keeps."""
    series._real_lanes.cache_clear()
    series._fib_halves.cache_clear()
    identities._kept_constant.cache_clear()
    identities._kept_epstein.cache_clear()


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test starts with empty memos, so its result does not depend on
    which tests ran before it in the process. The fixture's value is
    clear_memos, for a test that empties them again."""
    clear_memos()
    return clear_memos
