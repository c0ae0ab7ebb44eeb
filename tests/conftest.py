import time

import pytest

from trslab import experiments as ex

FAMILIES = ("1a", "1b", "2", "3", "4")


@pytest.fixture(scope="session")
def family_runs():
    """Default-size seeded runs of all five families, shared across tests.

    Runs deep enough (resid_tol 1e-14) that the solution-angle error reaches
    its floating floor, as the table-reproduction checks require.
    """
    runs = {}
    timings = {}
    for fam in FAMILIES:
        spec = ex.default_spec(fam, seed=0)
        start = time.perf_counter()
        runs[fam] = ex.run_experiment(spec, k_max=140, resid_tol=1e-14)
        timings[fam] = time.perf_counter() - start
    return runs, timings


@pytest.fixture(scope="session")
def small_run():
    """One quick diagonal run for module-level checks."""
    spec = ex.ProblemSpec(family="2", n=2000, seed=11)
    return ex.run_experiment(spec)
