import time

import numpy as np
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


@pytest.fixture
def assert_same_result():
    """Assert two GltrResults equal bitwise: every record field, s, the
    termination and the factorization (basis, T, beta_next, q_{k+1})."""

    def check(a, b):
        assert len(a.history) == len(b.history)
        for ra, rb in zip(a.history, b.history):
            assert (ra.k, ra.lam, ra.q, ra.resid_formula, ra.case, ra.secular_iterations) == (
                rb.k,
                rb.lam,
                rb.q,
                rb.resid_formula,
                rb.case,
                rb.secular_iterations,
            )
            assert np.array_equal(ra.h, rb.h)
        assert (a.lam, a.q, a.termination) == (b.lam, b.q, b.termination)
        assert np.array_equal(a.s, b.s)
        fa, fb = a.factorization, b.factorization
        assert np.array_equal(fa.basis, fb.basis)
        assert np.array_equal(fa.tridiag.diag, fb.tridiag.diag)
        assert np.array_equal(fa.tridiag.offdiag, fb.tridiag.offdiag)
        assert (fa.beta0, fa.beta_next, fa.broken_down) == (fb.beta0, fb.beta_next, fb.broken_down)
        if fb.next_vector is None:
            assert fa.next_vector is None
        else:
            assert np.array_equal(fa.next_vector, fb.next_vector)

    return check
