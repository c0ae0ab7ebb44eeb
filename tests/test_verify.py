import dataclasses

import numpy as np
import pytest

from trslab import verify
from trslab.experiments import ProblemSpec, run_experiment
from trslab.trs import BOUNDARY


def test_instance_generator_avoids_hard_case():
    rng = np.random.default_rng(55)
    for _ in range(40):
        T, beta0, delta, (lam, h, case) = verify.random_secular_instance(rng)
        assert case == BOUNDARY or lam == 0.0
        assert np.isfinite(h).all()


def test_checks_pass_on_healthy_run(small_run):
    for checker in (
        verify.check_residual_identity,
        verify.check_monotonicity,
        verify.check_dominance,
        verify.check_rates,
    ):
        passed, margin, detail = checker(small_run)
        assert passed, f"{checker.__name__}: {detail}"


def test_rate_check_rejects_corrupted_decay_factor(small_run):
    # a wrong geometric factor must trip the slope window
    bad_ref = dataclasses.replace(small_run.reference, t=small_run.reference.t**2)
    bad = dataclasses.replace(small_run, reference=bad_ref)
    passed, _, _ = verify.check_rates(bad)
    assert not passed


def test_dominance_check_rejects_deflated_bounds(small_run):
    cols = {k: v.copy() for k, v in small_run.table.items()}
    cols["q_gap_bound"] = cols["q_gap_bound"] * 1e-6
    bad = dataclasses.replace(small_run, table=cols)
    passed, _, detail = verify.check_dominance(bad)
    assert not passed and "q_gap" in detail


def test_dominance_holds_where_cg_gap_reaches_the_floor():
    # family 2 instance whose cg_gap levels off near 1e-13: the reference
    # moment must carry no error of its own there
    result = run_experiment(ProblemSpec("2", 2000, 1.0, 4095827048))
    passed, _, detail = verify.check_dominance(result)
    assert passed, detail


def test_chebyshev_check_sensitive_to_recurrence(monkeypatch):
    # sabotage the recurrence the way a first-kind/second-kind mixup would
    import trslab.bounds as bd

    original = bd.chebyshev_u_values

    def wrong(count, x):
        out = original(count, x)
        if count >= 2:
            out[1] = np.asarray(x, dtype=float)  # first-kind T_1 instead of U_1
        return out

    monkeypatch.setattr(bd, "chebyshev_u_values", wrong)
    passed, _, _ = verify.check_chebyshev_identity(samples=20)
    assert not passed


def test_verify_rejects_unknown_scale():
    with pytest.raises(ValueError):
        verify.verify(scale="huge")
