"""Tests of the benchmark's own logic: spans, rebinding, seeding and the gate."""

import dataclasses
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402
from trslab import experiments as ex  # noqa: E402
from trslab import gltr  # noqa: E402


def test_self_time_subtracts_children():
    spans = [
        Span("gltr.solve", 0.0, 10.0, None, 0),
        Span("lanczos.extend", 1.0, 4.0, 0, 0),
        Span("linalg.apply", 1.5, 2.0, 1, 0),
        Span("trs.solve", 5.0, 9.0, 0, 0),
        Span("trs.ldl", 5.5, 6.5, 3, 0),
        Span("trs.ldl", 7.0, 8.5, 3, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.5, 0.5, 1.5, 1.0, 1.5])


def test_reference_seconds_cancels_host_speed():
    # two operations over three passes; the third pass ran on a host twice as slow
    passes = [
        [(1.0, 0.04, 0.04), (3.0, 0.04, 0.04)],
        [(1.2, 0.04, 0.04), (2.8, 0.04, 0.04)],
        [(2.2, 0.08, 0.08), (6.0, 0.08, 0.08)],
    ]
    per_op_medians = 1.1 / 0.04 + 3.0 / 0.04
    assert run.reference_seconds(passes) == pytest.approx(run.CAL_REF_S * per_op_medians)
    slower = [[(2 * s, 2 * b, 2 * a) for s, b, a in p] for p in passes]
    assert run.reference_seconds(slower) == pytest.approx(run.reference_seconds(passes))
    # the calibration samples on both sides of an operation count equally
    assert run.reference_seconds([[(3.0, 0.04, 0.08)]]) == pytest.approx(run.CAL_REF_S * 3.0 / 0.06)


def test_tracer_records_parent_op_and_failure():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        traced_inner(1)
        with pytest.raises(ValueError):
            traced_inner(-1)
        return 7

    assert tracer.operation("outer", outer) == 7
    names = [(s.name, s.parent, s.op, s.failed) for s in tracer.spans]
    assert names == [("outer", None, 0, False), ("inner", 0, 0, False), ("inner", 0, 0, True)]
    assert all(s.end > s.start for s in tracer.spans)


def test_traced_run_restores_every_rebound_name():
    namespaces = [(importlib.import_module(module), attr) for module, attr, _ in layers.BINDINGS]
    before = [(ns, attr, getattr(ns, attr)) for ns, attr in namespaces]
    A, g = ex.generate(ex.ProblemSpec("2", 300, 1.0, 5))
    class_apply = type(A).apply
    tracer = Tracer()
    try:
        layers.install(tracer)
        tracer.wrap_apply(A)
        assert all(getattr(ns, attr) is not orig for ns, attr, orig in before)
        result = tracer.operation("gltr.solve", gltr.gltr_solve, A, g, 1.0)
    finally:
        tracer.restore()
    assert all(getattr(ns, attr) is orig for ns, attr, orig in before)
    assert "apply" not in vars(A) and type(A).apply is class_apply

    metrics = layers.layer_metrics(tracer.spans, 1, 0.0, 0.0, 0.0)
    assert metrics["lanczos.steps"] == result.iterations
    assert metrics["trs.calls"] == result.iterations
    assert metrics["linalg.apply_calls"] == result.iterations
    assert metrics["lanczos.reorth_gflop_computed"] == pytest.approx(
        workloads.reorth_flops(300, 0, result.iterations) / 1e9
    )
    assert {s.op for s in tracer.spans} == {0}


def test_reorth_flops_adds_up_by_step():
    n = 10
    split = workloads.reorth_flops(n, 0, 3) + workloads.reorth_flops(n, 3, 7)
    assert split == workloads.reorth_flops(n, 0, 7) == 8.0 * n * sum(range(1, 8))


def test_seed_changes_inputs_and_repeats_them():
    def gradients(seed):
        return [case.generate().g for case in workloads.stream_cases(seed)[:3]]

    first, again, other = gradients(0), gradients(0), gradients(1)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not any(np.array_equal(a, b) for a, b in zip(first, other))
    assert [s.seed for s in workloads.lab_specs(0)] != [s.seed for s in workloads.lab_specs(1)]
    assert workloads.deep_cases(0)[0].spec.seed != workloads.deep_cases(1)[0].spec.seed


def test_wrong_lam_counts_as_failed():
    case = workloads.Case("2/n=400", ex.ProblemSpec("2", 400, 1.0, 3)).generate()
    good = gltr.gltr_solve(case.A, case.g, 1.0)
    assert workloads.check_solve(case, good) == []

    bad = dataclasses.replace(good, lam=good.lam * (1.0 + 1e-6))
    assert workloads.check_solve(case, bad)

    class OneCase:
        def check(self, index, result):
            return workloads.check_solve(case, result)

    op = workloads.Operation(case.label, "gltr.solve", None, True)
    found = run.gate(OneCase(), [(op, good, 0.1), (op, bad, 0.1), (op, None, 0.1)])
    assert [bool(p) for p in found] == [False, True, True]
