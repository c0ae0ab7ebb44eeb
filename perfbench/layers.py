"""Which trslab calls the traced run times, and the per-layer metrics.

Each binding names the module whose namespace the caller looks the function
up in, so rebinding it there intercepts exactly the calls made from that
module.  The layers are the package modules; mmio and cli are thin wrappers
and are not measured.
"""

from __future__ import annotations

import importlib
import statistics

from tracer import self_times
from workloads import reorth_flops

BOUNDS_FUNCTIONS = (
    "spectrum_data",
    "cg_energy_bound",
    "lambda_gap_bound",
    "q_gap_bound",
    "s_gap_bound",
    "residual_bound",
    "sin_angle_bound",
    "sin_subspace_bound",
)

BINDINGS = [
    # (calling module, public name, span name)
    ("trslab.gltr", "lanczos_run", "lanczos.run"),
    ("trslab.gltr", "extend_lanczos", "lanczos.extend"),
    ("trslab.gltr", "solve_trs_tridiagonal", "trs.solve"),
    ("trslab.gltr", "objective_via_tridiagonal", "gltr.objective"),
    ("trslab.trs", "extremal_eig_tridiagonal", "trs.theta_min"),
    ("trslab.trs", "solve_shifted", "trs.ldl"),
    ("trslab.trs", "symmetric_eig_dense", "linalg.dense_eig"),
    ("trslab.trs", "smallest_eig_dense", "linalg.dense_smallest_eig"),
    ("trslab.experiments", "generate", "experiments.generate"),
    ("trslab.experiments", "reference_solution", "experiments.reference"),
    ("trslab.experiments", "estimate_extremal_eigenvalues", "experiments.extremal_estimate"),
    ("trslab.experiments", "gltr_solve", "gltr.solve"),
    ("trslab.experiments", "lanczos_run", "lanczos.run"),
    ("trslab.experiments", "operator_norm_2", "linalg.power_iter"),
    ("trslab.experiments", "eigpair_from_trs", "augmented.eigpair"),
    ("trslab.experiments", "separation", "augmented.separation"),
    ("trslab.augmented", "smallest_eig_dense", "linalg.dense_smallest_eig"),
    ("trslab.augmented", "operator_norm_2", "linalg.power_iter"),
    ("trslab.verify", "random_secular_instance", "verify.instance"),
    ("trslab.verify", "solve_trs_tridiagonal", "trs.solve"),
    ("trslab.verify", "symmetric_eig_dense", "linalg.dense_eig"),
    ("trslab.verify", "lanczos_run", "lanczos.run"),
] + [("trslab.bounds", fn, "bounds.eval") for fn in BOUNDS_FUNCTIONS]


def _lanczos_run_info(args, kwargs, result):
    return (result.dim, 0, result.tridiag.order)


def _lanczos_extend_info(args, kwargs, result):
    before = args[0] if args else kwargs["f"]
    return (result.dim, before.tridiag.order, result.tridiag.order)


def install(tracer):
    """Rebind every public name in BINDINGS to a traced wrapper."""

    def wrap_generated(args, kwargs, result):
        tracer.wrap_apply(result[0])
        return None

    annotate = {
        "lanczos.run": _lanczos_run_info,
        "lanczos.extend": _lanczos_extend_info,
        "experiments.generate": wrap_generated,
    }
    for module, attr, name in BINDINGS:
        tracer.rebind(importlib.import_module(module), attr, name, annotate.get(name))


def layer_metrics(spans, passes, orth_loss, generate_s, overhead_share):
    """Per-layer metrics per traced pass, from the spans of those passes.

    Times are span durations unless named self_s, which subtracts the time
    child spans cover.  Calls of a layer from inside the same layer (a bound
    evaluated by another bound) are not counted twice.
    """
    selfs = self_times(spans)
    count: dict[str, int] = {}
    dur: dict[str, float] = {}
    own: dict[str, float] = {}
    failed: dict[str, int] = {}
    steps = 0
    flops = 0.0
    for span, self_s in zip(spans, selfs):
        name = span.name
        parent = spans[span.parent].name if span.parent is not None else None
        own[name] = own.get(name, 0.0) + self_s
        if parent is not None and parent.split(".")[0] == name.split(".")[0] == "bounds":
            continue
        count[name] = count.get(name, 0) + 1
        dur[name] = dur.get(name, 0.0) + (span.end - span.start)
        failed[name] = failed.get(name, 0) + span.failed
        if name.startswith("lanczos.") and span.info is not None:
            n, before, after = span.info
            steps += after - before
            flops += reorth_flops(n, before, after)

    def per_pass(value):
        return value / passes

    def own_of(prefix):
        return sum(v for k, v in own.items() if k.startswith(prefix))

    lanczos_self = own_of("lanczos.")
    ldl_calls = count.get("trs.ldl", 0)
    return {
        "lanczos.steps": per_pass(steps),
        "lanczos.self_s": per_pass(lanczos_self),
        "lanczos.self_ms_per_step": 1e3 * lanczos_self / steps if steps else 0.0,
        "lanczos.reorth_gflop_computed": per_pass(flops) / 1e9,
        "lanczos.achieved_gflops": flops / 1e9 / lanczos_self if lanczos_self else 0.0,
        "lanczos.orth_loss": orth_loss,
        "trs.calls": per_pass(count.get("trs.solve", 0)),
        "trs.self_s": per_pass(own.get("trs.solve", 0.0)),
        "trs.theta_min_calls": per_pass(count.get("trs.theta_min", 0)),
        "trs.theta_min_s": per_pass(dur.get("trs.theta_min", 0.0)),
        "trs.ldl_calls": per_pass(ldl_calls),
        "trs.ldl_s": per_pass(dur.get("trs.ldl", 0.0)),
        "trs.ldl_per_call": 1e3 * dur.get("trs.ldl", 0.0) / ldl_calls if ldl_calls else 0.0,
        "trs.ldl_indefinite_share": failed.get("trs.ldl", 0) / ldl_calls if ldl_calls else 0.0,
        "linalg.apply_calls": per_pass(count.get("linalg.apply", 0)),
        "linalg.apply_s": per_pass(dur.get("linalg.apply", 0.0)),
        "linalg.power_iter_s": per_pass(dur.get("linalg.power_iter", 0.0)),
        "linalg.dense_smallest_eig_s": per_pass(dur.get("linalg.dense_smallest_eig", 0.0)),
        "linalg.dense_eig_calls": per_pass(count.get("linalg.dense_eig", 0)),
        "linalg.dense_eig_s": per_pass(dur.get("linalg.dense_eig", 0.0)),
        "gltr.self_s": per_pass(own.get("gltr.solve", 0.0)),
        "gltr.objective_s": per_pass(dur.get("gltr.objective", 0.0)),
        "experiments.generate_s": generate_s,
        "experiments.reference_s": per_pass(dur.get("experiments.reference", 0.0)),
        "experiments.extremal_estimate_s": per_pass(
            dur.get("experiments.extremal_estimate", 0.0)
        ),
        "experiments.self_s": per_pass(own_of("experiments.")),
        "augmented.separation_calls": per_pass(count.get("augmented.separation", 0)),
        "augmented.separation_s": per_pass(dur.get("augmented.separation", 0.0)),
        "augmented.eigpair_s": per_pass(dur.get("augmented.eigpair", 0.0)),
        "bounds.calls": per_pass(count.get("bounds.eval", 0)),
        "bounds.s": per_pass(dur.get("bounds.eval", 0.0)),
        "verify.oracle_s": per_pass(dur.get("verify.oracle", 0.0)),
        "verify.self_s": per_pass(own_of("verify.")),
        "trace.overhead_share": overhead_share,
    }


def overhead_share(untraced_times, traced_times):
    """Median relative slowdown of each traced pass against the untraced pass
    run just before it, which pairs passes that met the same machine load."""
    return statistics.median(t / u for u, t in zip(untraced_times, traced_times)) - 1.0
