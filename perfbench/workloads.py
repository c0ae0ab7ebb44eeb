"""The three seeded workloads, their timed operations and the correctness gate.

deep    one long gltr_solve on family 2 (Chebyshev nodes) at n = 100 000
        with resid_tol = 0, so every solve takes exactly DEEP_K_MAX + 1
        Lanczos steps.  The n x k basis makes the lanczos layer dominate.
stream  a fixed sequence of default-tolerance solves at n = 2000 (family 4,
        dense, at n = 500): boundary cases from all five families and two
        interior cases on positive definite spectra with a large radius.
        Here the tridiagonal solver (trs) dominates, and the interior cases
        take its early-exit path.
lab     run_experiment on all five families at the `verify quick` sizes,
        then the start of the oracle-equivalence batch that `verify quick`
        runs.  The
        harness layers (reference solution, separation, bounds, dense
        eigensolvers) run only here.

Every instance but lab's fixed oracle batch comes from the workload seed
alone, so the same seed gives the same inputs.  The gate compares each
output with an independent reference, outside the timed region, and returns
the list of problems it found (empty when the output is correct).
"""

from __future__ import annotations

import functools
import hashlib
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from trslab import experiments as ex
from trslab import gltr, trs, verify

DEEP_N = 100_000
# 71 steps: the residual formula is near 4e-11 there, well inside check_kkt's
# stationarity tolerance, while the solve still takes several seconds.
DEEP_K_MAX = 70
STREAM_N = 2000
STREAM_DENSE_N = 500
LAB_SIZES = {"1a": 2000, "1b": 2000, "2": 2000, "3": 2000, "4": 500}
# The oracle batch is the first 40 instances of the `verify quick` one, the
# same in every run: its instance orders are random in 1..40 and its cost goes
# with their cubes, so a batch drawn from the workload seed would move the lab
# pass time from seed to seed.  40 of the 120 keep a lab pass near 10 s, so a
# run holds three or four passes.
LAB_ORACLE_INSTANCES = 40
LAB_ORACLE_SEED = 123

LAM_RTOL = 1e-9  # |lam - lam_ref| / (1 + |lam_ref|) on converged solves
IDENTITY_RTOL = 1e-9  # same scale as verify.check_residual_identity


def case_seed(seed, index):
    """Seed of the index-th instance of a workload run with the given seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Case:
    """One gltr_solve operation: an instance plus the solver arguments."""

    label: str
    spec: ex.ProblemSpec
    solve_kwargs: dict = field(default_factory=dict)
    check_identity: bool = False
    A: object = None
    g: np.ndarray | None = None
    lam_ref: float | None = None  # filled by the gate on first use

    def generate(self):
        self.A, self.g = ex.generate(self.spec)
        return self


def deep_cases(seed):
    spec = ex.ProblemSpec("2", DEEP_N, 1.0, case_seed(seed, 0))
    kwargs = {"resid_tol": 0.0, "k_max": DEEP_K_MAX}
    return [Case(f"2/n={DEEP_N}/k_max={DEEP_K_MAX}", spec, kwargs, check_identity=True)]


def stream_cases(seed):
    boundary = [
        (fam, STREAM_DENSE_N if fam == "4" else STREAM_N, 1.0, {})
        for fam in ("1a", "1b", "2", "3", "4")
    ]
    interior = [
        ("3", STREAM_N, 10.0, {"alpha_n": 0.5}),
        ("2", STREAM_N, 10.0, {"a": 0.5, "b": 5.0}),
    ]
    cases = []
    for index, (fam, n, delta, params) in enumerate(boundary + interior):
        spec = ex.ProblemSpec(fam, n, delta, case_seed(seed, index), params)
        cases.append(Case(f"{fam}/n={n}/delta={delta:g}{'/' + str(params) if params else ''}", spec))
    return cases


def lab_specs(seed):
    return [
        ex.default_spec(fam, n=n, seed=case_seed(seed, index))
        for index, (fam, n) in enumerate(LAB_SIZES.items())
    ]


# -- correctness gate -----------------------------------------------------


def reference_lam(case):
    """Multiplier from the explicit secular equation on the exact spectrum."""
    A, g = case.A, case.g
    if A.diagonal is not None:
        theta, coeffs = A.diagonal, g
    else:
        theta, vecs = np.linalg.eigh(A.dense)
        coeffs = vecs.T @ g
    lam, _, _, _ = trs.solve_trs_spectral(theta, coeffs, case.spec.delta)
    return lam


def check_solve(case, result):
    """Problems with one gltr_solve result; empty when it is correct."""
    problems = []
    if case.lam_ref is None:
        case.lam_ref = reference_lam(case)
    lam_err = abs(result.lam - case.lam_ref) / (1.0 + abs(case.lam_ref))
    if not lam_err <= LAM_RTOL:
        problems.append(f"{case.label}: lam {result.lam!r} vs reference {case.lam_ref!r}")
    kkt = trs.check_kkt(case.A, case.g, case.spec.delta, result.lam, result.s)
    if not kkt.passed:
        problems.append(f"{case.label}: KKT check failed {kkt}")
    if case.check_identity:
        explicit = gltr.explicit_residual(case.A, case.g, result.lam, result.s)
        formula = result.history[-1].resid_formula
        d = case.A.diagonal if case.A.diagonal is not None else np.linalg.eigvalsh(case.A.dense)
        scale = (abs(float(d.max())) + abs(float(d.min()))) * case.spec.delta + float(
            np.linalg.norm(case.g)
        )
        if not abs(explicit - formula) <= IDENTITY_RTOL * scale:
            problems.append(f"{case.label}: residual identity {explicit!r} vs {formula!r}")
    return problems


def check_experiment(result):
    """Problems with one run_experiment result, by the verify property checks."""
    problems = []
    for name, check in (
        ("residual_identity", verify.check_residual_identity),
        ("monotonicity", verify.check_monotonicity),
        ("dominance", verify.check_dominance),
    ):
        passed, _, detail = check(result)
        if not passed:
            problems.append(f"{result.spec.family}: {name} failed ({detail})")
    return problems


def check_oracle(outcome):
    passed, _, detail = outcome
    return [] if passed else [f"oracle equivalence failed ({detail})"]


def artifact_digests(result, directory):
    """sha256 of the CSV and summary JSON that run_experiment's caller emits."""
    name = result.spec.family
    csv_path = os.path.join(directory, f"{name}.csv")
    summary_path = os.path.join(directory, f"{name}.summary.json")
    ex.emit_csv(result.table, csv_path)
    ex.emit_summary(result.summary, summary_path)
    digests = {}
    for path in (csv_path, summary_path):
        with open(path, "rb") as fh:
            digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def artifact_digests_of(results, root):
    """Emit the artifacts of every experiment result into a throwaway
    directory under root and hash them; {} when there are none."""
    experiments = [r for r in results if isinstance(r, ex.ExperimentResult)]
    if not experiments:
        return {}
    os.makedirs(root, exist_ok=True)
    digests = {}
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for result in experiments:
            digests.update(artifact_digests(result, tmp))
    return digests


def orthogonality_loss(basis):
    """||Q'Q - I||_2 of a Lanczos basis."""
    gram = basis.T @ basis
    gram[np.diag_indices_from(gram)] -= 1.0
    return float(np.linalg.norm(gram, 2))


def reorth_flops(n, order_before, order_after):
    """Flops of the two Gram-Schmidt passes for Lanczos steps order_before..after-1.

    Step j orthogonalizes against j + 1 stored columns; each pass costs two
    n x (j+1) matrix-vector products, 4 n (j+1) flops.
    """
    cols = (order_after * (order_after + 1) - order_before * (order_before + 1)) // 2
    return 8.0 * n * cols


# -- workloads as lists of operations ------------------------------------


@dataclass
class Operation:
    label: str
    span: str  # span name of the call in a traced run
    fn: object  # zero-argument callable
    counted: bool  # counts toward solves_per_s (experiments_per_s on lab)


class SolveWorkload:
    """deep and stream: one gltr_solve per case, gated against the spectrum."""

    def __init__(self, make_cases, seed):
        self.make_cases = make_cases
        self.seed = seed
        self.cases = []

    def setup(self):
        self.cases = [case.generate() for case in self.make_cases(self.seed)]

    def operators(self):
        return [case.A for case in self.cases]

    def operations(self):
        return [
            Operation(
                case.label,
                "gltr.solve",
                functools.partial(
                    gltr.gltr_solve, case.A, case.g, case.spec.delta, **case.solve_kwargs
                ),
                True,
            )
            for case in self.cases
        ]

    def check(self, index, result):
        return check_solve(self.cases[index], result)

    @staticmethod
    def steps(result):
        return result.iterations

    @staticmethod
    def basis(result):
        return result.factorization.basis


class LabWorkload:
    """lab: five experiments and one oracle-equivalence batch per pass."""

    def __init__(self, seed):
        self.seed = seed
        self.specs = lab_specs(seed)

    def setup(self):
        # run_experiment generates its own instance; set-up time is the cost
        # of that generation, measured on its own
        for spec in self.specs:
            ex.generate(spec)

    def operators(self):
        return []

    def operations(self):
        ops = [
            Operation(spec.family, "experiments.run", functools.partial(ex.run_experiment, spec), True)
            for spec in self.specs
        ]
        oracle = functools.partial(
            verify.check_oracle_equivalence,
            instances=LAB_ORACLE_INSTANCES,
            seed=LAB_ORACLE_SEED,
        )
        ops.append(Operation("oracle", "verify.oracle", oracle, False))
        return ops

    def check(self, index, result):
        if index < len(self.specs):
            return check_experiment(result)
        return check_oracle(result)

    @staticmethod
    def steps(result):
        return result.run.iterations if isinstance(result, ex.ExperimentResult) else 0

    @staticmethod
    def basis(result):
        return result.run.factorization.basis if isinstance(result, ex.ExperimentResult) else None


def make_workload(name, seed):
    if name == "deep":
        return SolveWorkload(deep_cases, seed)
    if name == "stream":
        return SolveWorkload(stream_cases, seed)
    if name == "lab":
        return LabWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
