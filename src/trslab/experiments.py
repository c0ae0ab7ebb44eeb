"""Problem generators, reference solutions and the experiment harness.

Five named families cover the representative eigenvalue distributions used
to exercise the solver: evenly spaced indefinite, piecewise exponential,
translated Chebyshev nodes, the Strakos spectrum, and a scaled symmetrized
Gaussian matrix.  Families with a prescribed spectrum are built as diagonal
operators: every measured and bounded quantity depends only on the spectrum
and on the coefficients of the (rotation-invariant) random gradient in the
eigenbasis.  An optional seeded orthogonal similarity is available for
full-matrix runs at moderate sizes; its reflectors are the operator's maps
to and from the eigenbasis, so the spectrum stays known.  Family 4 is scaled
to unit 2-norm by Lanczos estimates of its extremal eigenvalues, and its
operator is built with the scaled extremes.  The reference solution asks an
operator only for its `spectrum` and `extremes`.

The harness runs the solver with per-iteration verification, measures every
error against a reference solution, evaluates the whole bound catalogue per
iteration, and emits a CSV, a gnuplot script and a summary JSON for each
run.  The reference is independent of the solver only on an operator with a
known spectrum; on any other it is a longer run of the same solver, and the
measured run is read off that run's first steps.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bnd
from .augmented import (
    M_NORM_LIMIT,
    AugmentedOperator,
    eigpair_from_trs,
    m_norm_from_spectrum,
    separation,
    solution_sine,
    spectral_condition,
)
from .gltr import K_MAX, check_budget, explicit_residual, gltr_prefix, gltr_solve
from .lanczos import estimate_extremal_eigenvalues, operator_norm_2, q_times, qt_times
from .lanczos import lanczos_run  # noqa: F401  not called here; perfbench/layers.py rebinds it
from .linalg import NoConvergence
from .linalg import Spectrum, SymmetricLinearOperator, ldl_back, ldl_shifted_e1, solve_shifted
from .mmio import read_matrix_market, read_vector
from .trs import BOUNDARY, solve_trs_spectral

FAMILIES = ("1a", "1b", "2", "3", "4", "file")
REFERENCE_TOL = 1e-14  # secular and residual tolerance of reference_solution
REFERENCE_K_MAX = 600  # step budget of the Krylov reference solve
CHECKPOINT_EVERY = 5  # stride of the steps at which the angle bound is evaluated

CSV_COLUMNS = [
    "k",
    "lambda_gap",
    "lambda_gap_bound",
    "sin_angle",
    "sin_angle_bound",
    "q_gap",
    "q_gap_bound",
    "resid",
    "resid_formula",
    "resid_bound",
    "s_gap",
    "s_gap_bound",
    "cg_gap",
    "cg_gap_bound",
]


class InvalidSpec(ValueError):
    pass


# the JSON values a spec field of each annotated type accepts (no bool), and
# how an error names them; `family` is checked against FAMILIES instead
_JSON_KINDS = {
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "dict": (dict, "an object"),
}


@dataclass(frozen=True)
class ProblemSpec:
    family: str
    n: int
    delta: float = 1.0
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidSpec(f"unknown family {self.family!r}")
        if self.family != "file" and self.n < 2:
            raise InvalidSpec("n must be >= 2")
        if not 0.0 < self.delta < np.inf:
            raise InvalidSpec(f"delta must be positive and finite, got {self.delta!r}")

    def to_json(self):
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        if not isinstance(data, dict):
            raise InvalidSpec("a spec must be a JSON object")
        fields = dataclasses.fields(cls)
        extra = set(data) - {f.name for f in fields}
        if extra:
            raise InvalidSpec(f"unknown spec fields {sorted(extra)}")
        missing = dataclasses.MISSING
        required = [f.name for f in fields if f.default is missing and f.default_factory is missing]
        if not set(required) <= set(data):
            raise InvalidSpec(f"a spec needs the fields {' and '.join(map(repr, required))}")
        for f in fields:
            if f.name not in data or f.type not in _JSON_KINDS:
                continue
            kind, what = _JSON_KINDS[f.type]
            if not isinstance(data[f.name], kind) or isinstance(data[f.name], bool):
                raise InvalidSpec(f"spec field {f.name!r} must be {what}, got {data[f.name]!r}")
            if f.type == "float":
                data[f.name] = float(data[f.name])
        return cls(**data)


def default_spec(name, n=None, seed=0, delta=1.0):
    """ProblemSpec for a named family at its default size."""
    if name not in ("1a", "1b", "2", "3", "4"):
        raise InvalidSpec(f"unknown experiment name {name!r}")
    if n is None:
        n = 2000 if name == "4" else 10000
    return ProblemSpec(family=name, n=n, delta=delta, seed=seed)


def _spectrum_evenly(n):
    i = np.arange(1, n + 1)
    return np.where(i <= n // 2, -2.0 + 4.0 / n * (i - 1), 2.0 - 4.0 / n * (n - i))


def _spectrum_exponential(n):
    i = np.arange(1, n + 1)
    return np.where(i <= n // 2, -np.exp(2.0 * i / n), np.exp((2.0 * i - n) / n))


def _spectrum_chebyshev_nodes(n, a, b):
    j = np.arange(1, n + 1)
    nodes = np.cos((2.0 * j - 1.0) * np.pi / (2.0 * n))
    return (b - a) / 2.0 * (nodes + (a + b) / (b - a))


def _spectrum_strakos(n, alpha1, alpha_n, rho):
    # ascending from the smallest eigenvalue: the bulk clusters at alpha_n
    # and the large eigenvalues are geometrically separated up to alpha1
    i = np.arange(1, n + 1)
    return alpha_n + (i - 1.0) / (n - 1.0) * (alpha1 - alpha_n) * rho ** (n - i)


def _householder_similarity(d, reflectors):
    """R D R' with R a short product of seeded Householder reflectors.

    Exact spectrum D with a dense-acting, non-diagonal representation; used
    for full-fidelity variants of the diagonal families.  The reflector maps
    are the operator's maps to and from its eigenbasis.
    """
    units = [u / np.linalg.norm(u) for u in reflectors]

    def reflect(v, order):
        for u in order:
            v = v - 2.0 * (u @ v) * u
        return v

    def to_eigenbasis(v):  # R' v
        return reflect(v, units)

    def from_eigenbasis(w):  # R w
        return reflect(w, units[::-1])

    return SymmetricLinearOperator(
        d.size,
        lambda v: from_eigenbasis(d * to_eigenbasis(v)),
        spectrum=Spectrum(d, to_eigenbasis, from_eigenbasis),
    )


def _unit_gaussian(rng, n):
    g = rng.standard_normal(n)
    g /= float(np.linalg.norm(g))
    return g


def generate(spec):
    """Build (A, g) for a problem spec; g is a seeded unit Gaussian vector.

    Each family takes its own params out of spec.params, and any left over
    are rejected before the O(n^2) work of family 4 or a file read.
    """
    rng = np.random.default_rng(spec.seed)
    params = dict(spec.params)
    similarity = bool(params.pop("orthogonal_similarity", False))
    if similarity and spec.family in ("4", "file"):
        raise InvalidSpec(f"orthogonal_similarity does not apply to family {spec.family!r}")
    n = spec.n

    if spec.family == "1a":
        d = _spectrum_evenly(n)
    elif spec.family == "1b":
        d = _spectrum_exponential(n)
    elif spec.family == "2":
        a = float(params.pop("a", -5.0))
        b = float(params.pop("b", 5.0))
        if not b > a:
            raise InvalidSpec("interval must satisfy b > a")
        d = _spectrum_chebyshev_nodes(n, a, b)
    elif spec.family == "3":
        alpha1 = float(params.pop("alpha1", 8.0))
        alpha_n = float(params.pop("alpha_n", -2.0))
        rho = float(params.pop("rho", 0.99))
        if not 0.0 < rho <= 1.0:
            raise InvalidSpec("rho must lie in (0, 1]")
        d = _spectrum_strakos(n, alpha1, alpha_n, rho)
    elif spec.family == "file":
        path = params.pop("path", None)
        if path is None:
            raise InvalidSpec("family 'file' requires params['path']")
        gpath = params.pop("gradient_path", None)
        for key, value in (("path", path), ("gradient_path", gpath)):
            # open() takes an integer as a file descriptor: 0 would read stdin
            if value is not None and not isinstance(value, str):
                raise InvalidSpec(f"params[{key!r}] must be a string, got {value!r}")
    if params:  # family 4 takes none
        raise InvalidSpec(f"unknown params {sorted(params)} for family {spec.family!r}")

    if spec.family == "4":
        G = rng.standard_normal((n, n))
        dense = G + G.T
        g = _unit_gaussian(rng, n)
        # G + G' is exactly symmetric, and so is its quotient by the scale, which
        # from_dense checks; the estimate needs only the products
        lo, hi = estimate_extremal_eigenvalues(SymmetricLinearOperator(n, lambda v: dense @ v))
        scale = max(abs(lo), abs(hi))
        A = SymmetricLinearOperator.from_dense(dense / scale, extremes=(lo / scale, hi / scale))
        return A, g
    if spec.family == "file":
        n_file, rows, cols, vals = read_matrix_market(path)
        A = SymmetricLinearOperator.from_triplets(n_file, rows, cols, vals)
        g = _unit_gaussian(rng, n_file) if gpath is None else read_vector(gpath)
        if g.size != n_file:
            raise InvalidSpec(f"gradient length {g.size} != matrix order {n_file}")
        return A, g

    g = _unit_gaussian(rng, n)
    if similarity:
        if n > 2000:
            raise InvalidSpec("orthogonal_similarity is limited to n <= 2000")
        return _householder_similarity(d, [rng.standard_normal(n) for _ in range(2)]), g
    return SymmetricLinearOperator.from_diagonal(d), g


@dataclass
class ReferenceSolution:
    lambda_opt: float
    s_opt: np.ndarray
    q_opt: float
    alpha1: float
    alpha_n: float
    kappa: float
    t: float
    m_norm: float
    y1_norm: float
    y1: np.ndarray
    y2: np.ndarray
    run: object = None  # the REFERENCE_TOL gltr_solve result; None on the spectral branch


def reference_solution(A, g, delta):
    """High-accuracy reference (lambda_opt, s_opt, ...) for error measurement.

    Operators with a known `spectrum` get a direct secular solve and an exact
    ||M|| in the eigenbasis.  Other operators are solved by the Krylov driver
    at a tighter residual tolerance than any measured run, and that
    gltr_solve result is kept as `run`, so a measured run can be read off it
    (gltr.gltr_prefix); y2 = (A + lam I)^-1 s_opt is Q (T + lam I)^-1 Q' s_opt
    from the LDL' factors of that run's T, ||M|| comes from the Lanczos
    estimator on M'M, and alpha_n, alpha1 are the operator's `extremes`, or
    Lanczos estimates when it states none.  Raises ValueError, naming delta,
    when ||M||'s bound max|alpha| + 1 + beta0^2/delta^2 passes M_NORM_LIMIT,
    and NoConvergence when the Krylov solve ends at REFERENCE_K_MAX steps.
    """
    g = np.asarray(g, dtype=float)
    beta0 = float(np.linalg.norm(g))
    alpha_n, alpha1 = A.extremes or estimate_extremal_eigenvalues(A)
    bound = max(abs(alpha_n), abs(alpha1)) + 1.0 + (beta0 / delta) * (beta0 / delta)  # >= ||M||
    if bound > M_NORM_LIMIT:
        raise ValueError(f"radius delta={delta!r} is too small: ||M|| may reach {bound:.3e}")
    run = None

    if A.spectrum is not None:
        theta, back = A.spectrum.values, A.spectrum.from_eigenbasis
        c = A.spectrum.to_eigenbasis(g)
        lam, s_eig, _, _ = solve_trs_spectral(theta, c, delta, tol=REFERENCE_TOL)
        s_opt = back(s_eig)
        q_opt = float(c @ s_eig + 0.5 * np.sum(theta * s_eig * s_eig))
        y2_raw = back(s_eig / (theta + lam))
        m_norm = m_norm_from_spectrum(theta, c, delta)
    else:
        run = gltr_solve(A, g, delta, resid_tol=REFERENCE_TOL, k_max=REFERENCE_K_MAX)
        if run.termination == K_MAX:
            resid = run.history[-1].resid_formula
            raise NoConvergence(f"reference run hit k_max={REFERENCE_K_MAX}, residual {resid:.1e}")
        lam, s_opt, q_opt = run.lam, run.s, run.q
        Q, T = run.factorization.basis, run.factorization.tridiag
        y2_raw = q_times(Q, solve_shifted(T, lam, qt_times(Q, s_opt)))
        m_norm = operator_norm_2(AugmentedOperator(A, g, delta))

    sd = bnd.spectrum_data(alpha1, alpha_n, lam, beta0, delta)
    stack_norm = math.sqrt(float(s_opt @ s_opt + y2_raw @ y2_raw))
    y1 = s_opt / stack_norm
    y2 = y2_raw / stack_norm
    return ReferenceSolution(
        lambda_opt=lam,
        s_opt=s_opt,
        q_opt=q_opt,
        alpha1=alpha1,
        alpha_n=alpha_n,
        kappa=sd.kappa,
        t=sd.t,
        m_norm=m_norm,
        y1_norm=float(np.linalg.norm(y1)),
        y1=y1,
        y2=y2,
        run=run,
    )


@dataclass
class ExperimentResult:
    spec: ProblemSpec
    reference: ReferenceSolution
    run: object
    table: dict  # CSV_COLUMNS name -> one value per recorded step
    summary: dict
    diagnostics: dict  # DIAGNOSTICS name -> one value per recorded step


# per-step run-level constants of the bounds, nan where not evaluated
DIAGNOSTICS = ("sep", "eta1", "eta2", "eta1_cap", "eta2_cap", "spectral_condition")


def run_experiment(spec, k_max=300, resid_tol=1e-13):
    """Run a family end to end and assemble the per-iteration error/bound table.

    The separation-based angle bound is evaluated every CHECKPOINT_EVERY
    steps and at the last (it costs dense work at size 2(k+1)); other columns
    exist at every k.  When the reference was solved by gltr_solve, the
    measured run is read off that longer run by gltr_prefix, bitwise what a
    fresh gltr_solve returns, and only a run that goes past it is solved
    again.  Raises ValueError for a k_max that is not an int >= 0 or a
    resid_tol not >= 0 before generating the instance, and InvalidSpec when
    the generated order differs from spec.n.
    """
    check_budget(k_max, resid_tol)
    A, g = generate(spec)
    if A.dim != spec.n:
        raise InvalidSpec(f"spec n {spec.n} != matrix order {A.dim}")
    ref = reference_solution(A, g, spec.delta)
    beta0 = float(np.linalg.norm(g))
    delta = spec.delta
    sd = bnd.spectrum_data(ref.alpha1, ref.alpha_n, ref.lambda_opt, beta0, delta)

    run = None if ref.run is None else gltr_prefix(ref.run, resid_tol, k_max)
    if run is None:
        run = gltr_solve(A, g, delta, resid_tol=resid_tol, k_max=k_max)
    records = run.history
    nk = len(records)
    tridiag, basis = run.factorization.tridiag, run.factorization.basis
    last_k = records[-1].k
    checkpoints = set(range(0, last_k + 1, CHECKPOINT_EVERY))
    checkpoints.add(last_k)

    # reference value of the leading resolvent moment g'(A + lam I)^-1 g / beta0^2,
    # the limit of moment1 below; s_opt = -(A + lam I)^-1 g gives it directly,
    # whereas the objective identity -(2 q_opt + lam delta^2) / beta0^2 also
    # needs ||s_opt|| = delta and is off by lam (||s_opt||^2 - delta^2) / beta0^2
    ref_moment = -float(g @ ref.s_opt) / (beta0 * beta0)

    cols = {name: np.full(nk, np.nan) for name in CSV_COLUMNS}
    cols["k"] = np.array([r.k for r in records], dtype=float)
    diag_data = {name: np.full(nk, np.nan) for name in DIAGNOSTICS}

    # the LDL' factors of each leading block t_k + lam* I, and the forward
    # sweep of e1 through them, are prefixes of the final tridiagonal's, so
    # one factorization and one forward sweep serve every k
    ref_d, ref_l, ref_y = ldl_shifted_e1(tridiag, ref.lambda_opt, 1.0)
    unit_opt = ref.s_opt / float(np.linalg.norm(ref.s_opt))
    for idx, rec in enumerate(records):
        k = rec.k
        s_k = basis[:, : k + 1] @ rec.h

        cols["lambda_gap"][idx] = ref.lambda_opt - rec.lam
        cols["q_gap"][idx] = rec.q - ref.q_opt
        cols["sin_angle"][idx] = solution_sine(s_k, unit_opt)
        cols["s_gap"][idx] = float(np.linalg.norm(s_k - ref.s_opt))
        cols["resid"][idx] = explicit_residual(A, g, rec.lam, s_k)
        cols["resid_formula"][idx] = rec.resid_formula

        x = np.array(ldl_back(ref_d[: k + 1], ref_l[:k], ref_y[: k + 1])[0])
        ef = bnd.eta_factors(float(x @ x), ref.lambda_opt, beta0, delta, ref.alpha1)
        cols["cg_gap"][idx] = ref_moment - float(x[0])
        cols["cg_gap_bound"][idx] = bnd.cg_energy_bound(k, sd)
        cols["lambda_gap_bound"][idx] = bnd.lambda_gap_bound(k, sd, ef.eta1, ef.eta2)
        cols["q_gap_bound"][idx] = bnd.q_gap_bound(k, sd)
        cols["s_gap_bound"][idx] = bnd.s_gap_bound(k, sd)
        cols["resid_bound"][idx] = bnd.residual_bound(k, sd, ef.eta1, ef.eta2)
        for key in ("eta1", "eta2", "eta1_cap", "eta2_cap"):
            diag_data[key][idx] = getattr(ef, key)

        if k in checkpoints and rec.case == BOUNDARY:
            t_k = tridiag.leading(k + 1)
            pair = eigpair_from_trs(t_k, rec.lam, rec.h, beta0=beta0, delta=delta)
            sep = separation(t_k, beta0, delta, pair.vector, ref.lambda_opt)
            diag_data["sep"][idx] = sep
            if sep > 0.0:
                cols["sin_angle_bound"][idx] = bnd.sin_angle_bound(k, sd, ref.m_norm, sep)
            diag_data["spectral_condition"][idx] = spectral_condition(pair.z1, pair.z2)

    return ExperimentResult(
        spec=spec,
        reference=ref,
        run=run,
        table=cols,
        summary=_summary(spec, ref, run, beta0),
        diagnostics=diag_data,
    )


def _summary(spec, ref, run, beta0):
    # the six reference values the summary also quotes rounded
    headline = {
        key: getattr(ref, key) for key in ("alpha1", "alpha_n", "kappa", "t", "lambda_opt", "q_opt")
    }
    return {
        **dataclasses.asdict(spec),
        "beta0": beta0,
        **headline,
        "m_norm": ref.m_norm,
        "y1_norm": ref.y1_norm,
        "iterations": run.iterations,
        "final_k": run.history[-1].k,
        "termination": run.termination,
        "rounded": {key: round(value, 4) for key, value in headline.items()},
    }


def emit_csv(table, path):
    """Write the table with full-precision decimal values and LF endings."""
    if len(table["k"]) == 0:
        raise ValueError("refusing to emit an empty table")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for i, k in enumerate(table["k"]):
            values = (format(float(table[name][i]), ".17g") for name in CSV_COLUMNS[1:])
            fh.write(",".join([str(int(k)), *values]) + "\n")


def parse_csv(path):
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n")
        names = header.split(",")
        if names != CSV_COLUMNS:
            raise ValueError(f"unexpected header {header!r}")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    return {
        name: np.array([float(row[j]) for row in rows]) for j, name in enumerate(CSV_COLUMNS)
    }


PLOT_PANELS = [
    ("(a) multiplier gap", "lambda_gap", "lambda_gap_bound"),
    ("(b) solution angle", "sin_angle", "sin_angle_bound"),
    ("(c) objective gap", "q_gap", "q_gap_bound"),
    ("(d) residual norm", "resid", "resid_bound"),
]


def emit_plot_script(table, path, csv_name):
    """Self-contained gnuplot script: four log-scale panels, one per error."""
    if len(table["k"]) == 0:
        raise ValueError("refusing to emit a plot for an empty table")
    col_index = {name: i + 1 for i, name in enumerate(CSV_COLUMNS)}
    lines = [
        "set terminal pngcairo size 1200,820",
        f"set output '{csv_name.rsplit('.', 1)[0]}.png'",
        "set datafile separator ','",
        "set multiplot layout 2,2",
        "set logscale y",
        "set format y '%.0e'",
        "set xlabel 'k'",
        "clip(v) = (v < 1e-16 ? 1e-16 : v)",
    ]
    for title, err, bound in PLOT_PANELS:
        ie, ib = col_index[err], col_index[bound]
        lines.append(f"set title '{title}'")
        lines.append(
            f"plot '{csv_name}' skip 1 using 1:(clip(${ie})) with points pt 7 ps 0.5 title 'measured', "
            f"'{csv_name}' skip 1 using 1:(clip(${ib})) with lines lw 2 title 'bound'"
        )
    lines.append("unset multiplot")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_summary(summary, path):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
