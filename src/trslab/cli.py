"""Command-line surface: solve TRS instances, run named experiments, verify.

Exit codes: 0 success, 1 verification failure (a failed `verify` suite or
`solve` KKT check), 2 parse error, invalid input, an unwritable output path or
a MemoryError, 3 near-hard case (a JSON diagnostic is still printed; for
`experiment` also a reference multiplier that leaves A + lam I indefinite), 4
iteration-budget exhaustion; 3 and 4 win over 1.  `main` maps exceptions to
these codes for every subcommand.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import experiments as ex
from .bounds import HardOrIndefiniteShift
from .gltr import K_MAX, explicit_residual, gltr_solve
from .lanczos import q_times
from .linalg import NoConvergence
from .mmio import ParseError
from .trs import NearHardCase, check_kkt
from .verify import verify

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_NEAR_HARD = 3
EXIT_NO_CONVERGENCE = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="trslab",
        description="Trust-region subproblem solver and convergence-bound harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one TRS instance from files")
    p_solve.add_argument("matrix", help="Matrix Market file (coordinate symmetric or dense array)")
    grad = p_solve.add_mutually_exclusive_group(required=True)
    grad.add_argument("--gradient", help="whitespace-separated gradient vector file")
    grad.add_argument(
        "--seed-gradient",
        type=int,
        metavar="SEED",
        help="use a seeded unit Gaussian gradient instead of a file",
    )
    p_solve.add_argument("--delta", type=float, default=1.0, help="trust-region radius")
    p_solve.add_argument("--tol", type=float, default=1e-13, help="residual stopping tolerance")
    p_solve.add_argument("--kmax", type=int, default=300, help="maximum Krylov iterations")
    p_solve.add_argument("--solution-out", help="optional path for the solution vector")
    p_solve.add_argument(
        "--verify-residuals",
        action="store_true",
        help="also check the residual formula against the explicit residual per iteration",
    )

    p_exp = sub.add_parser("experiment", help="run a named experiment family")
    which = p_exp.add_mutually_exclusive_group(required=True)
    which.add_argument("name", nargs="?", choices=["1a", "1b", "2", "3", "4"])
    which.add_argument("--spec", help="problem spec JSON file")
    p_exp.add_argument("--n", type=int, help="problem dimension (family default otherwise)")
    p_exp.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_exp.add_argument("--delta", type=float, default=1.0, help="trust-region radius")
    p_exp.add_argument("--kmax", type=int, default=300, help="maximum Krylov iterations")
    p_exp.add_argument("--resid-tol", type=float, default=1e-13, help="stopping tolerance")
    p_exp.add_argument("--out", default=".", help="output directory")
    p_exp.add_argument(
        "--orthogonal-similarity",
        action="store_true",
        help="apply a seeded orthogonal similarity to diagonal families (n <= 2000)",
    )

    p_ver = sub.add_parser("verify", help="run the property suites")
    p_ver.add_argument("scale", nargs="?", choices=["quick", "full"], default="quick")
    p_ver.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_solve(args):
    # a `file` instance: the order comes from the matrix, and without a
    # gradient file g is a unit Gaussian seeded by --seed-gradient
    params = {"path": args.matrix}
    if args.gradient is not None:
        params["gradient_path"] = args.gradient
    spec = ex.ProblemSpec("file", 0, args.delta, args.seed_gradient or 0, params)
    A, g = ex.generate(spec)
    result = gltr_solve(A, g, args.delta, resid_tol=args.tol, k_max=args.kmax)
    kkt = check_kkt(A, g, args.delta, result.lam, result.s)

    payload = {
        "lambda": result.lam,
        "s_norm": float(np.linalg.norm(result.s)),
        "q": result.q,
        "case": result.history[-1].case,
        "iterations": result.iterations,
        "termination": result.termination,
        "kkt": dataclasses.asdict(kkt),
    }
    if args.verify_residuals:
        Q = result.factorization.basis
        payload["residual_identity_gap"] = max(
            abs(
                rec.resid_formula
                - explicit_residual(A, g, rec.lam, q_times(Q[:, : rec.k + 1], rec.h))
            )
            for rec in result.history
        )
    if kkt.curvature_margin < -1e-8 * (1.0 + abs(kkt.curvature_margin)):
        # the Krylov subspace cannot see the extreme eigenspace; the shifted
        # operator is indefinite at the returned multiplier
        payload["warning"] = "near_hard_case"
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_NEAR_HARD
    if args.solution_out:
        with open(args.solution_out, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(format(v, ".17g") for v in result.s) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    if result.termination == K_MAX:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK if kkt.passed else EXIT_FAIL


def _cmd_experiment(args):
    if args.spec is not None:
        with open(args.spec, "r", encoding="ascii") as fh:
            spec = ex.ProblemSpec.from_json(fh.read())
    else:
        params = {"orthogonal_similarity": True} if args.orthogonal_similarity else {}
        base = ex.default_spec(args.name, n=args.n, seed=args.seed, delta=args.delta)
        spec = dataclasses.replace(base, params=params)
    result = ex.run_experiment(spec, k_max=args.kmax, resid_tol=args.resid_tol)

    os.makedirs(args.out, exist_ok=True)
    csv_name = f"{spec.family}.csv"
    ex.emit_csv(result.table, os.path.join(args.out, csv_name))
    ex.emit_plot_script(result.table, os.path.join(args.out, f"{spec.family}.plt"), csv_name)
    ex.emit_summary(result.summary, os.path.join(args.out, f"{spec.family}.summary.json"))
    print(json.dumps(result.summary["rounded"], indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_verify(args):
    passed = verify(scale=args.scale, seed=args.seed, stream=sys.stdout)
    return EXIT_OK if passed else EXIT_FAIL


def main(argv=None):
    args = _build_parser().parse_args(argv)
    command = {"solve": _cmd_solve, "experiment": _cmd_experiment, "verify": _cmd_verify}
    try:
        return command[args.command](args)
    except (ValueError, ParseError, OSError, MemoryError) as exc:
        # ValueError covers InvalidSpec, json.JSONDecodeError and a bad budget;
        # OSError an unreadable input and an unwritable output path
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_PARSE
    except (NearHardCase, HardOrIndefiniteShift) as exc:
        # HardOrIndefiniteShift: the reference multiplier of an experiment
        # leaves A + lam I indefinite, a (near) hard case it did not resolve
        print(json.dumps({"error": "near_hard_case", "detail": str(exc)}, indent=2))
        return EXIT_NEAR_HARD
    except NoConvergence as exc:
        print(json.dumps({"error": "no_convergence", "detail": str(exc)}, indent=2))
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
