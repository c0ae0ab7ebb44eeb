"""trslab benchmark: one seeded workload per process, end to end or traced.

    python3 perfbench/run.py --workload deep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

A run repeats passes over the workload's fixed operation list until the
next pass would end the run after --seconds.  Before each pass it sets the
workload up afresh (importing numpy and trslab in a new interpreter, and
generating the instances) and times that set-up, so the set-up samples are
spread over the run like the passes; setup_s is their median.  Every output
is checked against an independent reference after its pass, outside the
timed region.

The speed of a shared host drifts by up to 1.6x over seconds to minutes, so
raw pass times of one commit spread more across runs than a useful bound.  A
fixed calibration sample (see calibration_seconds) is therefore timed before
the first operation of each pass and after every operation, and norm_wall_s
divides each operation's time by the calibration samples around it (see
reference_seconds).  The raw median pass time is still printed as wall_s.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced passes and reports the per-layer metrics,
including the tracing overhead.  The last line of standard output is one
JSON object with the metrics of BENCHMARK.json; the lines before it also
give failed_share, the raw wall_s and solves_per_s (experiments_per_s on
lab).  A fuller report (environment, artifact digests, spans) is written
under .bench_build/perfbench/ in the checkout.  `--workload all`
runs every workload in its own process and prints one table.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("deep", "stream", "lab")
# one BLAS thread: steadier timings on a shared machine, and reductions in a
# fixed order, so iteration counts repeat exactly
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5  # at least this many set-up samples per run
CAL_LOOP = 300_000  # rounds of the calibration's scalar loop
CAL_ARRAY_SHAPE = (100_000, 8)  # 6.4 MB: larger than L2, like the Lanczos basis
CAL_MATVECS = 40
# Reference duration of one calibration sample: about its median on the
# 2-core Intel Xeon sandbox the benchmark was tuned on (0.05-0.07 s there,
# depending on the hour), so norm_wall_s reads as seconds on that host.
CAL_REF_S = 0.06
IMPORT_PROBE = "import time; t = time.perf_counter(); import numpy, trslab; print(time.perf_counter() - t)"
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_contract():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_program():
    """Import numpy, trslab (from src/) and the benchmark modules."""
    src = ROOT / "src"
    if not (src / "trslab" / "__init__.py").is_file():
        raise SystemExit(f"error: trslab sources not found under {src}")
    for var in BLAS_VARIABLES:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    for module in ("numpy", "trslab", "workloads", "layers", "tracer"):
        importlib.import_module(module)


def import_seconds():
    """Time importing numpy and trslab in a fresh interpreter: an import can
    be timed only once per process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(probe.stdout)


def git_sha():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"  # not a git checkout of this tree
    return lines[1]


def environment(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARIABLES},
        "seed": seed,
    }


@functools.cache
def calibration_array():
    import numpy as np

    return np.random.default_rng(0).standard_normal(CAL_ARRAY_SHAPE)


def calibration_seconds():
    """Time a fixed sample of the two kinds of work the workloads spend their
    time on: a scalar pure-Python loop, like the tridiagonal solver's Sturm
    bisection, and matrix-vector products streaming an array that does not
    fit in L2, like Lanczos reorthogonalization.  Neither calls trslab, so a
    change to the program cannot change the sample."""
    array = calibration_array()
    vector = array[0]
    t0 = time.perf_counter()
    total = 0.0
    for i in range(CAL_LOOP):
        total += (i * 0.5) % 3.0
    for _ in range(CAL_MATVECS):
        array @ vector
    return time.perf_counter() - t0


def run_pass(workload, tracer=None):
    """One pass over the operations.

    Returns (seconds, [(op, result, seconds)], calibration samples): one
    sample before the first operation and one after each operation, all
    outside the operations' times.
    """
    outcomes = []
    calibration = [calibration_seconds()]
    for op in workload.operations():
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = op.fn()
            else:
                result = tracer.operation(op.span, op.fn)
        except Exception:  # counted as a failed operation; the run goes on
            traceback.print_exc(file=sys.stderr)
            result = None
        outcomes.append((op, result, time.perf_counter() - t0))
        calibration.append(calibration_seconds())
    return sum(s for _, _, s in outcomes), outcomes, calibration


def reference_seconds(passes):
    """Seconds of one pass at the reference host speed.

    passes holds, per pass, the (seconds, calibration before, calibration
    after) of each operation.  Dividing an operation's time by the mean of
    the calibration samples around it cancels host speed changes that last
    longer than the operation; the median over passes of that ratio, summed
    over the operations and scaled by CAL_REF_S, is the pass time on a host
    where one calibration sample takes CAL_REF_S.
    """
    ratios = zip(*([s / (0.5 * (before + after)) for s, before, after in p] for p in passes))
    return CAL_REF_S * sum(statistics.median(r) for r in ratios)


def gate(workload, outcomes):
    """Correctness problems of one pass, one list per operation."""
    found = []
    for index, (op, result, _) in enumerate(outcomes):
        if result is None:
            found.append([f"{op.label}: raised"])
            continue
        try:
            found.append(workload.check(index, result))
        except Exception as exc:  # a check that cannot run is a failed check
            traceback.print_exc(file=sys.stderr)
            found.append([f"{op.label}: check raised {exc!r}"])
    return found


def set_up(workload, tracer=None):
    """Set the workload up once; returns the import plus generation seconds."""
    import layers

    import_s = import_seconds()
    try:
        if tracer is not None:
            layers.install(tracer)
        t0 = time.perf_counter()
        workload.setup()
        return import_s + time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.restore()


def measure(args):
    import layers
    import workloads
    from tracer import Tracer

    workload = workloads.make_workload(args.workload, args.seed)
    setup_tracer = Tracer() if args.trace else None
    setup_times = []

    tracer = Tracer() if args.trace else None
    pass_times = {False: [], True: []}
    calibrated = []  # per untraced pass: (seconds, calibration before, after) per operation
    op_times = []  # (seconds, counted) of untraced operations
    steps = []
    attempted = failed = 0
    problems = []
    orth_loss = 0.0
    digests = None
    started = time.perf_counter()
    iteration_s = []  # whole loop iterations: set-up, pass, calibration and gate
    while True:
        iteration_start = time.perf_counter()
        traced = bool(args.trace) and len(pass_times[False]) > len(pass_times[True])
        setup_times.append(set_up(workload, setup_tracer))
        if traced:
            layers.install(tracer)
            for operator in workload.operators():
                tracer.wrap_apply(operator)
        try:
            seconds, outcomes, calibration = run_pass(workload, tracer if traced else None)
        finally:
            if traced:
                tracer.restore()
        pass_times[traced].append(seconds)
        if not traced:
            calibrated.append(
                [(s, calibration[j], calibration[j + 1]) for j, (_, _, s) in enumerate(outcomes)]
            )

        found = gate(workload, outcomes)  # outside the timed region
        attempted += len(outcomes)
        failed += sum(1 for p in found if p)
        for p in found:
            problems.extend(p)
        results = [result for _, result, _ in outcomes if result is not None]
        if not traced:
            op_times.extend((s, op.counted) for op, result, s in outcomes if result is not None)
            steps.append(sum(workload.steps(r) for r in results))
        else:
            bases = [workload.basis(r) for r in results]
            orth_loss = max([orth_loss] + [workloads.orthogonality_loss(b) for b in bases if b is not None])
        if digests is None:
            digests = workloads.artifact_digests_of(results, str(OUT_DIR))
        del outcomes, results

        now = time.perf_counter()
        iteration_s.append(now - iteration_start)
        enough = len(pass_times[True]) >= 1 if args.trace else True
        if enough and now - started + statistics.median(iteration_s) > args.seconds:
            break

    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(set_up(workload, setup_tracer))

    counted = [s for s, c in op_times if c]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(pass_times[False]) if pass_times[False] else float("nan"),
        "norm_wall_s": reference_seconds(calibrated) if calibrated else float("nan"),
        "ops_per_s": len(counted) / sum(counted) if counted else float("nan"),
        "krylov_steps": float(statistics.median(steps)) if steps else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    layer = None
    if args.trace:
        generate_s = 0.0
        if setup_tracer.spans:
            generate_s = sum(
                s.end - s.start for s in setup_tracer.spans if s.name == "experiments.generate"
            ) / len(setup_times)
        layer = layers.layer_metrics(
            tracer.spans,
            len(pass_times[True]),
            orth_loss,
            generate_s,
            layers.overhead_share(pass_times[False], pass_times[True]),
        )
    return {
        "metrics": metrics,
        "layer": layer,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "pass_times": {"untraced": pass_times[False], "traced": pass_times[True]},
        "calibrated": calibrated,
        "digests": digests,
        "spans": tracer.spans if tracer is not None else None,
    }


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args):
    contract = load_contract()
    import_program()
    env = environment(args.seed)
    report = measure(args)
    m = report["metrics"]
    failed_share = report["failed"] / report["attempted"]

    wanted = contract["per_layer"] if args.trace else contract["end_to_end"]
    source = report["layer"] if args.trace else m
    metrics = {spec["name"]: {"value": source[spec["name"]], "unit": spec["unit"]} for spec in wanted}

    # reported, but not in BENCHMARK.json: failed_share is 0 on a correct
    # run; the raw wall_s and the throughput, which repeats its timings,
    # spread too much across runs on a shared host to carry a bound
    also = {"failed_share": {"value": failed_share, "unit": "share"}}
    if not args.trace:
        also["wall_s"] = {"value": m["wall_s"], "unit": "s"}
        throughput = "experiments_per_s" if args.workload == "lab" else "solves_per_s"
        also[throughput] = {"value": m["ops_per_s"], "unit": "1/s"}
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, item in {**metrics, **also}.items():
        print(f"  {name:34s} {fmt(item['value']):>14s} {item['unit']}")
    print(f"  ({report['failed']} of {report['attempted']} operations failed)")
    for problem in report["problems"]:
        print(f"  FAILED {problem}")
    if report["digests"]:
        print("artifacts " + json.dumps(report["digests"], sort_keys=True))

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = {
        "env": env,
        "workload": args.workload,
        "seconds": args.seconds,
        "metrics": metrics,
        "also": also,
        "pass_times_s": report["pass_times"],
        "calibrated_op_times_s": report["calibrated"],
        "problems": report["problems"],
        "artifact_sha256": report["digests"],
    }
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=2)
    if report["spans"] is not None:
        with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in report["spans"]:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")

    values_ok = all(isinstance(i["value"], float) and i["value"] == i["value"] for i in metrics.values())
    result = {
        "correct": report["failed"] == 0 and values_ok,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, then one table of every metric."""
    rows = {}
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        stem = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}"
        full = json.loads(Path(f"{stem}.json").read_text(encoding="utf-8"))
        rows[name] = {**full["metrics"], **full["also"]}
    names = list(dict.fromkeys(metric for row in rows.values() for metric in row))
    print()
    print(f"{'metric':34s} {'unit':>8s} " + " ".join(f"{w:>12s}" for w in rows))
    for metric in names:
        unit = next(row[metric]["unit"] for row in rows.values() if metric in row)
        cells = " ".join(
            f"{fmt(row[metric]['value']) if metric in row else '-':>12s}" for row in rows.values()
        )
        print(f"{metric:34s} {unit:>8s} {cells}")
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
