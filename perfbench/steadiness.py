"""Steadiness report: the spread of every metric over repeated runs of one commit.

    python3 perfbench/steadiness.py --workloads deep stream lab --seeds 0-9 \
        --out perfbench/steadiness-baseline.json

Runs run.py once per (workload, seed), one run at a time, and reports per
metric the median and the interquartile range as a share of the median
(`statistics.quantiles(values, n=4)`) of the end-to-end metrics.  It checks
each spread against a third of the metric's bound in BENCHMARK.json, the
margin the bounds were chosen with, and exits 1 when one is above it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    """(median, interquartile range / median) of the values."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med) if med else float("nan")


def collect(workload, seeds, seconds):
    runs = []
    for seed in seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: {workload} seed {seed} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["elapsed_s"] = elapsed
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"{workload} seed={seed} correct={result['correct']} {values} elapsed={elapsed:.1f}s", flush=True)
    return runs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=["deep", "stream", "lab"])
    parser.add_argument("--seeds", default="0-9", help="a-b or a,b,c")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        contract = json.load(fh)
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    report = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    env_file = ROOT / ".bench_build" / "perfbench" / f"{args.workloads[0]}-seed{seeds[0]}-trace0.json"
    steady = True
    for workload in args.workloads:
        runs = collect(workload, seeds, seconds)
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, iqr = spread(values) if len(values) > 1 else (values[0], float("nan"))
            row = {"median": med, "iqr_share": iqr, "values": values}
            if name in bounds:
                row["bound"] = bounds[name]
                row["within_third"] = iqr < bounds[name] / 3.0
                steady = steady and row["within_third"]
            rows[name] = row
        report["workloads"][workload] = {
            "metrics": rows,
            "all_correct": all(r["correct"] for r in runs),
            "elapsed_s": [r["elapsed_s"] for r in runs],  # whole run, set-up and gate included
        }

    report["env"] = json.loads(env_file.read_text(encoding="utf-8"))["env"]
    for workload, data in report["workloads"].items():
        print(f"\n{workload} (all correct: {data['all_correct']})")
        for name, row in data["metrics"].items():
            limit = f" bound/3={row['bound'] / 3:.4f} ok={row['within_third']}" if "bound" in row else ""
            print(f"  {name:34s} median={row['median']:<12.6g} iqr/median={row['iqr_share']:.4f}{limit}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
