"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --runs 10 --seconds 10                 # every workload
    python3 bench/spread.py --runs 5 --workloads ref_sfs
    python3 bench/spread.py --runs 10 --out bench/baseline.json

For each workload and end-to-end metric it prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median, and compares the spread with the metric's bound in
BENCHMARK.json: a spread above the bound fails the benchmark's acceptance,
and one above a third of it is flagged as not yet steady.  ``setup_s`` is
reported but exempt from the spread rule.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary as JSON here")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be >= 2")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    worst = 0.0
    for workload in args.workloads:
        samples: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        runs = []
        for k in range(args.runs):
            seed = args.first_seed + k
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=200,
            )
            wall = time.monotonic() - t0
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "wall_s": wall, **result})
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed={seed} wall={wall:.1f}s correct={result['correct']} "
                  + " ".join(f"{n}={m['value']:.6g}" for n, m in sorted(result["metrics"].items())),
                  flush=True)
        metrics = {}
        for name in sorted(samples):
            s = summarize(samples[name])
            s["unit"] = units[name]
            metrics[name] = s
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, s["spread"] / bound)
                flag = "FAIL" if s["spread"] > bound else ("unsteady" if s["spread"] > bound / 3 else "ok")
            print(f"  {workload} {name}: median {s['median']:.6g} {s['unit']} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}"
                  + (f" bound {bound} {flag}" if bound is not None else ""), flush=True)
        summary["workloads"][workload] = {
            "metrics": metrics,
            "all_correct": all(r["correct"] for r in runs),
            "runs": runs,
        }
    print(f"worst spread / bound (setup_s exempt): {worst:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
