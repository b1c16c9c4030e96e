"""Benchmark entry point for rescue-sfs.

    python3 bench/run.py --workload ref_sfs --seed 1 --seconds 15 --trace 0

Runs one workload (ref_sfs, clone_sfs, theory_curves) from the
root of a source checkout and prints, as its last stdout line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones (ops_per_s, setup_s,
peak_rss_mb); with ``--trace 1`` they are the per-layer numbers of a separate
traced run.  Human-readable lines (every metric with its unit, failed_frac,
output digest, machine context) come before the JSON line, and the full
record is written under ``.bench_out/results/``.

This file uses the standard library only.  The package is imported from
``src/`` of the checkout, never from site-packages; without ``src/`` the
benchmark exits with code 2 and prints no result.  Set-up time is measured
here, from spawning a fresh interpreter to its "ready" line, so it covers
interpreter start, the package import and load_config/derive.  It is the
raw wall time: import speed does not follow the calibration kernel that
scales ops_per_s (see calibrate.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

WORKLOADS = ("ref_sfs", "clone_sfs", "theory_curves")

# set-up samples per run: fresh interpreters that set up and exit
SETUP_PROBES = 5

# every child must end before the 180 s limit of one run
RUN_DEADLINE_S = 170.0

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _read_first_line(path: str, prefix: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "missing"


def machine_context() -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "cpu_model": _read_first_line("/proc/cpuinfo", "model name"),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "loadavg_start": _loadavg(),
    }


def check_checkout() -> None:
    """Refuse to run anywhere but the root of a full source checkout."""
    needed = (ROOT / "src" / "rescue_sfs" / "__init__.py", ROOT / "configs" / "reference.cfg")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError(f"not a rescue-sfs checkout: missing {', '.join(missing)}")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONSTARTUP", None)
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run deadline exceeded")
    return left


def _spawn_until_ready(cmd: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a fresh interpreter and time it until it prints 'ready'."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if line.strip() != "ready":
        _stop(proc)
        raise BenchError(f"worker did not reach ready (got {line!r}, exit {proc.returncode})")
    _remaining(deadline)
    return proc, elapsed


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def setup_probe(workload: str, deadline: float) -> float:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload, "--setup-only"]
    proc, elapsed = _spawn_until_ready(cmd, deadline)
    try:
        proc.communicate(timeout=_remaining(deadline))
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe exited with {proc.returncode}")
    return elapsed


def run_worker(args: argparse.Namespace, deadline: float) -> tuple[dict, float]:
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    proc, setup_s = _spawn_until_ready(cmd, deadline)
    try:
        out, _ = proc.communicate(timeout=_remaining(deadline))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker timed out") from exc
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1]), setup_s


def _fmt_metric(name: str, m: dict) -> str:
    extra = m.get("note")
    tail = f"  ({extra})" if extra else ""
    return f"metric {name} = {m['value']:.6g} {m['unit']}{tail}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")

    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        check_checkout()
        context = machine_context()
        setup = []
        if not args.trace:
            setup = [setup_probe(args.workload, deadline) for _ in range(SETUP_PROBES)]
        worker, worker_setup = run_worker(args, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    context["loadavg_end"] = _loadavg()

    metrics = dict(worker["metrics"])
    if not args.trace:
        metrics["setup_s"] = {
            "value": statistics.median(setup),
            "unit": "s",
            "note": f"median of {len(setup)} fresh interpreters",
        }
    attempted = int(worker["attempted"])
    failed = int(worker["failed"])
    correct = bool(worker["correct"]) and failed == 0 and attempted >= 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": context,
        "setup_s": setup,
        "worker_setup_s": worker_setup,
        "worker": worker,
        "metrics": metrics,
    }
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("context " + json.dumps(context, sort_keys=True))
    for line in worker.get("lines", []):
        print(line)
    for problem in worker.get("problems", []):
        print(f"problem: {problem}")
    for name in sorted(metrics):
        print(_fmt_metric(name, metrics[name]))
    print(f"failed_frac = {failed / max(attempted, 1):.6g} ({failed} of {attempted} operations)")
    print(f"record {record_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
