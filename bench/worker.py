"""One benchmark process: set up the package, say "ready", then measure.

    PYTHONPATH=src python3 bench/worker.py --workload ref_sfs --seed 1 --seconds 15 --trace 0
    PYTHONPATH=src python3 bench/worker.py --workload ref_sfs --setup-only

``bench/run.py`` starts this file in a fresh interpreter and times it up to
the "ready" line; everything the workload needs before its first timed
operation (the package import, load_config, derive) happens before that
line.  Only the standard library is imported ahead of the set-up, so the
set-up time is the package's own.  The last stdout line is a JSON record
that run.py turns into the benchmark result.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_CFG = ROOT / "configs" / "reference.cfg"


def setup(workload: str) -> dict:
    """Import what the workload calls and resolve the reference config."""
    if workload == "theory_curves":
        from rescue_sfs import theory  # noqa: F401
    else:
        from rescue_sfs import montecarlo, theory  # noqa: F401
    import rescue_sfs
    from rescue_sfs.params import derive, load_config, observation_time

    src = (ROOT / "src").resolve()
    if src not in Path(rescue_sfs.__file__).resolve().parents:
        raise SystemExit(f"rescue_sfs imported from {rescue_sfs.__file__}, not from {src}")
    cfg = load_config(str(REFERENCE_CFG))
    return {
        "cfg": cfg,
        "params": cfg.params,
        "dp": derive(cfg.params),
        "t_obs": observation_time(cfg.observation, cfg.params),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ctx = setup(args.workload)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    ctx["root"] = ROOT
    if args.trace:
        import traced

        result = traced.run(args.workload, ctx, args.seed, args.seconds)
    else:
        import workloads

        result = workloads.run(args.workload, ctx, args.seed, args.seconds)
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
