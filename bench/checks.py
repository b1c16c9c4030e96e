"""Output checks and digests shared by the untraced and traced runs.

Every check returns a list of problems (empty when the output is right);
a workload counts the operations behind a failed check as failed.  The
checks read the package's outputs through public accessors only and do
their own arithmetic, so they do not trust the code they check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# s = sbar + sunder holds exactly per replicate; Welford means accumulate
# rounding of order n * eps, far below this relative tolerance
SPLIT_RTOL = 1e-9

# Statistical gate of an aggregate against an exact expectation.  Per index
# P(|z| > 5) = 5.7e-7 for a normal mean, so over the 20 gated indices an
# exact simulator fails with probability 1.1e-5; the tenfold margin to 1e-4
# covers the skew of the mutation counts.  Below GATE_MIN_REPLICATES the
# normal approximation is not trusted and the gate is skipped.
GATE_Z = 5.0
GATE_MIN_REPLICATES = 200

# highest percentile with at least ten samples beyond it, from this ladder
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)


def tail_percentile(samples) -> tuple[float, float]:
    """(percentile, value) of the highest ladder percentile with >= 10
    samples beyond it; the median when there are fewer than 20 samples."""
    xs = sorted(samples)
    n = len(xs)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10.0:
            k = min(n - 1, math.ceil(n * pct / 100.0) - 1)
            return pct, xs[k]
    return 50.0, xs[(n - 1) // 2]


def _split_problems(where: str, s, sbar, sunder) -> list[str]:
    s, sbar, sunder = (np.asarray(a, dtype=float) for a in (s, sbar, sunder))
    scale = np.maximum(np.abs(s), np.abs(sbar) + np.abs(sunder))
    gap = np.abs(s - (sbar + sunder))
    bad = np.flatnonzero(~(gap <= SPLIT_RTOL * scale + 1e-12))
    if bad.size:
        k = int(bad[0])
        return [f"{where}: s != sbar + sunder at slot {k}: {s[k]!r} vs {sbar[k]!r} + {sunder[k]!r}"]
    return []


def aggregate_problems(agg, replicates: int) -> list[str]:
    """Origin split and replicate count of one SfsAggregate."""
    problems = []
    if agg.replicates != replicates:
        problems.append(f"aggregate counts {agg.replicates} replicates, expected {replicates}")
    getters = [("sfs", agg.stats)]
    if agg.windows:
        getters.append(("windows", agg.window_stats))
    for where, get in getters:
        s, sbar, sunder = (get(k) for k in ("s", "sbar", "sunder"))
        counts = {s.count, sbar.count, sunder.count}
        if counts != {replicates}:
            problems.append(f"{where}: statistic counts {sorted(counts)}, expected {replicates}")
        problems += _split_problems(where, s.mean, sbar.mean, sunder.mean)
    return problems


def aggregate_digest(agg) -> str:
    """SHA-256 over every mean and variance an aggregate reports."""
    h = hashlib.sha256(f"replicates={agg.replicates}".encode())
    kinds = ("s", "sbar", "sunder")
    stats = [agg.stats(k) for k in kinds]
    if agg.windows:
        stats += [agg.window_stats(k) for k in kinds]
    for st in stats:
        h.update(np.ascontiguousarray(st.mean, dtype=float).tobytes())
        h.update(np.ascontiguousarray(st.variance, dtype=float).tobytes())
    return h.hexdigest()


def gate(stats, theory_values) -> tuple[list[str], str]:
    """z-gate of per-index means against exact expectations.

    Returns (problems, summary line)."""
    k = len(theory_values)
    n = stats.count
    if n < GATE_MIN_REPLICATES:
        return [], f"gate skipped: {n} replicates < {GATE_MIN_REPLICATES}"
    mean = np.asarray(stats.mean[:k], dtype=float)
    sem = np.sqrt(np.asarray(stats.variance[:k], dtype=float) / n)
    theory = np.asarray(theory_values, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(mean == theory, 0.0, (mean - theory) / sem)
    zabs = np.abs(z)
    worst = int(np.argmax(np.nan_to_num(zabs, nan=np.inf)))
    line = f"gate i=1..{k}: max |z| = {zabs[worst]:.3f} at i={worst + 1} (threshold {GATE_Z:g}, n={n})"
    if not np.all(zabs <= GATE_Z):
        return [f"statistical {line}"], line
    return [], line


def bad_values(values) -> list[float]:
    """Theory values that are not finite and positive."""
    return [v for v in values if not (math.isfinite(v) and v > 0.0)]


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

CLI_OUTPUTS = ("aggregate.csv", "config_resolved.json", "per_replicate.csv", "windows.csv")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli_problems(out_dir: Path, replicates: int, i_max: int, windows) -> tuple[list[str], int, str]:
    """Check one `rescue-sfs simulate` output directory.

    Returns (problems, bytes written, digest of the output files)."""
    problems: list[str] = []
    manifest_path = out_dir / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"cli: unreadable manifest: {exc}"], 0, ""
    digests = {}
    for entry in manifest.get("outputs", []):
        name = Path(entry["path"]).name
        path = out_dir / name
        if not path.is_file():
            problems.append(f"cli: manifest lists missing file {name}")
            continue
        actual = _sha256(path)
        if actual != entry["sha256"]:
            problems.append(f"cli: {name} digest {actual[:12]} != manifest {entry['sha256'][:12]}")
        digests[name] = actual
    if tuple(sorted(digests)) != CLI_OUTPUTS:
        problems.append(f"cli: manifest lists {sorted(digests)}, expected {list(CLI_OUTPUTS)}")

    def rows(name):
        with open(out_dir / name, encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(fh))

    try:
        agg = rows("aggregate.csv")
        if [int(r["i"]) for r in agg] != list(range(1, i_max + 1)):
            problems.append("cli: aggregate.csv does not cover i = 1..i_max")
        if any(int(r["replicates"]) != replicates for r in agg):
            problems.append("cli: aggregate.csv replicate count differs from the request")
        problems += _split_problems(
            "cli aggregate.csv",
            *([float(r[c]) for r in agg] for c in ("mean_S", "mean_Sbar", "mean_Sunder")),
        )
        win = rows("windows.csv")
        if [float(r["x"]) for r in win] != [float(x) for x in windows]:
            problems.append("cli: windows.csv does not list the requested windows")
        problems += _split_problems(
            "cli windows.csv",
            *(
                [float(r[c]) for r in win]
                for c in ("mean_S_window", "mean_Sbar_window", "mean_Sunder_window")
            ),
        )
        for r in rows("per_replicate.csv"):
            rep, s, sbar, sunder = (int(r[c]) for c in ("replicate", "s", "sbar", "sunder"))
            if not 0 <= rep < replicates or s != sbar + sunder:
                problems.append(f"cli: per_replicate.csv row {r} breaks the split or the range")
                break
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"cli: unreadable output: {exc!r}")

    written = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
    h = hashlib.sha256()
    for name in sorted(digests):
        h.update(f"{name}:{digests[name]}\n".encode())
    return problems, written, h.hexdigest()
