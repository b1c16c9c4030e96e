"""The traced run: per-layer numbers from spans recorded in the benchmark.

Spans are taken here, around the calls into the package's public functions,
never inside the package.  One replicate is driven at a time through

    seed_for_replicate -> Random -> simulator.run -> extract_sfs
      -> dense_sfs / window_counts -> VectorStat.update

in chunks of montecarlo.DEFAULT_CHUNK merged in order, exactly as
replicate_sfs does.  Traced blocks alternate with untraced replicate_sfs
calls of the same master seed and size; the two aggregates must be equal,
and the traced-minus-untraced wall time is the tracing overhead.
Spans live in memory as (id, parent, name, start_ns, end_ns) and are
written to .bench_out/spans/ when the run ends.

Every traced run has three sections so that every per-layer metric is
measured on every workload: simulation (simulator and montecarlo layers),
theory and cli.  The workload's own section gets the ``seconds`` budget;
the others run once at a fixed size (PROBE_REPLICATES reference replicates,
one pass of the curves, one CLI call of CLI_REPLICATES), so on a workload
that does not call a layer, that layer's numbers describe the probe.
"""

from __future__ import annotations

import csv
import math
import os
import shutil
import statistics
import time
from array import array
from pathlib import Path
from random import Random

import checks
import numpy as np
import workloads
from rescue_sfs import cli
from rescue_sfs import montecarlo as mc
from rescue_sfs import simulator as sim
from rescue_sfs.simulator import RESISTANT, STATUS_ALIVE, PopulationCapError

PROBE_REPLICATES = 128
# about 220 KB of CLI output, the size the CLI baseline was described at
CLI_REPLICATES = 300

ns = time.perf_counter_ns


class Spans:
    """In-memory span store; a span's id is its position.

    Typed arrays rather than lists of tuples: they allocate no objects the
    garbage collector tracks, so recording spans does not trigger
    collections inside the spans being timed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")

    def __len__(self) -> int:
        return len(self.start)

    def add(self, parent: int, name: str, start: int, end: int) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.parent.append(parent)
        self.name.append(nid)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "name", "start_ns", "end_ns"])
            for k in range(len(self.start)):
                w.writerow(
                    [k, self.parent[k], self.names[self.name[k]], self.start[k], self.end[k]]
                )


def useful_nodes(outcome) -> int:
    """Genealogy nodes with at least one living resistant descendant
    (themselves included): the nodes extract_sfs actually uses."""
    parent, status, typ = outcome.parent, outcome.status, outcome.cell_type
    desc = [0] * len(parent)
    useful = 0
    for idx in range(len(parent) - 1, -1, -1):
        c = desc[idx]
        if status[idx] == STATUS_ALIVE and typ[idx] == RESISTANT:
            c += 1
        if c:
            useful += 1
            p = parent[idx]
            if p >= 0:
                desc[p] += c
    return useful


# ---------------------------------------------------------------------------
# simulation section
# ---------------------------------------------------------------------------


def _new_aggregate(spec, p, seed):
    initial = spec.initial or (p.n_init, 0)
    return mc.SfsAggregate(p, spec.t_obs, initial, seed, spec.i_max, spec.windows)


class SimTrace:
    """Per-replicate span durations (ns) and counters of the traced blocks."""

    def __init__(self) -> None:
        self.t = {k: array("q") for k in ("seed", "run", "extract", "dense", "aggregate")}
        self.events = array("q")
        self.nodes = array("q")
        self.useful = array("q")
        self.merge_ns = 0
        self.cap_hits = 0


def traced_block(spec, ctx, seed, replicates, spans, acc: SimTrace):
    """replicate_sfs(replicates, seed) driven one replicate at a time with
    spans.  Returns (aggregate, traced wall ns), or (None, 0) on a cap hit."""
    p = ctx["params"]
    lambda1 = p.b1 - p.d1
    initial = spec.initial or (p.n_init, 0)
    windows = spec.windows
    chunk_size = mc.DEFAULT_CHUNK
    t = acc.t
    total = _new_aggregate(spec, p, seed)
    traced_ns = 0
    for start in range(0, replicates, chunk_size):
        chunk = _new_aggregate(spec, p, seed)
        for r in range(start, min(start + chunk_size, replicates)):
            t0 = ns()
            rng = Random(mc.seed_for_replicate(seed, r))
            t1 = ns()
            try:
                outcome = sim.run(p, spec.t_obs, initial=initial, rng=rng)
            except PopulationCapError:
                acc.cap_hits += 1
                return None, 0
            t2 = ns()
            record = sim.extract_sfs(outcome)
            t3 = ns()
            s, sbar, sunder = sim.dense_sfs(record, spec.i_max)
            wcs = [sim.window_counts(record, x, math.inf, lambda1) for x in windows]
            t4 = ns()
            chunk.s.update(np.asarray(s[1:], dtype=float))
            chunk.sbar.update(np.asarray(sbar[1:], dtype=float))
            chunk.sunder.update(np.asarray(sunder[1:], dtype=float))
            if windows:
                chunk.window_s.update(np.asarray([w.total for w in wcs], dtype=float))
                chunk.window_sbar.update(np.asarray([w.resistant_origin for w in wcs], dtype=float))
                chunk.window_sunder.update(
                    np.asarray([w.sensitive_origin for w in wcs], dtype=float)
                )
            chunk.scalars.update(
                np.asarray(
                    [len(outcome.ancestral), outcome.z1_final, record.total_mutations()],
                    dtype=float,
                )
            )
            chunk.replicates += 1
            t5 = ns()
            root = spans.add(-1, "replicate", t0, t5)
            spans.add(root, "montecarlo.seed", t0, t1)
            spans.add(root, "simulator.run", t1, t2)
            spans.add(root, "simulator.extract_sfs", t2, t3)
            spans.add(root, "simulator.dense_window", t3, t4)
            spans.add(root, "montecarlo.aggregate", t4, t5)
            t["seed"].append(t1 - t0)
            t["run"].append(t2 - t1)
            t["extract"].append(t3 - t2)
            t["dense"].append(t4 - t3)
            t["aggregate"].append(t5 - t4)
            traced_ns += t5 - t0
            # counters, outside every span
            acc.events.append(sum(outcome.event_counts))
            acc.nodes.append(outcome.n_nodes)
            acc.useful.append(useful_nodes(outcome))
        m0 = ns()
        total.merge(chunk)
        m1 = ns()
        spans.add(-1, "montecarlo.merge", m0, m1)
        acc.merge_ns += m1 - m0
        traced_ns += m1 - m0
    return total, traced_ns


def sim_section(workload, ctx, seed, seconds, spans, main: bool) -> tuple[dict, list, list, int]:
    """Alternate a traced block and the untraced replicate_sfs call with the
    same master seed, so drift in machine speed hits both alike."""
    spec = workloads.sim_spec(workload, ctx)
    p = ctx["params"]
    acc = SimTrace()
    problems: list[str] = []
    merged = None
    n = 0
    traced_total = untraced_total = 0
    mismatches = 0
    deadline = ns() + int(seconds * 1e9)
    b = 0
    while (b * spec.block < PROBE_REPLICATES) if not main else (b == 0 or ns() < deadline):
        block_seed = workloads.block_seed(seed, b)
        b += 1
        agg, traced_ns = traced_block(spec, ctx, block_seed, spec.block, spans, acc)
        if agg is None:
            problems.append(f"simulator cap hit in block {b - 1}")
            break
        u0 = ns()
        untraced = mc.replicate_sfs(
            p, spec.t_obs, spec.block, block_seed, initial=spec.initial,
            i_max=spec.i_max, windows=spec.windows, workers=1,
        )
        u1 = ns()
        spans.add(-1, "montecarlo.replicate_sfs(untraced)", u0, u1)
        digest, untraced_digest = checks.aggregate_digest(agg), checks.aggregate_digest(untraced)
        if digest != untraced_digest:
            mismatches += 1
            problems.append(
                f"block {b - 1}: traced aggregate {digest[:12]} != "
                f"untraced replicate_sfs {untraced_digest[:12]}"
            )
        problems += checks.aggregate_problems(agg, spec.block)
        traced_total += traced_ns
        untraced_total += u1 - u0
        n += spec.block
        if merged is None:
            merged = agg
        else:
            merged.merge(agg)
    if merged is None:
        return {}, problems, [], n

    gate_problems, gate_line = checks.gate(
        merged.stats(spec.gate_kind), workloads.gate_theory(spec, ctx)
    )
    problems += gate_problems
    t = acc.t
    sums = {k: sum(v) for k, v in t.items()}
    agg_ns = sums["aggregate"] + acc.merge_ns
    layers_ns = sum(sums.values()) + acc.merge_ns
    run_ms = [x / 1e6 for x in t["run"]]
    pct, tail = checks.tail_percentile(run_ms)
    tot_events, tot_nodes = sum(acc.events), sum(acc.nodes)
    m = {
        "simulator.run.ms_per_rep": (sums["run"] / n / 1e6, "ms"),
        "simulator.run.us_per_event": (sums["run"] / max(tot_events, 1) / 1e3, "us"),
        "simulator.run.ms_p50": (statistics.median(run_ms), "ms"),
        "simulator.run.ms_tail": (tail, "ms"),
        "simulator.run.tail_pct": (pct, "%"),
        "simulator.run.samples": (n, "count"),
        "simulator.events_per_rep": (tot_events / n, "count"),
        "simulator.nodes_per_rep": (tot_nodes / n, "count"),
        "simulator.useful_node_frac": (sum(acc.useful) / max(tot_nodes, 1), "ratio"),
        "simulator.extract_sfs.ms_per_rep": (sums["extract"] / n / 1e6, "ms"),
        "simulator.extract_sfs.us_per_node": (sums["extract"] / max(tot_nodes, 1) / 1e3, "us"),
        "simulator.dense_window.ms_per_rep": (sums["dense"] / n / 1e6, "ms"),
        "simulator.self_ms_per_rep": (
            (sums["run"] + sums["extract"] + sums["dense"]) / n / 1e6, "ms"
        ),
        "simulator.cap_hits": (acc.cap_hits, "count"),
        "montecarlo.seed.us_per_rep": (sums["seed"] / n / 1e3, "us"),
        "montecarlo.aggregate.us_per_rep": (agg_ns / n / 1e3, "us"),
        "montecarlo.self_us_per_rep": ((sums["seed"] + agg_ns) / n / 1e3, "us"),
        "montecarlo.overhead.us_per_rep": ((untraced_total - layers_ns) / n / 1e3, "us"),
        "montecarlo.replicate_sfs.us_per_rep": (untraced_total / n / 1e3, "us"),
        "trace.overhead_frac": ((traced_total - untraced_total) / untraced_total, "ratio"),
    }
    per_rep_us = m["montecarlo.replicate_sfs.us_per_rep"][0]
    sim_share = m["simulator.self_ms_per_rep"][0] * 1e3 / per_rep_us
    lines = [
        f"simulation section ({'main' if main else 'probe'}): {b} blocks of {spec.block} "
        f"replicates at t_obs={spec.t_obs:.6g}, initial={spec.initial or (p.n_init, 0)}",
        f"{spec.gate_kind} {gate_line}",
        f"traced == untraced aggregate on {b - mismatches} of {b} blocks",
        f"share of the untraced {per_rep_us:.4g} us per replicate: simulator {sim_share:.1%}, "
        f"montecarlo seed + aggregate + overhead {1 - sim_share:.1%}",
    ]
    return m, problems, lines, n


# ---------------------------------------------------------------------------
# theory section
# ---------------------------------------------------------------------------


def theory_section(ctx, seconds, spans, main: bool) -> tuple[dict, list, list, int, int]:
    curves = workloads.theory_curves(ctx)
    per_pass = sum(len(c[1]) for c in curves)
    per_value = {name: [] for name, *_ in curves}
    pass_ms = []
    problems: list[str] = []
    failed = attempted = 0
    digest = ""
    err_over_tol = 0.0
    deadline = ns() + int(seconds * 1e9)
    k = 0
    while k == 0 or (main and ns() < deadline):
        results = {}
        p0 = ns()
        root = spans.add(-1, "theory.pass", p0, p0)
        for name, indices, fn, _ in curves:
            c0 = ns()
            results[name] = workloads.evaluate_curve(fn, indices)
            c1 = ns()
            spans.add(root, f"theory.{name}", c0, c1)
            per_value[name].append((c1 - c0) / len(indices) / 1e6)
        p1 = ns()
        spans.end[root] = p1
        pass_ms.append((p1 - p0) / 1e6)
        bad_values, bad, pass_digest, err_over_tol = workloads.curve_summary(curves, results)
        if k == 0:
            digest = pass_digest
        elif pass_digest != digest:
            bad.append(f"theory pass {k}: values differ from pass 0")
            bad_values = per_pass
        attempted += per_pass
        failed += bad_values
        problems += bad
        k += 1
    m = {f"theory.{name}.ms_per_value": (statistics.median(v), "ms") for name, v in per_value.items()}
    m["theory.self_ms_per_pass"] = (statistics.median(pass_ms), "ms")
    m["theory.err_over_tol_max"] = (err_over_tol, "ratio")
    lines = [
        f"theory section ({'main' if main else 'probe'}): {k} passes of {per_pass} values; "
        f"err_over_tol_max = {err_over_tol:.6g} (recorded, not gated); digest {digest[:16]}"
    ]
    return m, problems, lines, attempted, failed


# ---------------------------------------------------------------------------
# cli section
# ---------------------------------------------------------------------------


def cli_args(ctx: dict, seed: int, out_dir: Path) -> list[str]:
    return [
        "simulate",
        "--config", str(ctx["root"] / "configs" / "reference.cfg"),
        "--replicates", str(CLI_REPLICATES),
        "--seed", str(seed),
        "--out-dir", str(out_dir),
        "--windows", ",".join(repr(x) for x in workloads.REF_WINDOWS),
        "--i-max", str(workloads.REF_I_MAX),
        "--workers", "1",
    ]


# the package calls cmd_simulate makes; time outside them is the CLI's own
CLI_INNER_CALLS = (
    (sim, "run"),
    (sim, "extract_sfs"),
    (sim, "dense_sfs"),
    (sim, "window_counts"),
    (mc, "seed_for_replicate"),
    (mc.VectorStat, "update"),
)


def cli_section(ctx, seed, spans) -> tuple[dict, list, list, int, int]:
    """One in-process `rescue-sfs simulate` call with a span around every
    simulator and montecarlo call it makes; cli.main minus those spans is
    the CLI's own time.  The wrappers are removed when the call returns."""
    out = ctx["root"] / ".bench_out" / f"traced-cli-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    inner_ns = 0
    originals = []

    def wrap(owner, name):
        fn = getattr(owner, name)
        span_name = f"cli->{owner.__name__.rsplit('.', 1)[-1]}.{name}"

        def timed(*args, **kwargs):
            nonlocal inner_ns
            t0 = ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = ns()
                inner_ns += t1 - t0
                spans.add(root, span_name, t0, t1)

        originals.append((owner, name, fn))
        setattr(owner, name, timed)

    root = spans.add(-1, "cli.main", 0, 0)
    try:
        for owner, name in CLI_INNER_CALLS:
            wrap(owner, name)
        c0 = ns()
        rc = cli.main(cli_args(ctx, seed, out))
        c1 = ns()
    finally:
        for owner, name, fn in reversed(originals):
            setattr(owner, name, fn)
    spans.start[root], spans.end[root] = c0, c1
    try:
        problems, written, digest = checks.cli_problems(
            out, CLI_REPLICATES, workloads.REF_I_MAX, workloads.REF_WINDOWS
        )
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if rc != 0:
        problems.append(f"cli.main returned {rc}")
    m = {
        "cli.self_ms_per_rep": ((c1 - c0 - inner_ns) / CLI_REPLICATES / 1e6, "ms"),
        "cli.bytes_written": (written, "bytes"),
    }
    lines = [
        f"cli section: one in-process call of {CLI_REPLICATES} replicates, "
        f"{(c1 - c0) / 1e9:.3f} s of which {inner_ns / 1e9:.3f} s in simulator/montecarlo calls; "
        f"output digest {digest}"
    ]
    failed = CLI_REPLICATES if problems else 0
    return m, problems, lines, CLI_REPLICATES, failed


def run(workload: str, ctx: dict, seed: int, seconds: float) -> dict:
    spans = Spans()
    sim_m, sim_problems, sim_lines, n_sim = sim_section(
        workload, ctx, seed, seconds, spans, main=workload in ("ref_sfs", "clone_sfs")
    )
    th_m, th_problems, th_lines, th_att, th_failed = theory_section(
        ctx, seconds, spans, main=workload == "theory_curves"
    )
    cli_m, cli_problems, cli_lines, cli_att, cli_failed = cli_section(ctx, seed, spans)
    spans_path = ctx["root"] / ".bench_out" / "spans" / f"{workload}-seed{seed}.csv"
    spans.write(spans_path)

    metrics = {}
    for name, (value, unit) in {**sim_m, **th_m, **cli_m}.items():
        metrics[name] = {"value": float(value), "unit": unit}
    problems = sim_problems + th_problems + cli_problems
    attempted = n_sim + th_att + cli_att
    failed = (n_sim if sim_problems else 0) + th_failed + cli_failed
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": not problems and failed == 0,
        "problems": problems[:20],
        "lines": sim_lines + th_lines + cli_lines + [f"spans {len(spans)} written"],
        "metrics": metrics,
    }
