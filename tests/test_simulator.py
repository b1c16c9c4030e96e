import dataclasses
import functools
import hashlib
import json
import math
import tracemalloc
from bisect import bisect_right
from collections import Counter
from random import Random

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from helpers import (
    alive_counts,
    build_single_root_example,
    carried_copy_total,
    event_class_probabilities,
    full_run,
    gillespie,
    gof_geometric,
    gof_pooled_counts,
    gof_two_samples,
    naive_sfs,
)
from rescue_sfs import simulator as sim
from rescue_sfs import theory as th
from rescue_sfs.montecarlo import _replicate_keys
from rescue_sfs.params import MUTATION_LAWS, ModelParams, ParameterError, derive

REF = ModelParams(b0=1.2, d0=2.0, b1=1.2, d1=0.5, omega=2.0, gamma=1.0, alpha=0.9, n_init=500)
SMALL = ModelParams(b0=1.0, d0=2.0, b1=1.2, d1=0.5, omega=2.0, gamma=0.3, alpha=1.0, n_init=8)
N40 = dataclasses.replace(REF, n_init=40)
T40 = 1.25 * math.log(40)
BERNOULLI40 = dataclasses.replace(N40, mutation_law="bernoulli", omega=1.0)
# gamma_n = 20 / 40 = 0.5: about half of every kept sensitive cell's
# daughters move to the resistant queue
FLIPS40 = dataclasses.replace(N40, gamma=20.0, alpha=1.0)


def test_initial_validation():
    # NaN and inf used to pass the t_obs < 0 check: the replicate sampler
    # returned an empty record at NaN, and run went on to the cell cap at inf
    for t_obs in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="t_obs"):
            sim.run(REF, t_obs, rng=Random(0))
        with pytest.raises(ValueError, match="t_obs"):
            sim.sample_chunk(REF, t_obs, (0, 1), [1], i_max=5)
    with pytest.raises(ValueError):
        sim.run(REF, 1.0, initial=(0, 0), rng=Random(0))
    # a float i_max or initial population once failed deep in numpy: "expected
    # a sequence of integers" and "slice indices must be integers"
    with pytest.raises(ValueError, match="requires an integer i_max, got 5.0"):
        sim.sample_chunk(REF, 1.0, (0, 1), [1], i_max=5.0)
    with pytest.raises(ValueError, match="requires an integer initial population, got 2.0"):
        sim.sample_chunk(REF, 1.0, (2.0, 1), [1], i_max=5)


def test_debug_checks_pass_on_small_runs():
    for seed in range(5):
        out = gillespie(SMALL, 2.0, rng=Random(seed), debug_checks=True)
        z0, z1 = alive_counts(out)
        assert (z0, z1) == (out.z0_final, out.z1_final)


def test_roots_have_no_mutations_and_resistance_is_permanent():
    out = sim.run(SMALL, 3.0, rng=Random(42))
    for idx in range(out.n_roots):
        assert out.edge_mutations[idx] == 0
    for idx in range(out.n_nodes):
        p = out.parent[idx]
        if p >= 0 and out.cell_type[p] == sim.RESISTANT:
            assert out.cell_type[idx] == sim.RESISTANT


def test_population_cap():
    grow = ModelParams(b0=1.2, d0=2.0, b1=2.0, d1=0.0, omega=0.0, gamma=1.0, alpha=0.5, n_init=10)
    with pytest.raises(sim.PopulationCapError, match="max_cells"):
        sim.run(grow, 50.0, initial=(0, 5), rng=Random(1), max_cells=300)
    with pytest.raises(sim.PopulationCapError, match="max_cells"):
        gillespie(grow, 50.0, initial=(0, 5), rng=Random(1), max_cells=300)


# (params, t_obs, initial, max_cells) where most seeds exceed the cap and
# some do not: d1 = 0 from (2, 1), as the resistant cells grow, and gamma_n
# = 0.5 from (5, 0), mostly at the second division of the reduced sensitive
# tree, before any resistant cell divides
CAP_CASES = [
    (dataclasses.replace(REF, d1=0.0), 6.0, (2, 1), 400),
    (FLIPS40, T40, (5, 0), 8),
]


def test_sample_chunk_hits_the_cap_where_run_does():
    for params, t_obs, initial, max_cells in CAP_CASES:
        keys, hits = [], []
        for seed in range(40):
            keys.append(Random(seed).getrandbits(64))
            errors = []
            try:
                sim.run(params, t_obs, initial=initial, rng=Random(seed), max_cells=max_cells)
                errors.append(None)
            except sim.PopulationCapError as exc:
                errors.append(str(exc))
            try:
                sim.sample_chunk(params, t_obs, initial, keys[-1:], i_max=5, max_cells=max_cells)
                errors.append(None)
            except sim.PopulationCapError as exc:
                assert exc.replicate == 0
                errors.append(str(exc))
            assert errors[0] == errors[1]
            hits.append(errors[0] is not None)
        assert 0 < sum(hits) < 40
        # a chunk names the lowest replicate whose run exceeds the cap;
        # without those replicates it runs through
        with pytest.raises(sim.PopulationCapError, match=f"max_cells={max_cells}") as info:
            sim.sample_chunk(params, t_obs, initial, keys, i_max=5, max_cells=max_cells)
        assert info.value.replicate == hits.index(True)
        rest = [key for key, hit in zip(keys, hits) if not hit]
        rows, _ = sim.sample_chunk(params, t_obs, initial, rest, i_max=5, max_cells=max_cells)
        assert rows.shape == (len(rest), 18)


def test_sample_chunk_hits_the_cap_in_the_reduced_sensitive_phase():
    # the sensitive phase runs to its end before any resistant cell divides,
    # so a replicate whose kept sensitive divisions alone take its roots
    # past max_cells hits the cap there, in run and in sample_chunk alike
    params, t_obs, initial, max_cells = CAP_CASES[1]
    inside = 0
    for seed in range(40):
        out = sim.run(params, t_obs, initial, rng=Random(seed))
        divisions = sum(
            typ == sim.SENSITIVE and status == sim.STATUS_DIVIDED
            for typ, status in zip(out.cell_type, out.status)
        )
        if sum(initial) + 2 * divisions > max_cells:
            inside += 1
            key = Random(seed).getrandbits(64)
            with pytest.raises(sim.PopulationCapError) as info:
                sim.sample_chunk(params, t_obs, initial, [key], i_max=5, max_cells=max_cells)
            assert info.value.replicate == 0
    assert inside > 0


def test_sample_chunk_names_a_later_replicate_capped_in_the_sensitive_phase(monkeypatch):
    # one root under max_cells=6, and resistant cells that rarely divide
    # before t_obs: a replicate without divisions counts one node, so after
    # its first block the chunk runs in blocks of three, and the first
    # replicate that run caps, well inside the chunk, meets the cap in the
    # kept sensitive divisions.  Its block stops at its division count and
    # is run again in halves, and the call names that replicate with the
    # message run raises on its key
    params = dataclasses.replace(FLIPS40, b1=0.002, d1=0.001)
    t_obs, initial, max_cells = T40, (1, 0), 6
    seeds = range(60)
    errors = []
    for seed in seeds:
        try:
            sim.run(params, t_obs, initial, rng=Random(seed), max_cells=max_cells)
        except sim.PopulationCapError as exc:
            errors.append((seed, str(exc)))
    (replicate, message), *_ = errors
    assert replicate > 3
    out = sim.run(params, t_obs, initial, rng=Random(replicate))
    divided = Counter(
        typ for typ, status in zip(out.cell_type, out.status) if status == sim.STATUS_DIVIDED
    )
    assert divided[sim.RESISTANT] == 0 and sum(initial) + 2 * divided[sim.SENSITIVE] > max_cells
    blocks = []

    def recording(params, t_obs, initial, keys, *args):
        result = sample_block(params, t_obs, initial, keys, *args)
        blocks.append((len(keys), result is None))
        return result

    sample_block = sim._sample_block
    monkeypatch.setattr(sim, "_sample_block", recording)
    keys = [Random(seed).getrandbits(64) for seed in seeds]
    with pytest.raises(sim.PopulationCapError) as info:
        sim.sample_chunk(params, t_obs, initial, keys, i_max=5, max_cells=max_cells)
    assert (info.value.replicate, str(info.value)) == (replicate, message)
    assert (3, False) in blocks and (3, True) in blocks and blocks[-1] == (1, True)


def test_sample_chunk_takes_a_cap_past_2_to_32():
    # a cap of 2^32 nodes or more once made the carrier counts uint64, whose
    # sums with intp are floats, and the dense tally raised TypeError
    keys = [Random(seed).getrandbits(64) for seed in range(3)]
    rows, _ = sim.sample_chunk(N40, 4.0, None, keys, i_max=5, windows=(0.5,))
    for cap in (2**32, 10**10):
        for key, row in zip(keys, rows):
            single, _ = sim.sample_chunk(N40, 4.0, None, [key], i_max=5, windows=(0.5,), max_cells=cap)
            np.testing.assert_array_equal(single[0], row)


def test_sample_chunk_blocks_stay_within_the_cap(monkeypatch):
    # 48 clones from 20 resistant roots, under a cap of three times the
    # largest genealogy: the chunk runs in blocks whose replicates hold at
    # most max_cells nodes together, not all 48 at once, and gives the rows
    # of single-key calls
    initial = (0, 20)
    nodes = [sim.run(REF, 5.0, initial, rng=Random(seed)).n_nodes for seed in range(48)]
    cap = 3 * max(nodes)
    assert sum(nodes) > 8 * cap
    keys = [Random(seed).getrandbits(64) for seed in range(48)]
    blocks = []

    def recording(params, t_obs, initial, keys, *args):
        result = sample_block(params, t_obs, initial, keys, *args)
        blocks.append((keys, None if result is None else result[2]))
        return result

    sample_block = sim._sample_block
    monkeypatch.setattr(sim, "_sample_block", recording)
    rows, _ = sim.sample_chunk(REF, 5.0, initial, keys, i_max=10, max_cells=cap)
    done = [(block, count) for block, count in blocks if count is not None]
    assert [key for block, _ in done for key in block] == keys
    assert all(count <= cap for _, count in done)
    # a block counts run's nodes; one that outgrew the cap was run again
    assert all(count == sum(nodes[keys.index(key)] for key in block) for block, count in done)
    assert len(done) < len(blocks) and max(len(block) for block, _ in done) > 1
    monkeypatch.undo()
    singles = [sim.sample_chunk(REF, 5.0, initial, [key], i_max=10)[0] for key in keys]
    np.testing.assert_array_equal(rows, np.concatenate(singles))


def test_event_class_probabilities_normalize():
    probs = event_class_probabilities(REF, 100, 7)
    assert sum(probs) == pytest.approx(1.0, rel=1e-12)
    assert all(p >= 0 for p in probs)
    with pytest.raises(ValueError):
        event_class_probabilities(REF, 0, 0)


def test_subcritical_decay_gamma_zero():
    params = ModelParams(
        b0=1.2, d0=2.0, b1=1.2, d1=0.5, omega=0.0, gamma=0.0, alpha=0.9, n_init=100
    )
    rng = Random(101)
    finals = [full_run(params, 1.0, rng=rng).z0_final for _ in range(4000)]
    mean = np.mean(finals)
    sem = np.std(finals, ddof=1) / math.sqrt(len(finals))
    expected = 100 * math.exp(-0.8)
    assert abs(mean - expected) <= 3 * sem
    # no resistance, no mutations: empty records
    out = full_run(params, 1.0, rng=rng)
    assert out.ancestral == []
    rec = sim.extract_sfs(out)
    assert rec.s == {} and rec.total_mutations() == 0


def test_single_founder_growth():
    rng = Random(102)
    finals = [sim.run(REF, 2.0, initial=(0, 1), rng=rng).z1_final for _ in range(4000)]
    mean = np.mean(finals)
    sem = np.std(finals, ddof=1) / math.sqrt(len(finals))
    assert abs(mean - math.exp(1.4)) <= 3 * sem


def test_expected_resistant_population_matches():
    # the keys run would take from one generator, so rows[:, -2] are its
    # z1_final values bit for bit
    rng = Random(103)
    keys = [rng.getrandbits(64) for _ in range(1500)]
    finals = sim.sample_chunk(REF, 2.0, None, keys, i_max=1)[0][:, -2]
    mean = np.mean(finals)
    sem = np.std(finals, ddof=1) / math.sqrt(len(finals))
    assert abs(mean - th.expected_resistant_population(2.0, REF)) <= 3.5 * sem


def test_rate_table_frequencies():
    rng = Random(104)
    obs = np.zeros(5)
    exp = np.zeros(5)
    t_n = 1.25 * math.log(500)
    while obs.sum() < 150_000:
        out = gillespie(REF, t_n, rng=rng, track_rates=True)
        obs += out.event_counts
        exp += out.expected_class_weights
    assert gof_pooled_counts(obs, exp).pvalue > 0.001


# ---------------------------------------------------------------------------
# SFS extraction
# ---------------------------------------------------------------------------


def test_worked_single_root_example():
    out = build_single_root_example(SMALL)
    rec = sim.extract_sfs(out)
    assert rec.s == {1: 3, 3: 1, 7: 2}
    assert rec.s_resistant_origin == {1: 3, 3: 1}
    assert rec.s_sensitive_origin == {7: 2}
    # the naive per-cell oracle agrees on the fixture
    s, sres, ssen = naive_sfs(out)
    assert s == rec.s and sres == rec.s_resistant_origin and ssen == rec.s_sensitive_origin


def test_dense_sfs_on_worked_example():
    rec = sim.extract_sfs(build_single_root_example(SMALL))
    s, sres, ssen = sim.dense_sfs(rec, 8)
    assert s == [0, 3, 0, 1, 0, 0, 0, 2, 0]
    assert sres == [0, 3, 0, 1, 0, 0, 0, 0, 0]
    assert ssen == [0, 0, 0, 0, 0, 0, 0, 2, 0]
    assert all(s[i] == sres[i] + ssen[i] for i in range(9))
    # slot 0 stays unused; S_7 lies past i_max = 3
    assert sim.dense_sfs(rec, 3) == ([0, 3, 0, 1], [0, 3, 0, 1], [0, 0, 0, 0])


def test_extract_matches_naive_oracle_on_small_runs():
    rng = Random(105)
    checked = 0
    for _ in range(120):
        out = sim.run(SMALL, 2.5, rng=rng)
        if out.n_nodes > 200:
            continue
        rec = sim.extract_sfs(out)
        s, sres, ssen = naive_sfs(out)
        assert rec.s == s
        assert rec.s_resistant_origin == sres
        assert rec.s_sensitive_origin == ssen
        assert sum(i * m for i, m in rec.s.items()) == carried_copy_total(out)
        checked += 1
    assert checked >= 100


def test_mutation_copy_conservation_single_clone():
    rng = Random(106)
    for _ in range(50):
        out = sim.run(REF, 1.5, initial=(0, 1), rng=rng)
        rec = sim.extract_sfs(out)
        assert sum(i * m for i, m in rec.s.items()) == carried_copy_total(out)


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------


def test_window_counts():
    out = build_single_root_example(SMALL)
    rec = sim.extract_sfs(out)
    lam1 = 0.2  # e^(0.2 * 1.0) ~ 1.2214
    scale = math.exp(lam1 * rec.t_obs)
    # window (1, inf): carriers > 1.2214 -> i in {3, 7}
    wc = sim.window_counts(rec, 1.0, math.inf, lam1)
    assert wc.total == 3 and wc.resistant_origin == 1 and wc.sensitive_origin == 2
    # everything: i > ~0
    wc_all = sim.window_counts(rec, 1e-9, math.inf, lam1)
    assert wc_all.total == rec.total_mutations()
    # disjoint windows add up
    a = sim.window_counts(rec, 1e-9, 2.0, lam1)
    b = sim.window_counts(rec, 2.0, math.inf, lam1)
    assert 2.0 * scale not in rec.s  # boundary not double counted (open intervals)
    assert a.total + b.total == wc_all.total
    with pytest.raises(ValueError):
        sim.window_counts(rec, 2.0, 1.0, lam1)
    empty = sim.SfsRecord({}, {}, 1.0)
    assert sim.window_counts(empty, 0.5, math.inf, lam1).total == 0


def test_window_counts_refuses_a_window_edge_past_the_float_range():
    # e^(0.7 * 2000) passes the float range: it once raised a bare
    # OverflowError; and at t_obs = 900 the upper edge 1e300 e^630 does,
    # which once opened the window to every carrier count above x1
    with pytest.raises(ParameterError, match=r"window edge 1 e\^\(lambda1 t_obs\) passes the float range"):
        sim.window_counts(sim.SfsRecord({1: 2}, {}, 2000.0), 1.0, math.inf, 0.7)
    with pytest.raises(ParameterError, match="window edge 1e\\+300 e"):
        sim.window_counts(sim.SfsRecord({1: 2}, {}, 900.0), 1.0, 1e300, 0.7)


@pytest.mark.parametrize("x1, x2", [(2.0, 1.0), (0.0, 1.0), (math.nan, 1.0), (1.0, math.nan)])
def test_window_counts_edges_refused_by_their_owner(x1, x2):
    # the window-edge rule has one owner, params.check_window, which the
    # theory's window laws share; it was once restated here with a bare
    # ValueError
    with pytest.raises(ParameterError, match="requires 0 < x1 < x2, got x1="):
        sim.window_counts(sim.SfsRecord({1: 2}, {}, 1.0), x1, x2, 0.7)


# ---------------------------------------------------------------------------
# ancestral records
# ---------------------------------------------------------------------------


def test_ancestral_records_gamma_zero():
    params = ModelParams(
        b0=1.2, d0=2.0, b1=1.2, d1=0.5, omega=2.0, gamma=0.0, alpha=0.9, n_init=50
    )
    out = sim.run(params, 2.0, rng=Random(108))
    assert out.ancestral == []


def test_ancestral_records_fields():
    rng = Random(109)
    out = sim.run(REF, 1.25 * math.log(500), rng=rng)
    records = out.ancestral
    assert records  # reference set produces ~5.5 founders per run
    for t, gen, rid in records:
        assert 0.0 < t < out.t_obs
        assert gen >= 1
        assert 0 <= rid < out.n_roots
    # records appear in time order
    times = [r[0] for r in records]
    assert times == sorted(times)


def test_one_founder_generation_law_is_geometric():
    # roots whose progeny carries exactly one ancestral resistant cell:
    # its generation is geometric with parameter x_n
    dp = derive(REF)
    rng = Random(110)
    t_n = 1.25 * math.log(500)
    per_root: Counter = Counter()
    gens: list[int] = []
    for _ in range(1200):
        out = sim.run(REF, t_n, rng=rng)
        per_root.clear()
        first_gen: dict[int, int] = {}
        for _t, gen, rid in out.ancestral:
            per_root[rid] += 1
            first_gen.setdefault(rid, gen)
        gens.extend(first_gen[rid] for rid, k in per_root.items() if k == 1)
    assert len(gens) > 4000
    res = gof_geometric(gens, dp.x_n)
    assert res.pvalue > 0.001


# ---------------------------------------------------------------------------
# mutation laws
# ---------------------------------------------------------------------------


def test_mutation_law_bernoulli_bounds_edge_counts():
    params = ModelParams(
        b0=1.0, d0=2.0, b1=1.2, d1=0.5, omega=1.0, gamma=0.5, alpha=1.0, n_init=20,
        mutation_law="bernoulli",
    )
    out = sim.run(params, 3.0, rng=Random(111))
    assert all(m in (0, 1) for m in out.edge_mutations)


def test_mean_sfs_insensitive_to_mutation_law():
    # expectations depend on the mutation law only through its mean
    base = dict(b0=1.2, d0=2.0, b1=1.2, d1=0.5, omega=1.0, gamma=1.0, alpha=0.7, n_init=60)
    t_obs = 1.25 * math.log(60)
    means = {}
    for law in ("poisson", "bernoulli"):
        params = ModelParams(mutation_law=law, **base)
        # the total mutation counts of extract_sfs(run(...)), bit for bit
        rng = Random(112)
        keys = [rng.getrandbits(64) for _ in range(2500)]
        totals = sim.sample_chunk(params, t_obs, None, keys, i_max=1)[0][:, -1]
        means[law] = (np.mean(totals), np.std(totals, ddof=1) / math.sqrt(len(totals)))
    (m1, s1), (m2, s2) = means["poisson"], means["bernoulli"]
    # 95% confidence intervals overlap
    assert m1 - 1.96 * s1 <= m2 + 1.96 * s2 and m2 - 1.96 * s2 <= m1 + 1.96 * s1


# sha256 of full_run's forests (parent, cell_type, edge_mutations, status)
# over seeds 0, 1 and 2 at N = 40, t = 1.25 ln N: per-seed outputs of the
# mutation-count sampler, pinned across changes to how it searches the cdf
FOREST_DIGESTS = {
    ("poisson", 0.0): "7fb74b50823430ab044c17bce24c25548d38c904d7084cb462b7ab48ed5339a3",
    ("poisson", 2.0): "ad18467372644ff7949b136206de54f2a35d3b025a4c1ce5bfcb7878f52aa0d4",
    ("poisson", 30.0): "485e3135db28702860984a6dac9d6f651ef7268aa7a832016014d0c5ef8bccb8",
    ("poisson", 2000.0): "2b698ec8be0f2a6af4acbb65bd3de49b373550b924c3426bcf04e428207c71c1",
    ("bernoulli", 0.0): "7fb74b50823430ab044c17bce24c25548d38c904d7084cb462b7ab48ed5339a3",
    ("bernoulli", 2.0): "3d87d1c9c9025d2d80b239754d6cc3c99e3673adf541bc4b7cce0f3d7b89bc42",
}


@pytest.mark.parametrize("law, omega", FOREST_DIGESTS, ids=str)
def test_run_forests_pinned(law, omega):
    params = ModelParams(
        b0=1.2, d0=2.0, b1=1.2, d1=0.5, omega=omega, gamma=1.0, alpha=0.9, n_init=40,
        mutation_law=law,
    )
    h = hashlib.sha256()
    for seed in (0, 1, 2):
        out = full_run(params, 1.25 * math.log(40), rng=Random(seed))
        h.update(json.dumps([out.parent, out.cell_type, out.edge_mutations, out.status]).encode())
    assert h.hexdigest() == FOREST_DIGESTS[law, omega]


@pytest.mark.parametrize("simulate", [sim.run, gillespie], ids=["run", "gillespie"])
def test_mutation_count_mean_at_large_omega(simulate):
    # mean omega/2 = 1000 per daughter, past the 745 where a product of
    # uniforms against e^(-omega/2) underflows
    params = dataclasses.replace(SMALL, omega=2000.0)
    rng = Random(113)
    counts = []
    while len(counts) < 1000:
        out = simulate(params, 2.0, rng=rng)
        counts += [m for m, p in zip(out.edge_mutations, out.parent) if p >= 0]
    sem = np.std(counts, ddof=1) / math.sqrt(len(counts))
    assert abs(np.mean(counts) - 1000.0) <= 5.0 * sem


# ---------------------------------------------------------------------------
# the lifetime simulator against the Gillespie oracle
# ---------------------------------------------------------------------------


def _welch_z(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    return 0.0 if se == 0 else float((a.mean() - b.mean()) / se)


def test_run_agrees_with_gillespie_in_distribution():
    params = ModelParams(
        b0=1.2, d0=2.0, b1=1.2, d1=0.5, omega=2.0, gamma=1.0, alpha=0.9, n_init=40
    )
    t_obs = 1.25 * math.log(40)
    lambda1 = params.b1 - params.d1
    windows = (0.5, 2.0)
    samples = {}
    for name, simulate, seed in (("run", full_run, 401), ("gillespie", gillespie, 402)):
        rng = Random(seed)
        rows = []
        for _ in range(3000):
            out = simulate(params, t_obs, rng=rng)
            rec = sim.extract_sfs(out)
            row = [out.z1_final, len(out.ancestral), *out.event_counts]
            row += [rec.s.get(i, 0) for i in range(1, 6)]
            for x in windows:
                wc = sim.window_counts(rec, x, math.inf, lambda1)
                row += [wc.total, wc.resistant_origin, wc.sensitive_origin]
            rows.append(row)
        samples[name] = np.asarray(rows, dtype=float)
    a, b = samples["run"], samples["gillespie"]
    # z1_final in law; every other column (founders, five event classes,
    # S_1..S_5, three counts per window) in mean
    assert ks_2samp(a[:, 0], b[:, 0]).pvalue > 0.001
    zs = [_welch_z(a[:, k], b[:, k]) for k in range(a.shape[1])]
    assert max(abs(z) for z in zs) <= 4.0, zs
    assert a[:, 5].sum() > 0 and b[:, 5].sum() > 0  # double flips happen in both


# ---------------------------------------------------------------------------
# the reduced sensitive tree
# ---------------------------------------------------------------------------

U = 2.0**-53
RATES = [(1.2, 2.0), (1.0, 2.0), (1.99, 2.0), (0.01, 3.0)]
GAMMAS_N = [1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.3, 0.5]


def _reduced_tree_exact(b0, d0, gamma_n):
    """h and the daughter kinds' weights at 40 digits, the rates and gamma_n
    taken as given: g = 1 - h solves g = d0/c + (b0/c) ((1 - gamma_n) g)^2,
    c = b0 + d0."""
    with mpmath.workdps(40):
        b0, d0, gamma = mpmath.mpf(b0), mpmath.mpf(d0), mpmath.mpf(gamma_n)
        p, q = b0 / (b0 + d0), d0 / (b0 + d0)
        g = 2 * q / (1 + mpmath.sqrt(1 - 4 * p * q * (1 - gamma) ** 2))
        weight = {sim.RESISTANT: gamma, sim.SENSITIVE: (1 - gamma) * (1 - g)}
        weight[sim._DROPPED] = (1 - gamma) * g
        return 1 - g, weight


def _tree_params(b0, d0, gamma_n):
    # n_init = 1 and alpha = 1, so gamma_n = gamma exactly
    return ModelParams(b0=b0, d0=d0, b1=1.2, d1=0.5, omega=2.0, gamma=gamma_n, alpha=1.0, n_init=1)


@pytest.mark.parametrize("b0, d0", RATES, ids=str)
def test_reduced_tree_keep_probability(b0, d0):
    # h within 32u: first-order sums of the roundings of each step (a within
    # 8u, 1 + sqrt(1 + a) and 1 + x_n within 7u and 9u, lambda0/delta0 within
    # 3u, and the product and quotients); 1 - g in floats would be off by
    # about 1e-4 of h at gamma_n = 1e-12
    for gamma_n in GAMMAS_N:
        h, _ = sim._reduced_tree(_tree_params(b0, d0, gamma_n))
        exact, _ = _reduced_tree_exact(b0, d0, gamma_n)
        assert abs(h - exact) <= 32 * U * exact, (gamma_n, h, exact)


@pytest.mark.parametrize("b0, d0", RATES, ids=str)
def test_reduced_tree_pair_table(b0, d0):
    # each entry within 128u: a weight holds h's 32u and one or two more
    # roundings, a pair two weights and a quotient by a norm within 36u,
    # and each partial sum at most 7 additions
    for gamma_n in GAMMAS_N:
        _, cdf = sim._reduced_tree(_tree_params(b0, d0, gamma_n))
        _, weight = _reduced_tree_exact(b0, d0, gamma_n)
        assert len(sim._PAIRS) == 8 and (sim._DROPPED, sim._DROPPED) not in sim._PAIRS
        total = 0
        with mpmath.workdps(40):
            for (a, b), entry in zip(sim._PAIRS, cdf):
                total += weight[a] * weight[b] / (1 - weight[sim._DROPPED] ** 2)
                if entry != math.inf:
                    assert abs(entry - total) <= 128 * U * total, (gamma_n, a, b)
            assert cdf[-1] == math.inf and abs(total - 1) < 1e-25


def test_gamma_zero_simulates_no_sensitive_cell():
    # h = 0: no sensitive root is kept, so the forest is its roots and every
    # founder count is 0
    params = dataclasses.replace(N40, gamma=0.0)
    assert sim._reduced_tree(params)[0] == 0.0
    keys = [Random(seed).getrandbits(64) for seed in range(20)]
    for seed in range(20):
        out = sim.run(params, T40, rng=Random(seed))
        assert out.n_nodes == out.n_roots == 40 and out.event_counts == [0] * 5
    rows, _ = sim.sample_chunk(params, T40, None, keys, i_max=5, windows=(0.5,))
    assert not rows.any()
    rows, _ = sim.sample_chunk(params, T40, (3, 2), keys, i_max=5, windows=(0.5,))
    assert not rows[:, -3].any() and rows[:, -2].any()


# the reduced-tree run against the full-genealogy oracles in distribution:
# (params, t_obs, initial, replicates of run, of full_run, of gillespie)
REDUCED_CASES = {
    "n40": (N40, T40, None, 1500, 1500, 1500),
    "reference": (REF, 1.25 * math.log(500), None, 250, 150, 250),
    "bernoulli": (BERNOULLI40, T40, None, 1000, 1000, 1000),
    "gamma-n-half": (FLIPS40, T40, (5, 3), 1000, 1000, 1000),
    "gamma-0": (dataclasses.replace(N40, gamma=0.0), T40, (3, 2), 500, 500, 500),
}
REDUCED_WINDOWS = (0.5, 2.0)


@functools.lru_cache(maxsize=None)
def _reduced_sample(case, sampler):
    """One sampler's replicates of a REDUCED_CASES case: founder counts, each
    root's first founder's (generation, birth time), z1_final, and columns
    S_resistant_origin,i and S_sensitive_origin,i for i <= 10 and each
    window's counts by origin."""
    params, t_obs, initial, *sizes = REDUCED_CASES[case]
    index = ("run", "full_run", "gillespie").index(sampler)
    simulate = (sim.run, full_run, gillespie)[index]
    rng = Random(501 + index)
    founders, first, z1, columns = [], {}, [], []
    for r in range(sizes[index]):
        out = simulate(params, t_obs, initial, rng=rng)
        founders.append(len(out.ancestral))
        for t, g, rid in out.ancestral:
            first.setdefault((r, rid), (g, t))
        z1.append(out.z1_final)
        rec = sim.extract_sfs(out)
        _, sbar, sunder = sim.dense_sfs(rec, 10)
        row = sbar[1:] + sunder[1:]
        for x in REDUCED_WINDOWS:
            wc = sim.window_counts(rec, x, math.inf, params.b1 - params.d1)
            row += [wc.resistant_origin, wc.sensitive_origin]
        columns.append(row)
    generations = [g for g, _ in first.values()]
    times = [t for _, t in first.values()]
    return founders, generations, times, z1, np.asarray(columns, dtype=float)


@pytest.mark.parametrize("oracle", ["full_run", "gillespie"])
@pytest.mark.parametrize("case", REDUCED_CASES)
def test_reduced_run_agrees_with_full_genealogy(case, oracle):
    # run simulates only the kept sensitive cells, yet its founders (count
    # per replicate and each root's first founder's generation, chi-square;
    # its birth time, KS), z1_final (KS) and spectra and window counts of
    # both origins (Welch |z| <= 4) have the full process's law
    a, b = _reduced_sample(case, "run"), _reduced_sample(case, oracle)
    if REDUCED_CASES[case][0].gamma == 0.0:
        assert not any(a[0]) and not any(b[0])
    else:
        assert gof_two_samples(a[0], b[0]).pvalue > 0.001
        assert gof_two_samples(a[1], b[1]).pvalue > 0.001
        assert ks_2samp(a[2], b[2]).pvalue > 0.001
    assert ks_2samp(a[3], b[3]).pvalue > 0.001
    zs = [_welch_z(a[4][:, k], b[4][:, k]) for k in range(a[4].shape[1])]
    assert max(abs(z) for z in zs) <= 4.0, zs


# ---------------------------------------------------------------------------
# properties of run over random small parameter sets
# ---------------------------------------------------------------------------


@st.composite
def small_runs(draw):
    law = draw(st.sampled_from(MUTATION_LAWS))
    b0 = draw(st.floats(0.2, 2.0))
    b1 = draw(st.floats(0.2, 2.0))
    params = ModelParams(
        b0=b0,
        d0=b0 + draw(st.floats(0.1, 2.0)),
        b1=b1,
        d1=b1 * draw(st.one_of(st.just(0.0), st.floats(0.0, 0.9))),
        omega=draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0 if law == "bernoulli" else 4.0))),
        gamma=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.9))),
        alpha=draw(st.one_of(st.just(1.0), st.floats(0.1, 1.0))),
        n_init=draw(st.integers(1, 12)),
        mutation_law=law,
    )
    initial = draw(st.one_of(st.none(), st.tuples(st.just(0), st.integers(1, 4))))
    return params, initial, draw(st.floats(0.0, 1.5)), draw(st.integers(0, 2**32))


def _edge(**overrides):
    base = dict(b0=1.0, d0=2.0, b1=1.2, d1=0.5, omega=2.0, gamma=0.5, alpha=0.8, n_init=6)
    return ModelParams(**(base | overrides))


def _check_forest(out, initial: tuple[int, int]) -> None:
    """The OracleOutcome contract of a full run started from ``initial``."""
    n = out.n_nodes
    assert out.n_roots == sum(initial)
    assert all(len(col) == n for col in (out.cell_type, out.edge_mutations, out.status))
    children = [[] for _ in range(n)]
    founders = 0
    for idx in range(n):
        p = out.parent[idx]
        if idx < out.n_roots:
            assert p == -1 and out.edge_mutations[idx] == 0
            assert out.cell_type[idx] == (sim.SENSITIVE if idx < initial[0] else sim.RESISTANT)
            continue
        assert 0 <= p < idx
        children[p].append(idx)
        assert out.edge_mutations[idx] >= 0
        if out.cell_type[p] == sim.RESISTANT:
            assert out.cell_type[idx] == sim.RESISTANT
        else:
            founders += out.cell_type[idx] == sim.RESISTANT
    events = [0, 0, 0, 0, 0]
    for idx in range(n):
        divided = out.status[idx] == sim.STATUS_DIVIDED
        assert len(children[idx]) == (2 if divided else 0)
        if out.cell_type[idx] == sim.RESISTANT:
            events[2] += divided
            events[4] += out.status[idx] == sim.STATUS_DEAD
        elif divided:
            flips = sum(out.cell_type[c] == sim.RESISTANT for c in children[idx])
            events[(0, 2, 3)[flips]] += 1
        else:
            events[1] += out.status[idx] == sim.STATUS_DEAD
    assert events == out.event_counts
    assert alive_counts(out) == (out.z0_final, out.z1_final)
    assert len(out.ancestral) == founders
    times = [t for t, _, _ in out.ancestral]
    assert times == sorted(times) and all(0.0 < t < out.t_obs for t in times)
    assert all(g >= 1 and 0 <= rid < initial[0] for _, g, rid in out.ancestral)


def _check_reduced_forest(out: sim.SimOutcome, initial: tuple[int, int]) -> None:
    """The SimOutcome contract of a reduced-tree run started from ``initial``:
    every root, and below the sensitive ones only kept cells, which never
    die and leave one or two recorded daughters when they divide."""
    n = out.n_nodes
    assert out.n_roots == sum(initial)
    assert all(len(col) == n for col in (out.cell_type, out.edge_mutations, out.status))
    children = [[] for _ in range(n)]
    for idx in range(out.n_roots, n):
        p = out.parent[idx]
        assert 0 <= p < idx and out.edge_mutations[idx] >= 0
        children[p].append(idx)
        if out.cell_type[p] == sim.RESISTANT:
            assert out.cell_type[idx] == sim.RESISTANT
    assert all(out.parent[k] == -1 and out.edge_mutations[k] == 0 for k in range(out.n_roots))
    roots = [sim.SENSITIVE] * initial[0] + [sim.RESISTANT] * initial[1]
    assert out.cell_type[: out.n_roots] == roots
    events = [0, 0, 0, 0, 0]
    founders = 0
    for idx in range(n):
        divided = out.status[idx] == sim.STATUS_DIVIDED
        if out.cell_type[idx] == sim.RESISTANT:
            assert len(children[idx]) == (2 if divided else 0)
            events[2] += divided
            events[4] += out.status[idx] == sim.STATUS_DEAD
        else:
            assert out.status[idx] != sim.STATUS_DEAD
            assert len(children[idx]) in ((1, 2) if divided else (0,))
            flips = sum(out.cell_type[c] == sim.RESISTANT for c in children[idx])
            founders += flips
            if divided:
                events[(0, 2, 3)[flips]] += 1
    assert events == out.event_counts
    assert alive_counts(out)[1] == out.z1_final
    assert len(out.ancestral) == founders
    times = [t for t, _, _ in out.ancestral]
    assert times == sorted(times) and all(0.0 < t < out.t_obs for t in times)
    assert all(g >= 1 and 0 <= rid < initial[0] for _, g, rid in out.ancestral)


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(small_runs())
@example((_edge(gamma=0.0), None, 1.5, 1))
@example((_edge(omega=0.0), None, 1.5, 2))
@example((_edge(d1=0.0), None, 1.5, 3))
@example((_edge(alpha=1.0, n_init=1), None, 1.5, 4))
@example((_edge(mutation_law="bernoulli", omega=1.5), None, 1.5, 5))
@example((_edge(), (0, 3), 1.5, 6))
@example((_edge(), (3, 2), 0.0, 7))
def test_run_properties(case):
    params, initial, t_obs, seed = case
    full = full_run(params, t_obs, initial=initial, rng=Random(seed))
    reduced = sim.run(params, t_obs, initial=initial, rng=Random(seed))
    initial = initial or (params.n_init, 0)
    _check_forest(full, initial)
    _check_reduced_forest(reduced, initial)
    for out in (full, reduced):
        if t_obs == 0.0:
            assert out.n_nodes == out.n_roots
        if params.gamma == 0.0:
            assert out.ancestral == []
        if params.omega == 0.0:
            assert not any(out.edge_mutations)
        if params.mutation_law == "bernoulli":
            assert set(out.edge_mutations) <= {0, 1}
        rec = sim.extract_sfs(out)
        assert (rec.s, rec.s_resistant_origin, rec.s_sensitive_origin) == naive_sfs(out)
        assert sum(i * m for i, m in rec.s.items()) == carried_copy_total(out)
    # the chunk sampler draws the same cell-keyed numbers, so the same row
    _check_chunk_equals_run(params, t_obs, initial, [seed], 8, (0.5, 3.0))


# ---------------------------------------------------------------------------
# the chunk sampler against run, and the cell-keyed draws
# ---------------------------------------------------------------------------


def _row_of_run(params, t_obs, initial, seed, i_max, windows):
    """The sample_chunk row and record of run(rng=Random(seed)), built from
    extract_sfs, dense_sfs and window_counts."""
    out = sim.run(params, t_obs, initial, rng=Random(seed))
    rec = sim.extract_sfs(out)
    s, sbar, sunder = sim.dense_sfs(rec, i_max)
    wcs = [sim.window_counts(rec, x, math.inf, params.b1 - params.d1) for x in windows]
    row = s[1:] + sbar[1:] + sunder[1:]
    row += [w.total for w in wcs] + [w.resistant_origin for w in wcs]
    row += [w.sensitive_origin for w in wcs]
    row += [len(out.ancestral), out.z1_final, rec.total_mutations()]
    return np.asarray(row, dtype=float), rec


def _check_chunk_equals_run(params, t_obs, initial, seeds, i_max, windows):
    keys = [Random(seed).getrandbits(64) for seed in seeds]
    rows, records = sim.sample_chunk(
        params, t_obs, initial, keys, i_max=i_max, windows=windows, keep=True
    )
    assert rows.shape == (len(keys), 3 * i_max + 3 * len(windows) + 3)
    for j, seed in enumerate(seeds):
        row, rec = _row_of_run(params, t_obs, initial, seed, i_max, windows)
        np.testing.assert_array_equal(rows[j], row, err_msg=f"seed {seed}")
        assert records[j] == rec, seed


# (params, t_obs, initial, seeds, i_max, windows)
CHUNK_CASES = {
    "n40-windows": (N40, T40, None, range(60), 10, (0.5, 2.0)),
    "reference": (REF, 1.25 * math.log(500), None, range(4), 121, (0.6, 1.0, 2.0, 4.0, 6.0)),
    "clone": (REF, 2.0, (0, 1), range(150), 10, ()),
    "initial-2-1": (REF, 2.0, (2, 1), range(100), 10, (0.5,)),
    "bernoulli": (BERNOULLI40, T40, None, range(60), 10, (0.5,)),
    "omega-0": (dataclasses.replace(N40, omega=0.0), T40, None, range(40), 10, (0.5,)),
    # a mixed start: resistant clones exist, but no cell flips
    "gamma-0": (dataclasses.replace(N40, gamma=0.0), T40, (3, 2), range(40), 10, (0.5,)),
    "d1-0": (dataclasses.replace(N40, d1=0.0), T40, None, range(30), 10, (0.5,)),
    "t-obs-0": (N40, 0.0, (3, 2), range(10), 10, (0.5,)),
    # the narrowest row: every statistic one column wide
    "i-max-1": (N40, T40, None, range(30), 1, (0.5,)),
    # the phase boundary: sensitive cells flip as often as not, from a mixed start
    "gamma-n-half": (FLIPS40, T40, (5, 3), range(40), 10, (0.5,)),
    "gamma-n-half-bernoulli": (
        dataclasses.replace(FLIPS40, mutation_law="bernoulli", omega=1.0),
        T40, (5, 3), range(40), 10, (0.5,),
    ),
    # about 5.1k kept roots per replicate (gamma_n = 0.05, h about 0.10): the
    # first sensitive batch splits at _BATCH cells and later ones join pieces
    "wide-sensitive": (
        dataclasses.replace(REF, n_init=50_000, gamma=2500.0, alpha=1.0),
        0.3, None, range(3), 10, (0.5,),
    ),
}


@pytest.mark.parametrize("case", CHUNK_CASES.values(), ids=CHUNK_CASES)
def test_sample_chunk_equals_run(case):
    # rows and records bit for bit: every draw is keyed by its cell, so the
    # breadth-first batches and run's depth-first stacks see the same numbers
    _check_chunk_equals_run(*case)


@pytest.mark.parametrize("omega", [600.0, 2e4])
def test_sample_chunk_equals_run_at_large_omega(omega):
    # a daughter's mutation count exceeds 255 here, so the counts and the
    # guide table of their draws need more than 8 bits; at 2e4 the Poisson
    # table has 10 861 entries
    params = dataclasses.replace(N40, omega=omega)
    assert max(sim.run(params, T40, rng=Random(0)).edge_mutations) > 255
    _check_chunk_equals_run(params, T40, None, range(6), 10, (0.5, 2.0))


@pytest.mark.parametrize("i_max", [0, -1, -3])
def test_sample_chunk_rejects_i_max_below_1(i_max):
    # -1 once raised IndexError, -3 numpy's "negative dimensions", 0 gave
    # empty spectra
    keys = [Random(seed).getrandbits(64) for seed in range(3)]
    with pytest.raises(ValueError, match=f"requires i_max >= 1, got {i_max}"):
        sim.sample_chunk(N40, T40, None, keys, i_max=i_max, windows=(0.5,))


@pytest.mark.parametrize(
    "bad, message",
    [
        (1.5, "requires an integer key at position 2, got 1.5"),
        (np.float64(7.0), "requires an integer key at position 2, got "),
        ("3", "requires an integer key at position 2, got '3'"),
        (-1, "requires key at position 2 >= 0, got -1"),
        (2**64, f"requires key at position 2 < 2\\^64, got {2**64}"),
    ],
)
def test_sample_chunk_rejects_keys_that_are_not_64_bit_integers(bad, message):
    # 1.5 once ran silently as key 1, 2^64 and -1 raised numpy's OverflowError
    keys = [Random(seed).getrandbits(64) for seed in range(4)]
    with pytest.raises(ValueError, match=message):
        sim.sample_chunk(N40, T40, None, keys[:2] + [bad] + keys[2:], i_max=3)
    # numpy's integers and the largest key are integers in range
    last = [0, 2**64 - 1]
    rows, _ = sim.sample_chunk(N40, T40, None, keys + last, i_max=3)
    words, _ = sim.sample_chunk(N40, T40, None, np.array(keys + last, dtype=np.uint64), i_max=3)
    np.testing.assert_array_equal(words, rows)


def test_simulation_rejects_omega_above_its_bound():
    # omega = 2e6 once built a table of 10^6 Poisson terms before the first draw
    huge = dataclasses.replace(N40, omega=2e6)
    with pytest.raises(ParameterError, match="omega <= 20000"):
        sim.sample_chunk(huge, T40, None, [Random(0).getrandbits(64)], i_max=3)
    with pytest.raises(ParameterError, match="omega <= 20000"):
        sim.run(huge, T40, rng=Random(0))
    assert sim.checked_args(dataclasses.replace(N40, omega=2e4), T40, None) == ((40, 0), ())


def test_sample_chunk_equals_run_at_a_long_observation_time():
    # e^(lambda1 t_obs) passes the float range at t_obs = 2000 (lambda1 =
    # 0.7): the sampler once computed it with no window to scale and raised
    # OverflowError
    _check_chunk_equals_run(dataclasses.replace(REF, gamma=0.0), 2000.0, None, range(4), 10, ())


def test_sample_chunk_refuses_a_window_edge_past_the_float_range():
    # the windowed twin of the test above: it once raised OverflowError in
    # the sampler, after the walk; the carrier edge is now refused first
    params = dataclasses.replace(REF, gamma=0.0)
    keys = [Random(seed).getrandbits(64) for seed in range(4)]
    with pytest.raises(ParameterError, match="window edge 0.5 e\\^\\(lambda1 t_obs\\) passes the float range"):
        sim.sample_chunk(params, 2000.0, None, keys, i_max=10, windows=(0.5,))
    # the largest edge below the float range is taken: e^(0.7 * 1000) is
    # about 1e304
    assert sim.checked_args(params, 1000.0, None, 10, (0.5, 1e3)) == ((500, 0), (0.5, 1e3))


def test_sample_chunk_peak_memory_stays_bounded():
    # the traced peak of one call on each 32-key reference block (numpy
    # reports its buffers to tracemalloc).  The one-queue sampler peaked at
    # 1.67, 1.79, 1.60, 1.52, 1.66, 1.78, 1.55 and 1.64 MB on these blocks,
    # the sampler with slot and leaf records at 1.44, 1.50, 1.60, 1.27,
    # 1.48, 1.27, 1.29 and 1.51 MB, and the cell-table sampler at 2.17, 2.02,
    # 2.11, 1.42, 1.99, 1.42, 1.89 and 2.03 MB (the first call builds the
    # cached guide table), and with each daughter queued once, in its own
    # type's queue, at 2.17, 2.00, 2.08, 1.40, 1.97, 1.40, 1.41 and 2.00 MB,
    # and with a cell table made of the rounds' own arrays at 2.17, 1.61,
    # 1.75, 1.38, 1.57, 1.37, 1.39 and 1.62 MB; one that drew every mutation
    # count over the whole block after its walk peaked at 3.5-5.2 MB and
    # raised the benchmark's peak RSS past its bound, so the largest peak
    # may be at most 1.5 times the old largest
    t_obs = 1.25 * math.log(500)
    peaks = []
    tracemalloc.start()
    try:
        for s in range(8):
            keys = _replicate_keys((901 << 20) + s, 0, 32)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            sim.sample_chunk(REF, t_obs, None, keys, i_max=121, windows=(0.6, 1.0, 2.0, 4.0, 6.0))
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert max(peaks) <= 1.5 * 1.79e6, peaks


def test_sample_chunk_does_not_depend_on_the_chunk():
    keys = [Random(seed).getrandbits(64) for seed in range(24)]
    whole, _ = sim.sample_chunk(N40, T40, None, keys, i_max=10, windows=(0.5,))
    parts = [
        sim.sample_chunk(N40, T40, None, keys[k : k + 5], i_max=10, windows=(0.5,))[0]
        for k in range(0, 24, 5)
    ]
    np.testing.assert_array_equal(whole, np.concatenate(parts))


# SplitMix64 seeded with 0 (Steele, Lea & Flood 2014; the reference
# splitmix64.c) outputs H(G), H(2 G), H(3 G), H(4 G)
SPLITMIX64_FROM_0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC]
# (64-bit word, its uniform)
UNIFORMS = [(0, 0.0), (1 << 11, 2.0**-53), (2**63, 0.5), (2**64 - 1, 1.0 - 2.0**-53)]
# x -> plog(x) as float.hex; each equals math.log(x)
PLOGS = {
    1.0: "0x0.0p+0",
    0.5: "-0x1.62e42fefa39efp-1",
    0.75: "-0x1.269621134db92p-2",
    0.1: "-0x1.26bb1bbb55515p+1",
    2.0**-53: "-0x1.25e4f7b2737fap+5",
    1.0 - 2.0**-53: "-0x1.0000000000000p-53",
    0.7071067811865476: "-0x1.62e42fefa39eep-2",
    0.7071067811865475: "-0x1.62e42fefa39f1p-2",
}


def test_draw_kernels_pinned():
    # the numpy operands stay np.uint64, so numpy 1.x and 2.x promote alike
    words = [k * sim._GOLDEN % 2**64 for k in range(1, 5)]
    assert [sim._mix64(w) for w in words] == SPLITMIX64_FROM_0
    assert sim._mix64_array(np.array(words, dtype=np.uint64)).tolist() == SPLITMIX64_FROM_0
    for word, u in UNIFORMS:
        assert sim._uniform(word) == u
        assert sim._uniform(np.array([word], dtype=np.uint64))[0] == u
    assert [sim._plog(x).hex() for x in PLOGS] == list(PLOGS.values())
    from_array = sim._plog(np.array(list(PLOGS)), np.frexp).tolist()
    assert [y.hex() for y in from_array] == list(PLOGS.values())


def _word_draw_tables():
    """The tables whose entries the sampler turns into word thresholds, each
    with the (law, omega) of its mutation table, if it is one."""
    for omega in (2.0, 600.0, 2e4):
        law = ("poisson", omega)
        yield pytest.param(sim._mutation_cdf(*law), law, id=f"poisson-{omega:g}")
    for omega in (1.0, 2.0):
        law = ("bernoulli", omega)
        yield pytest.param(sim._mutation_cdf(*law), law, id=f"bernoulli-{omega:g}")
    for name, params in (("reference", REF), ("flips40", FLIPS40)):
        yield pytest.param(sim._reduced_tree(params)[1], None, id=f"pairs-{name}")
    # the divide probability at the reference, at d1 = 0, and at its extremes
    for c in (REF.b1 / (REF.b1 + REF.d1), 1.0, 1.0 - 2.0**-53, 2.0**-60):
        yield pytest.param((c,), None, id=f"divide-{c!r}")


@pytest.mark.parametrize("cdf, law", _word_draw_tables())
def test_draw_kernels_word_thresholds_equal_the_float_draws(cdf, law):
    # sample_chunk compares words with thresholds, run compares uniforms
    # with probabilities: w < W_k exactly when _uniform(w) < cdf[k], so a
    # search of the thresholds is bisect_right(cdf, _uniform(w)), and so is
    # the guide table's draw of a mutation count, a cell at a time or
    # through its marker, at the words around every threshold and elsewhere
    thresholds = sim._thresholds(cdf)
    assert len(thresholds) == sum(c < 1.0 for c in cdf)
    assert thresholds == sorted(thresholds) and all(0 <= w < 2**64 for w in thresholds)
    words = {0, 2**64 - 2**11, 2**64 - 1}
    words.update(w + d for w in thresholds for d in (-1, 0, 1) if 0 <= w + d < 2**64)
    rng = np.random.default_rng(36)
    words = sorted(words) + rng.integers(0, 2**64 - 1, 10**5, np.uint64, endpoint=True).tolist()
    for w, c in zip(thresholds, cdf):
        for word in (w - 1, w, w + 1):
            if 0 <= word < 2**64:
                assert (word < w) == (sim._uniform(word) < c), (word, c)
    expected = [bisect_right(cdf, sim._uniform(word)) for word in words]
    words = np.array(words, dtype=np.uint64)
    searched = np.array(thresholds, dtype=np.uint64).searchsorted(words, "right")
    assert searched.tolist() == expected
    if law is not None:
        table, guide = sim._mutation_table(*law)
        assert table.tolist() == thresholds
        assert sim._mutation_counts(words, table, guide).tolist() == expected
        # every cell of the guide is exact or marked: its words' counts are
        # one count, the guide's, or the guide holds the marker
        first = np.arange(1 << 16, dtype=np.uint64) << np.uint64(48)
        lo = table.searchsorted(first, "right")
        hi = table.searchsorted(first | np.uint64((1 << 48) - 1), "right")
        marker = np.iinfo(guide.dtype).max
        assert marker > table.size and guide.size == 1 << 16
        exact = guide != marker
        assert (guide[exact] == lo[exact]).all() and (guide[exact] == hi[exact]).all()
        assert (lo[~exact] < hi[~exact]).all()


def test_plog_is_one_evaluation_for_floats_and_arrays():
    # on the lifetimes' inputs 1 - u, u on the 53-bit grid, the numpy
    # evaluation equals the Python one bit for bit, within one ulp of log
    words = np.random.default_rng(7).integers(0, 2**64 - 1, size=20_000, dtype=np.uint64)
    xs = 1.0 - sim._uniform(words)
    for x, y in zip(xs.tolist(), sim._plog(xs, np.frexp).tolist()):
        assert sim._plog(x) == y
        assert abs(y - math.log(x)) <= math.ulp(math.log(x))


def test_plog_bounds_numpy_log_within_the_filter_margin():
    # sample_chunk's fast walk takes numpy's log; its lifetimes' margin
    # (simulator._NEAR) assumes np.log within _LOG_ULPS ulps of _plog on the
    # lifetimes' inputs 1 - u, u on the 53-bit grid: here u = 0, u = 1 -
    # 2^-53, the tiniest u, the grid around 1/2 and around plog's split at
    # sqrt(1/2), and random words, 1.5e6 inputs in all
    grid = np.arange(-100_000, 100_001, dtype=np.float64) * 2.0**-53
    words = np.random.default_rng(35).integers(0, 2**64 - 1, size=10**6, dtype=np.uint64)
    us = [
        np.array([0.0, 1.0 - 2.0**-53]),
        np.arange(1, 100_001) * 2.0**-53,
        0.5 + grid,
        np.floor((1.0 - 0.7071067811865476) * 2.0**53) * 2.0**-53 + grid,
        sim._uniform(words),
    ]
    worst = 0.0
    for u in us:
        x = 1.0 - u
        exact = sim._plog(x, np.frexp)
        off = np.abs(np.log(x) - exact) / np.spacing(np.abs(exact))
        worst = max(worst, float(off.max()))
    assert worst <= sim._LOG_ULPS, worst


def test_sample_chunk_takes_the_exact_walk_near_t_obs(monkeypatch):
    # t_obs set to a division time of run's, the end of a founder's mother:
    # numpy's log puts that end within a few ulps of t_obs, where only
    # _plog's tells whether the mother divides, so the block is walked again
    # with _plog, and the row and record still equal run's
    lifetimes = []

    def spy(x, frexp=math.frexp):
        if isinstance(x, np.ndarray):
            lifetimes.append(x.size)
        return plog(x, frexp)

    plog = sim._plog
    monkeypatch.setattr(sim, "_plog", spy)
    windows = (0.6, 1.0, 2.0, 4.0, 6.0)
    t_ref = 1.25 * math.log(500)
    _check_chunk_equals_run(REF, t_ref, None, [3], 121, windows)
    assert lifetimes == []
    births = sorted({t for t, _, _ in sim.run(REF, t_ref, rng=Random(3)).ancestral})
    assert len(births) >= 3
    for t_obs in births:
        lifetimes.clear()
        _check_chunk_equals_run(REF, t_obs, None, [3], 121, windows)
        assert lifetimes, t_obs
