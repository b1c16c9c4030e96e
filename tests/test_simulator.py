import dataclasses
import hashlib
import json
import math
from collections import Counter
from random import Random

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
    gillespie,
    gof_discrete,
    gof_pooled_counts,
    naive_sfs,
)
from rescue_sfs import simulator as sim
from rescue_sfs import theory as th
from rescue_sfs.params import MUTATION_LAWS, ModelParams, derive

REF = ModelParams(b0=1.2, d0=2.0, b1=1.2, d1=0.5, omega=2.0, gamma=1.0, alpha=0.9, n_init=500)
SMALL = ModelParams(b0=1.0, d0=2.0, b1=1.2, d1=0.5, omega=2.0, gamma=0.3, alpha=1.0, n_init=8)


def test_initial_validation():
    # NaN and inf used to pass the t_obs < 0 check: sample_sfs returned an
    # empty record at NaN, and run went on to the cell cap at inf
    for t_obs in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="t_obs"):
            sim.run(REF, t_obs, rng=Random(0))
        with pytest.raises(ValueError, match="t_obs"):
            sim.sample_sfs(REF, t_obs, initial=(0, 1), rng=Random(1))
    with pytest.raises(ValueError):
        sim.run(REF, 1.0, initial=(0, 0), rng=Random(0))


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


def test_sample_sfs_hits_the_cap_where_run_does():
    # d1 = 0 from (2, 1) to t = 6: most seeds exceed max_cells=400, some do not
    grow = dataclasses.replace(REF, d1=0.0)
    hits = 0
    for seed in range(40):
        errors = []
        for simulate in (sim.run, sim.sample_sfs):
            try:
                simulate(grow, 6.0, initial=(2, 1), rng=Random(seed), max_cells=400)
                errors.append(None)
            except sim.PopulationCapError as exc:
                errors.append(str(exc))
        assert errors[0] == errors[1]
        hits += errors[0] is not None
    assert 0 < hits < 40


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
    finals = [sim.run(params, 1.0, rng=rng).z0_final for _ in range(4000)]
    mean = np.mean(finals)
    sem = np.std(finals, ddof=1) / math.sqrt(len(finals))
    expected = 100 * math.exp(-0.8)
    assert abs(mean - expected) <= 3 * sem
    # no resistance, no mutations: empty records
    out = sim.run(params, 1.0, rng=rng)
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
    rng = Random(103)
    finals = [sim.run(REF, 2.0, rng=rng).z1_final for _ in range(1500)]
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
    res = gof_discrete(gens, lambda g: dp.x_n * (1 - dp.x_n) ** (g - 1))
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
        rng = Random(112)
        totals = [
            sim.extract_sfs(sim.run(params, t_obs, rng=rng)).total_mutations()
            for _ in range(2500)
        ]
        means[law] = (np.mean(totals), np.std(totals, ddof=1) / math.sqrt(len(totals)))
    (m1, s1), (m2, s2) = means["poisson"], means["bernoulli"]
    # 95% confidence intervals overlap
    assert m1 - 1.96 * s1 <= m2 + 1.96 * s2 and m2 - 1.96 * s2 <= m1 + 1.96 * s1


# sha256 of run's forests (parent, cell_type, edge_mutations, status) over
# seeds 0, 1 and 2 at N = 40, t = 1.25 ln N: per-seed outputs of the
# mutation-count sampler, pinned across changes to how it searches the cdf
FOREST_DIGESTS = {
    ("poisson", 0.0): "5d3b5000ed09d1092297e13221713928bd51c18a84ad9671b3380167bc56262c",
    ("poisson", 2.0): "00e0a4ba7f19549aed09c3e7ca60adb2be1269030be8a3db7659c4bcd7adfa7f",
    ("poisson", 30.0): "49950970beeb41f2b15efa8a7b5119eee1d0e510b7b52da82a9176108eadaa2e",
    ("poisson", 2000.0): "09fa5a01a4a7e8b2d067772b8ac8fbdfce7a6f36ec53be326a990cb2e72f80b6",
    ("bernoulli", 0.0): "5d3b5000ed09d1092297e13221713928bd51c18a84ad9671b3380167bc56262c",
    ("bernoulli", 2.0): "2f489aa1cb52bf21daad749d8cb6729c4aa041e7500de372743abf01d2583de9",
}


@pytest.mark.parametrize("law, omega", FOREST_DIGESTS, ids=str)
def test_run_forests_pinned(law, omega):
    params = ModelParams(
        b0=1.2, d0=2.0, b1=1.2, d1=0.5, omega=omega, gamma=1.0, alpha=0.9, n_init=40,
        mutation_law=law,
    )
    h = hashlib.sha256()
    for seed in (0, 1, 2):
        out = sim.run(params, 1.25 * math.log(40), rng=Random(seed))
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
    for name, simulate, seed in (("run", sim.run, 401), ("gillespie", gillespie, 402)):
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


def _check_forest(out: sim.SimOutcome, initial: tuple[int, int]) -> None:
    """The SimOutcome contract of a run started from ``initial``."""
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
    out = sim.run(params, t_obs, initial=initial, rng=Random(seed))
    initial = initial or (params.n_init, 0)
    _check_forest(out, initial)
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
    # the genealogy-free sampler makes the same draws, so the same record
    sampled = sim.sample_sfs(params, t_obs, initial=initial, rng=Random(seed))
    assert sampled == (rec, len(out.ancestral), out.z1_final)
