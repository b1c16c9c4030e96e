import concurrent.futures
import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import numpy as np
import pytest

from helpers import DegenerateSampleError, gof_exponential, gof_geometric, gof_pooled_counts
from rescue_sfs import montecarlo as mc
from rescue_sfs import simulator as sim
from rescue_sfs.params import ModelParams

TOY = ModelParams(b0=1.0, d0=2.0, b1=1.2, d1=0.5, omega=2.0, gamma=0.4, alpha=1.0, n_init=30)
T_OBS = 1.25 * math.log(30)


def test_seed_for_replicate_distinct_and_stable():
    seeds = [mc.seed_for_replicate(99, r) for r in range(50)]
    assert len(set(seeds)) == 50
    assert seeds == [mc.seed_for_replicate(99, r) for r in range(50)]
    assert mc.seed_for_replicate(98, 0) != mc.seed_for_replicate(99, 0)


def _spawned_seed(master_seed, r):
    """The documented split: numpy's spawned child state, packed big-endian."""
    words = np.random.SeedSequence(master_seed, spawn_key=(r,)).generate_state(4)
    return int.from_bytes(words.astype(">u4").tobytes(), "big")


# 2**96, 2**128 - 1 and 2**128 take 4, 4 and 5 words: the master's hash runs
# 4 * max(4, words) steps before the spawn key's words
_MASTER_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**96, 2**128 - 1, 2**128, 2**130 + 5, 20240601]


@pytest.mark.parametrize("master_seed", _MASTER_SEEDS)
def test_replicate_seeds_match_seed_sequence(master_seed):
    chunk = mc.replicate_seeds(master_seed, 0, mc.DEFAULT_CHUNK)
    assert chunk == [_spawned_seed(master_seed, r) for r in range(mc.DEFAULT_CHUNK)]
    # a range across 2**32, where the spawn key grows to two words
    wide = range(2**32 - 2, 2**32 + 2)
    assert mc.replicate_seeds(master_seed, wide.start, wide.stop) == [
        _spawned_seed(master_seed, r) for r in wide
    ]
    for r in (0, 77, 2**32 - 1, 2**32):
        assert mc.seed_for_replicate(master_seed, r) == _spawned_seed(master_seed, r)


def test_replicate_seeds_reject_negative_seed_or_index():
    with pytest.raises(ValueError):
        mc.replicate_seeds(-1, 0, 4)
    with pytest.raises(ValueError):
        mc.seed_for_replicate(-1, 0)
    with pytest.raises(ValueError):
        mc.seed_for_replicate(1, -1)


@pytest.mark.parametrize("master_seed", _MASTER_SEEDS)
def test_replicate_keys_equal_random(master_seed):
    # a span as short as _mt_keys takes, from 0 and across 2**32
    for start in (0, 2**32 - mc._VECTOR_KEYS // 2):
        stop = start + mc._VECTOR_KEYS
        want = [Random(seed).getrandbits(64) for seed in mc.replicate_seeds(master_seed, start, stop)]
        assert mc._replicate_keys(master_seed, start, stop) == want


def test_replicate_keys_equal_random_on_short_keys(monkeypatch):
    # CPython keys a seed by its 32-bit words without the leading zero
    # words: 0 and 2**32 - 1 take one word, 2**32 two, 2**64 and 2**96 - 1
    # three, 2**128 - 1 four.  A replicate's seed is that short with
    # probability 2**-32 or less, so these seeds stand in for a span's
    seeds = [0, 2**32 - 1, 2**32, 2**64, 2**96 - 1, 2**128 - 1]
    state = [np.array([seed >> 32 * (3 - k) & 0xFFFFFFFF for seed in seeds], np.uint64) for k in range(4)]
    monkeypatch.setattr(mc, "_child_states", lambda master_seed, start, stop: state)
    monkeypatch.setattr(mc, "_VECTOR_KEYS", 1)
    assert mc._replicate_keys(0, 0, len(seeds)) == [Random(seed).getrandbits(64) for seed in seeds]


def _fraction_moments(rows):
    """Each column's mean and sample variance over integer rows, exact as
    Fractions (the variance by its two-pass definition) and rounded once."""
    rows = [[int(v) for v in row] for row in rows]
    n = len(rows)
    means, variances = [], []
    for col in zip(*rows):
        mean = Fraction(sum(col), n)
        means.append(float(mean))
        variances.append(float(sum((v - mean) ** 2 for v in col) / (n - 1)))
    return means, variances


def _assert_moments(stat, rows):
    means, variances = _fraction_moments(rows)
    assert stat.n == len(rows)
    assert stat.mean.tolist() == means
    assert stat.variance().tolist() == variances


def test_vector_stat_matches_numpy():
    # integers of every size up to 2**40, negatives included
    rng = np.random.default_rng(1)
    data = rng.integers(-(2**40), 2**40, size=(40, 6)) >> rng.integers(0, 40, size=(40, 6))
    stat = mc.VectorStat.zeros(6)
    for row in data:
        stat.update(row.astype(float))
    _assert_moments(stat, data)
    np.testing.assert_allclose(stat.mean, data.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(stat.variance(), data.var(axis=0, ddof=1), rtol=1e-12)


def test_vector_stat_merge_any_grouping():
    rng = np.random.default_rng(2)
    data = rng.geometric(0.01, size=(60, 4))

    def stat_of(rows):
        s = mc.VectorStat.zeros(4)
        for row in rows:
            s.update(row)
        return s

    whole = stat_of(data)
    _assert_moments(whole, data)
    for split in ((10, 25), (1, 59), (20, 40)):
        a = stat_of(data[: split[0]])
        b = stat_of(data[split[0] : split[1]])
        c = stat_of(data[split[1] :])
        left = mc.VectorStat.zeros(4)
        left.merge(a)
        left.merge(b)
        left.merge(c)
        right = mc.VectorStat.zeros(4)
        bc = mc.VectorStat.zeros(4)
        bc.merge(c)
        bc.merge(b)
        right.merge(bc)
        right.merge(a)
        for merged in (left, right):
            assert merged.n == 60
            assert merged.sum_x.tolist() == whole.sum_x.tolist()
            assert merged.sum_x2.tolist() == whole.sum_x2.tolist()
            _assert_moments(merged, data)


@pytest.mark.parametrize("bad", [0.5, math.nan, math.inf, -math.inf])
def test_vector_stat_update_rejects_non_integers(bad):
    stat = mc.VectorStat.zeros(3)
    stat.update([1, 2.0, 3])
    with pytest.raises(ValueError, match="integer entries"):
        stat.update([1.0, bad, 2.0])
    assert stat.n == 1 and stat.sum_x.tolist() == [1, 2, 3]


def test_vector_stat_without_rows_is_nan():
    stat = mc.VectorStat.zeros(2)
    assert np.isnan(stat.mean).all() and np.isnan(stat.variance()).all()
    stat.update([4, 5])
    assert stat.mean.tolist() == [4.0, 5.0] and np.isnan(stat.variance()).all()


def test_merge_rejects_a_different_experiment():
    # a failed merge changes nothing; the seed may differ (the benchmark
    # merges blocks run with different seeds)
    kw = dict(replicates=20, i_max=6, windows=(0.5, 2.0))
    base = mc.replicate_sfs(TOY, T_OBS, seed=1, **kw)
    before = _aggregate_digest(base)
    others = {
        "params": mc.replicate_sfs(dataclasses.replace(TOY, omega=3.0), T_OBS, seed=1, **kw),
        "t_obs": mc.replicate_sfs(TOY, T_OBS + 0.5, seed=1, **kw),
        "initial": mc.replicate_sfs(TOY, T_OBS, seed=1, initial=(30, 1), **kw),
        "i_max": mc.replicate_sfs(TOY, T_OBS, seed=1, **{**kw, "i_max": 7}),
        "windows": mc.replicate_sfs(TOY, T_OBS, seed=1, **{**kw, "windows": ()}),
    }
    for name, other in others.items():
        with pytest.raises(ValueError, match=f"different {name}"):
            base.merge(other)
        assert _aggregate_digest(base) == before
    base.merge(mc.replicate_sfs(TOY, T_OBS, seed=2, **kw))
    base.merge(mc.SfsAggregate(TOY, T_OBS, [30, 0], 3, 6, [0.5, 2.0]))
    assert base.replicates == 40
    assert {getattr(base, name).n for name in sim.ROW_FIELDS} == {40}


def test_replicate_sfs_deterministic_and_worker_independent(monkeypatch):
    agg1 = mc.replicate_sfs(TOY, T_OBS, replicates=40, seed=7, i_max=10, windows=(0.5,))
    agg2 = mc.replicate_sfs(TOY, T_OBS, replicates=40, seed=7, i_max=10, windows=(0.5,))
    monkeypatch.setattr(mc, "DEFAULT_CHUNK", 8)
    agg3 = mc.replicate_sfs(TOY, T_OBS, replicates=40, seed=7, i_max=10, windows=(0.5,), workers=2)
    agg4 = mc.replicate_sfs(TOY, T_OBS, replicates=40, seed=7, i_max=10, windows=(0.5,), workers=1)
    np.testing.assert_array_equal(agg1.s.mean, agg2.s.mean)
    np.testing.assert_array_equal(agg1.s.variance(), agg2.s.variance())
    # bit-identical for any chunk size and worker count
    for agg in (agg3, agg4):
        np.testing.assert_array_equal(agg.s.mean, agg1.s.mean)
        np.testing.assert_array_equal(agg.s.variance(), agg1.s.variance())
        np.testing.assert_array_equal(agg.window_s.mean, agg1.window_s.mean)
    assert agg1.replicates == 40
    # different seed should actually change something
    agg5 = mc.replicate_sfs(TOY, T_OBS, replicates=40, seed=8, i_max=10, windows=(0.5,))
    assert not np.array_equal(agg1.s.mean, agg5.s.mean)


def _per_field_aggregate(params, t_obs, replicates, seed, i_max, windows, chunk_size):
    """replicate_sfs rebuilt from the public steps: seven VectorStats
    updated field by field from run -> extract_sfs -> dense_sfs /
    window_counts, chunk by chunk, the chunks merged in order."""
    lambda1 = params.b1 - params.d1
    initial = (params.n_init, 0)
    total = mc.SfsAggregate(params, t_obs, initial, seed, i_max, windows)
    for start in range(0, replicates, chunk_size):
        chunk = mc.SfsAggregate(params, t_obs, initial, seed, i_max, windows)
        for r in range(start, min(start + chunk_size, replicates)):
            out = sim.run(params, t_obs, rng=Random(mc.seed_for_replicate(seed, r)))
            rec = sim.extract_sfs(out)
            s, sbar, sunder = sim.dense_sfs(rec, i_max)
            wcs = [sim.window_counts(rec, x, math.inf, lambda1) for x in windows]
            parts = [
                (chunk.s, s[1:]),
                (chunk.sbar, sbar[1:]),
                (chunk.sunder, sunder[1:]),
                (chunk.scalars, [len(out.ancestral), out.z1_final, rec.total_mutations()]),
            ]
            if windows:
                parts += [
                    (chunk.window_s, [wc.total for wc in wcs]),
                    (chunk.window_sbar, [wc.resistant_origin for wc in wcs]),
                    (chunk.window_sunder, [wc.sensitive_origin for wc in wcs]),
                ]
            for stat, values in parts:
                stat.update(np.asarray(values, dtype=float))
            chunk.replicates += 1
        total.merge(chunk)
    return total


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("windows", [(), (0.5, 2.0)], ids=["no-windows", "windows"])
def test_replicate_sfs_equals_per_field_welford(monkeypatch, windows, workers):
    # the per-field rebuild in chunks of 5, replicate_sfs in chunks of 8:
    # exact sums do not depend on either
    monkeypatch.setattr(mc, "DEFAULT_CHUNK", 8)
    agg = mc.replicate_sfs(TOY, T_OBS, 23, seed=11, i_max=6, windows=windows, workers=workers)
    ref = _per_field_aggregate(TOY, T_OBS, 23, 11, 6, windows, 5)
    assert agg.replicates == ref.replicates == 23
    for name in ("s", "sbar", "sunder", "window_s", "window_sbar", "window_sunder", "scalars"):
        got, want = getattr(agg, name), getattr(ref, name)
        assert got.n == want.n == (23 if windows or not name.startswith("window") else 0)
        assert got.sum_x.tolist() == want.sum_x.tolist()
        assert got.sum_x2.tolist() == want.sum_x2.tolist()
        np.testing.assert_array_equal(got.mean, want.mean)
        np.testing.assert_array_equal(got.variance(), want.variance())


def test_replicate_sfs_calls_simulator_through_its_module(monkeypatch):
    # a wrapper set on the simulator module's attribute sees every replicate
    calls = []
    sample_chunk = sim.sample_chunk

    def counting_sample_chunk(*args, **kwargs):
        calls.extend(args[3])  # one key per replicate
        return sample_chunk(*args, **kwargs)

    monkeypatch.setattr(sim, "sample_chunk", counting_sample_chunk)
    mc.replicate_sfs(TOY, T_OBS, replicates=12, seed=3, i_max=5, workers=1)
    assert len(calls) == 12


def test_cap_hit_names_replicate_and_seed(monkeypatch):
    def capped_at_replicate_3(*args, **kwargs):
        raise sim.PopulationCapError("genealogy exceeded max_cells=10", replicate=3)

    monkeypatch.setattr(sim, "sample_chunk", capped_at_replicate_3)
    with pytest.raises(sim.PopulationCapError) as info:
        mc.replicate_sfs(TOY, T_OBS, replicates=8, seed=3, i_max=5, workers=1)
    message = str(info.value)
    assert f"replicate 3 (seed_for_replicate(3, 3) = {mc.seed_for_replicate(3, 3)})" in message
    assert "max_cells=10" in message


@pytest.mark.parametrize("vector_keys", [mc._VECTOR_KEYS, 1], ids=["default", "vector"])
def test_cap_hit_in_a_later_span_names_replicate_seed_and_key(monkeypatch, vector_keys):
    # spans of two chunks of 8: the second sample_chunk call covers 16..31,
    # keyed by one Random per replicate or, at vector_keys 1, by _mt_keys
    monkeypatch.setattr(mc, "_VECTOR_KEYS", vector_keys)
    calls = []
    sample_chunk = sim.sample_chunk

    def capped_in_second_span(*args, **kwargs):
        calls.append(len(args[3]))
        if len(calls) == 2:
            raise sim.PopulationCapError("genealogy exceeded max_cells=10", replicate=8 + 3)
        return sample_chunk(*args, **kwargs)

    monkeypatch.setattr(sim, "sample_chunk", capped_in_second_span)
    monkeypatch.setattr(mc, "_SPAN_FLOATS", 2 * 8 * (3 * 5 + 3))
    monkeypatch.setattr(mc, "DEFAULT_CHUNK", 8)
    with pytest.raises(sim.PopulationCapError) as info:
        mc.replicate_sfs(TOY, T_OBS, replicates=40, seed=3, i_max=5, workers=1)
    assert calls == [16, 16]
    seed = mc.seed_for_replicate(3, 16 + 8 + 3)
    key = Random(seed).getrandbits(64)
    message = str(info.value)
    assert f"replicate 27 (seed_for_replicate(3, 27) = {seed}), key {key}:" in message
    assert "max_cells=10" in message


def test_replicate_sfs_single_chunk_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a single chunk must run in-process")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(mc, "DEFAULT_CHUNK", 20)
    agg = mc.replicate_sfs(TOY, T_OBS, replicates=20, seed=5, i_max=5, workers=4)
    assert agg.replicates == 20


def test_on_record_in_replicate_order_for_any_worker_count(monkeypatch):
    monkeypatch.setattr(mc, "DEFAULT_CHUNK", 8)

    def records(workers):
        seen = []
        mc.replicate_sfs(
            TOY,
            T_OBS,
            replicates=20,
            seed=7,
            i_max=5,
            workers=workers,
            on_record=lambda r, rec: seen.append((r, rec.s, rec.s_resistant_origin)),
        )
        return seen

    serial = records(1)
    assert [r for r, *_ in serial] == list(range(20))
    assert records(2) == serial


def test_replicate_sfs_requires_two():
    with pytest.raises(ValueError):
        mc.replicate_sfs(TOY, T_OBS, replicates=1, seed=0)
    # 4.0 once failed in range(): "'float' object cannot be interpreted as an integer"
    with pytest.raises(ValueError, match="requires an integer replicates, got 4.0"):
        mc.replicate_sfs(TOY, T_OBS, replicates=4.0, seed=0)


@pytest.mark.parametrize("workers", [0, -2])
def test_replicate_sfs_rejects_workers_below_1(monkeypatch, workers):
    # both once ran in-process without a word
    def no_replicate(*args, **kwargs):
        raise AssertionError("workers must be checked before any replicate runs")

    monkeypatch.setattr(sim, "sample_chunk", no_replicate)
    with pytest.raises(ValueError, match="requires workers >= 1"):
        mc.replicate_sfs(TOY, T_OBS, replicates=4, seed=0, workers=workers)


def _aggregate_digest(agg):
    """SHA-256 over the count, mean and variance of all seven statistics."""
    h = hashlib.sha256(f"replicates={agg.replicates}".encode())
    for name in ("s", "sbar", "sunder", "window_s", "window_sbar", "window_sunder", "scalars"):
        stat = getattr(agg, name)
        h.update(f"{name}:{stat.n}".encode() + stat.mean.tobytes() + stat.variance().tobytes())
    return h.hexdigest()


# (replicates, initial, t_obs, chunk_size): TOY's founders, or one
# resistant founder (the clone set-up)
_SPAN_CASES = [(23, None, T_OBS, size) for size in (1, 7, 256)] + [
    (600, initial, t_obs, size)
    for initial, t_obs in ((None, T_OBS), ((0, 1), 2.0))
    for size in (7, 256)
]


@pytest.mark.parametrize(
    "replicates, initial, t_obs, chunk_size",
    _SPAN_CASES,
    ids=[f"{'clone' if c[1] else 'toy'}-{c[0]}-chunk{c[3]}" for c in _SPAN_CASES],
)
@pytest.mark.parametrize("windows", [(), (0.5, 2.0)], ids=["no-windows", "windows"])
def test_replicate_sfs_spans_change_no_bit(
    monkeypatch, windows, replicates, initial, t_obs, chunk_size
):
    # spans of one chunk against spans of every chunk (of half of them with
    # two workers), also with records kept; chunks of 7 and 256 leave a
    # short last chunk
    def run(span_floats, workers, on_record=None):
        monkeypatch.setattr(mc, "_SPAN_FLOATS", span_floats)
        monkeypatch.setattr(mc, "DEFAULT_CHUNK", chunk_size)
        agg = mc.replicate_sfs(
            TOY, t_obs, replicates, seed=21, initial=initial, i_max=6, windows=windows,
            workers=workers, on_record=on_record,
        )
        return _aggregate_digest(agg)

    digests, streams = set(), []
    for workers in (1, 2):
        for span_floats in (1, 1 << 40):
            digests.add(run(span_floats, workers))
        seen = []
        digests.add(run(1 << 40, workers, lambda r, rec: seen.append((r, rec))))
        streams.append(seen)
    assert len(digests) == 1
    assert [r for r, _ in streams[0]] == list(range(replicates))
    assert streams[0] == streams[1]


@pytest.mark.parametrize("windows", [(), (0.5, 2.0)], ids=["no-windows", "windows"])
def test_replicate_sfs_chunks_spans_and_workers_change_no_bit(monkeypatch, windows):
    # exact sums: no chunk size, span size or worker count moves a bit
    digests = set()
    for chunk_size in (1, 7, 256, 4096):
        for span_floats in (1, 1 << 40):
            for workers in (1, 2):
                monkeypatch.setattr(mc, "DEFAULT_CHUNK", chunk_size)
                monkeypatch.setattr(mc, "_SPAN_FLOATS", span_floats)
                agg = mc.replicate_sfs(
                    TOY, T_OBS, 300, seed=17, i_max=6, windows=windows, workers=workers
                )
                digests.add(_aggregate_digest(agg))
    assert len(digests) == 1


def _assert_aggregate_moments(agg, rows):
    """Every field of the aggregate against the Fraction moments of its
    columns of the rows."""
    edges = np.cumsum(sim.row_widths(agg.i_max, len(agg.windows)))[:-1]
    for name, part in zip(sim.ROW_FIELDS, np.split(rows, edges, axis=1)):
        if part.shape[1]:
            _assert_moments(getattr(agg, name), part)


@pytest.mark.parametrize("windows", [(), (0.5, 2.0)], ids=["no-windows", "windows"])
def test_replicate_sfs_moments_equal_fraction_reference(windows):
    agg = mc.replicate_sfs(TOY, T_OBS, 200, seed=13, i_max=6, windows=windows, workers=2)
    keys = mc._replicate_keys(13, 0, 200)
    rows, _ = sim.sample_chunk(TOY, T_OBS, None, keys, i_max=6, windows=windows)
    _assert_aggregate_moments(agg, rows)
    assert agg.stats("s").mean.tolist() == agg.s.mean.tolist()
    assert agg.window_stats("s").variance.tolist() == agg.window_s.variance().tolist()


# (largest entry, rows): a span sums in int64 while top**2 * rows < 2**63;
# (2**31 - 1)**2 * 2 is just below, the other two are not
@pytest.mark.parametrize("top, replicates", [(2**31 - 1, 2), (2**31, 2), (2**32 - 3, 5)])
def test_replicate_sfs_sums_entries_near_2_to_32_exactly(monkeypatch, top, replicates):
    width = sum(sim.row_widths(3, 1))
    spread = (np.arange(replicates)[:, None] * 5 + np.arange(width)) % 11

    def synthetic_rows(params, t_obs, initial, keys, **kwargs):
        return (top - spread[: len(keys)]).astype(float), []

    monkeypatch.setattr(sim, "sample_chunk", synthetic_rows)
    agg = mc.replicate_sfs(TOY, T_OBS, replicates, seed=1, i_max=3, windows=(1.0,))
    _assert_aggregate_moments(agg, top - spread)


@pytest.mark.parametrize("windows", [(math.inf,), (1.0, math.nan), (0.5, -1.0)])
def test_replicate_sfs_rejects_bad_windows_before_any_replicate(monkeypatch, windows):
    # an infinite or nan edge once failed inside the first replicate
    def no_replicate(*args, **kwargs):
        raise AssertionError("windows must be checked before any replicate runs")

    monkeypatch.setattr(sim, "sample_chunk", no_replicate)
    with pytest.raises(ValueError, match="finite window edges > 0"):
        mc.replicate_sfs(TOY, T_OBS, replicates=4, seed=0, windows=windows)


@pytest.mark.parametrize("i_max", [0, -1, -3, 5.0])
def test_replicate_sfs_rejects_i_max_below_1_before_any_replicate(monkeypatch, i_max):
    # -1 once died dividing by zero in span sizing, 0 returned empty spectra,
    # and 5.0, not an integer, failed deep in numpy
    def no_replicate(*args, **kwargs):
        raise AssertionError("i_max must be checked before any replicate runs")

    monkeypatch.setattr(sim, "sample_chunk", no_replicate)
    message = "requires an integer i_max" if isinstance(i_max, float) else "requires i_max >= 1"
    with pytest.raises(ValueError, match=f"{message}, got {i_max}"):
        mc.replicate_sfs(TOY, T_OBS, replicates=4, seed=0, i_max=i_max)


@pytest.mark.parametrize(
    "t_obs, initial, message",
    [
        (math.nan, None, "finite t_obs"),
        (-1.0, None, "finite t_obs"),
        (math.inf, None, "finite t_obs"),
        (T_OBS, (0, 0), "nonnegative and nonempty"),
        (T_OBS, (2.0, 1), "requires an integer initial population, got 2.0"),
    ],
)
def test_replicate_sfs_rejects_bad_t_obs_or_initial_before_any_replicate(
    monkeypatch, t_obs, initial, message
):
    # each once failed inside the first sample_chunk call, with two workers
    # after the process pool had started
    def no_replicate(*args, **kwargs):
        raise AssertionError("t_obs and initial must be checked before any replicate runs")

    monkeypatch.setattr(sim, "sample_chunk", no_replicate)
    with pytest.raises(ValueError, match=message):
        mc.replicate_sfs(TOY, t_obs, replicates=600, seed=0, initial=initial, workers=2)


@pytest.mark.parametrize(
    "seed, error, message", [(-1, ValueError, "master seed >= 0"), (2.5, TypeError, "integer")]
)
def test_replicate_sfs_rejects_bad_master_seed_before_any_span(monkeypatch, seed, error, message):
    # -1 once raised inside the first span, with two workers after the
    # process pool had started
    def no_replicate(*args, **kwargs):
        raise AssertionError("the master seed must be checked before any replicate runs")

    def no_pool(*args, **kwargs):
        raise AssertionError("the master seed must be checked before the pool starts")

    monkeypatch.setattr(sim, "sample_chunk", no_replicate)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pytest.raises(error, match=message):
        mc.replicate_sfs(TOY, T_OBS, replicates=600, seed=seed, workers=2)


@pytest.mark.parametrize("workers", [1, 2])
def test_replicate_sfs_vector_keys_change_no_bit(monkeypatch, workers):
    # every span keyed by _mt_keys gives the aggregate of the default split
    def digest():
        agg = mc.replicate_sfs(TOY, T_OBS, 600, seed=21, i_max=6, windows=(0.5, 2.0), workers=workers)
        return _aggregate_digest(agg)

    default = digest()
    monkeypatch.setattr(mc, "_VECTOR_KEYS", 1)
    assert digest() == default


_SPAWN_SCRIPT = """
import hashlib, math, multiprocessing
from rescue_sfs import montecarlo as mc
from rescue_sfs.params import ModelParams

multiprocessing.set_start_method("spawn")
toy = ModelParams(b0=1.0, d0=2.0, b1=1.2, d1=0.5, omega=2.0, gamma=0.4, alpha=1.0, n_init=30)
for workers in (1, 2):
    agg = mc.replicate_sfs(
        toy, 1.25 * math.log(30), 600, seed=21, i_max=6, windows=(0.5, 2.0), workers=workers
    )
    h = hashlib.sha256(f"replicates={agg.replicates}".encode())
    for name in ("s", "sbar", "sunder", "window_s", "window_sbar", "window_sunder", "scalars"):
        stat = getattr(agg, name)
        h.update(f"{name}:{stat.n}".encode() + stat.mean.tobytes() + stat.variance().tobytes())
    print(h.hexdigest())
"""


def test_replicate_sfs_spawned_workers_change_no_bit():
    # spawn, the default start method on macOS and Windows, starts workers
    # that import the package afresh: two of them (three chunks in two
    # spans) give the serial aggregate, and this process's too
    src = Path(mc.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _SPAWN_SCRIPT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    here = mc.replicate_sfs(TOY, T_OBS, 600, seed=21, i_max=6, windows=(0.5, 2.0))
    assert out == [_aggregate_digest(here)] * 2


def test_montecarlo_imports_simulator_before_numpy():
    # without a bytecode cache, simulator.py compiled on top of numpy's
    # memory raised a short process's peak RSS by about 2 MB
    src = Path(mc.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = "import sys\nfrom rescue_sfs.montecarlo import replicate_sfs\nprint(*sys.modules)"
    modules = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert modules.index("rescue_sfs.simulator") < modules.index("numpy")


def test_replicate_sfs_all_zero_without_mutations():
    inert = ModelParams(
        b0=1.0, d0=2.0, b1=1.2, d1=0.5, omega=0.0, gamma=0.0, alpha=1.0, n_init=30
    )
    agg = mc.replicate_sfs(inert, T_OBS, replicates=2, seed=1, i_max=8, windows=(1.0,))
    for kind in ("s", "sbar", "sunder"):
        stats = agg.stats(kind)
        assert np.all(stats.mean == 0.0) and np.all(stats.variance == 0.0)
        assert np.all(agg.window_stats(kind).mean == 0.0)
    mean, _sem = agg.scalar_stat("ancestral_count")
    assert mean == 0.0


def test_replicate_stats_ci():
    agg = mc.replicate_sfs(TOY, T_OBS, replicates=50, seed=3, i_max=5)
    stats = agg.stats("s")
    assert stats.count == 50
    np.testing.assert_allclose(
        stats.ci_halfwidth, 1.96 * np.sqrt(stats.variance / 50), rtol=1e-12
    )
    mean, sem = agg.scalar_stat("ancestral_count")
    assert mean >= 0 and sem >= 0


def test_gof_geometric_self_consistency():
    rng = np.random.default_rng(11)
    x = 0.656591
    samples = rng.geometric(x, size=100_000)
    res = gof_geometric(samples, x)
    assert res.pvalue > 0.001
    assert res.bins >= 4


def test_gof_geometric_detects_wrong_parameter():
    rng = np.random.default_rng(12)
    samples = rng.geometric(0.4, size=100_000)
    assert gof_geometric(samples, 0.5).pvalue < 1e-6


def test_gof_exponential_self_consistency():
    rng = np.random.default_rng(13)
    rate = 1.969773
    samples = rng.exponential(1.0 / rate, size=100_000)
    res = gof_exponential(samples, rate)
    assert res.pvalue > 0.001
    assert gof_exponential(samples, 2.5 * rate).pvalue < 1e-6


def test_gof_degenerate_samples_rejected():
    with pytest.raises(DegenerateSampleError):
        gof_geometric([3, 3, 3, 3], 0.5)
    with pytest.raises(DegenerateSampleError):
        gof_exponential([1.0, 1.0], 2.0)


def test_gof_pooled_counts():
    obs = [520, 480, 3]
    exp = [500.0, 500.0, 3.0]
    res = gof_pooled_counts(obs, exp)
    assert res.bins == 2  # the tiny cell is pooled into the largest
    assert res.pvalue > 0.05
    with pytest.raises(mc.IndexMismatchError):
        gof_pooled_counts([1, 2], [1.0, 2.0, 3.0])


def test_chi_square_pvalues_equal_scipy_stats_chi2_sf():
    from scipy.stats import chi2

    rng = np.random.default_rng(14)
    for x in (0.5, 0.48):
        res = gof_geometric(rng.geometric(x, size=5_000), 0.5)
        assert 0.0 < res.pvalue < 1.0
        assert res.pvalue == chi2.sf(res.statistic, res.dof)
    for obs, exp in (
        ([520, 480, 3], [500.0, 500.0, 3.0]),
        ([10, 31, 60, 99], [25.0, 25.0, 50.0, 100.0]),
    ):
        res = gof_pooled_counts(obs, exp)
        assert res.pvalue == chi2.sf(res.statistic, res.dof)


def test_compare_self_passes():
    agg = mc.replicate_sfs(TOY, T_OBS, replicates=60, seed=5, i_max=6)
    stats = agg.stats("s")
    report = mc.compare(stats, stats.mean.tolist(), mode="z-score", threshold=3.0)
    assert report.all_passed
    assert report.pass_fraction == 1.0


def test_compare_index_mismatch_is_error():
    agg = mc.replicate_sfs(TOY, T_OBS, replicates=20, seed=5, i_max=6)
    stats = agg.stats("s")
    with pytest.raises(mc.IndexMismatchError):
        mc.compare(stats, [1.0, 2.0])


def test_compare_relative_mode():
    agg = mc.replicate_sfs(TOY, T_OBS, replicates=20, seed=5, i_max=3)
    stats = agg.stats("s")
    theory = (stats.mean * 1.05).tolist()
    report = mc.compare(stats, theory, mode="relative", threshold=0.10)
    assert report.all_passed
    report = mc.compare(stats, theory, mode="relative", threshold=0.01)
    assert not report.all_passed
    rows = list(report.rows())
    assert len(rows) == 3 and len(rows[0]) == 7
    with pytest.raises(ValueError, match="unknown mode 'absolute'"):
        mc.compare(stats, theory, mode="absolute", threshold=0.01)


def test_ci_coverage_on_known_law():
    # 95% normal CI for the mean of Exponential(1), n=100: coverage >= 93%
    rng = np.random.default_rng(20240601)
    hits = 0
    for _ in range(1000):
        draws = rng.exponential(1.0, size=100)
        mean = draws.mean()
        half = 1.96 * draws.std(ddof=1) / 10.0
        hits += mean - half <= 1.0 <= mean + half
    assert hits >= 930


def test_window_means_match_window_theory():
    # simulator window means against the collapsed window sums: the
    # resistant-origin side has an exact comparator; the hitch-hiking side
    # is bracketed by its single-founder sum plus the remainder bound
    import rescue_sfs.theory as th

    params = ModelParams(
        b0=1.2, d0=2.0, b1=1.2, d1=0.5, omega=2.0, gamma=1.0, alpha=0.9, n_init=60
    )
    t_mult = 1.25
    t_obs = t_mult * math.log(60)
    xs = (0.6, 1.5)
    agg = mc.replicate_sfs(params, t_obs, replicates=2500, seed=31, i_max=2, windows=xs)
    sbar = agg.window_stats("sbar")
    sunder = agg.window_stats("sunder")
    r_bound = th.sensitive_origin_remainder_bound(params)
    for k, x in enumerate(xs):
        exact = th.resistant_origin_window_exact(x, t_mult, params).value
        z = (sbar.mean[k] - exact) / sbar.sem()[k]
        assert abs(z) <= 3.5
        q_sum = th.sensitive_origin_window_main(x, t_mult, params).value
        lo = q_sum - 3.5 * sunder.sem()[k]
        hi = q_sum + r_bound + 3.5 * sunder.sem()[k]
        assert lo <= sunder.mean[k] <= hi
