import concurrent.futures
import math
from random import Random

import numpy as np
import pytest

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
@pytest.mark.parametrize(
    "master_seed",
    [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**96, 2**128 - 1, 2**128, 2**130 + 5, 20240601],
)
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


def test_vector_stat_matches_numpy():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(40, 6))
    stat = mc.VectorStat.zeros(6)
    for row in data:
        stat.update(row.copy())
    assert stat.n == 40
    np.testing.assert_allclose(stat.mean, data.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(stat.variance(), data.var(axis=0, ddof=1), rtol=1e-12)


def test_vector_stat_merge_any_grouping():
    rng = np.random.default_rng(2)
    data = rng.exponential(size=(60, 4))

    def stat_of(rows):
        s = mc.VectorStat.zeros(4)
        for row in rows:
            s.update(row.copy())
        return s

    whole = stat_of(data)
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
        bc.merge(b)
        bc.merge(c)
        right.merge(a)
        right.merge(bc)
        for merged in (left, right):
            assert merged.n == 60
            np.testing.assert_allclose(merged.mean, whole.mean, rtol=1e-12)
            np.testing.assert_allclose(merged.m2, whole.m2, rtol=1e-10)


def test_replicate_sfs_deterministic_and_worker_independent():
    agg1 = mc.replicate_sfs(TOY, T_OBS, replicates=40, seed=7, i_max=10, windows=(0.5,))
    agg2 = mc.replicate_sfs(TOY, T_OBS, replicates=40, seed=7, i_max=10, windows=(0.5,))
    agg3 = mc.replicate_sfs(
        TOY, T_OBS, replicates=40, seed=7, i_max=10, windows=(0.5,), workers=2, chunk_size=8
    )
    agg4 = mc.replicate_sfs(
        TOY, T_OBS, replicates=40, seed=7, i_max=10, windows=(0.5,), workers=1, chunk_size=8
    )
    np.testing.assert_array_equal(agg1.s.mean, agg2.s.mean)
    np.testing.assert_array_equal(agg1.s.m2, agg2.s.m2)
    # same chunking => bit-identical regardless of worker count
    np.testing.assert_array_equal(agg3.s.mean, agg4.s.mean)
    np.testing.assert_array_equal(agg3.s.m2, agg4.s.m2)
    np.testing.assert_array_equal(agg3.window_s.mean, agg4.window_s.mean)
    assert agg1.replicates == 40
    # different seed should actually change something
    agg5 = mc.replicate_sfs(TOY, T_OBS, replicates=40, seed=8, i_max=10, windows=(0.5,))
    assert not np.array_equal(agg1.s.mean, agg5.s.mean)


def _per_field_aggregate(params, t_obs, replicates, seed, i_max, windows, chunk_size):
    """replicate_sfs rebuilt from the public steps: seven VectorStats fed
    field by field from run -> extract_sfs -> dense_sfs / window_counts,
    chunk by chunk, the chunks merged in order."""
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
def test_replicate_sfs_equals_per_field_welford(windows, workers):
    # 23 replicates in chunks of 8: the last chunk is short
    agg = mc.replicate_sfs(
        TOY, T_OBS, 23, seed=11, i_max=6, windows=windows, workers=workers, chunk_size=8
    )
    ref = _per_field_aggregate(TOY, T_OBS, 23, 11, 6, windows, 8)
    assert agg.replicates == ref.replicates == 23
    for name in ("s", "sbar", "sunder", "window_s", "window_sbar", "window_sunder", "scalars"):
        got, want = getattr(agg, name), getattr(ref, name)
        assert got.n == want.n == (23 if windows or not name.startswith("window") else 0)
        np.testing.assert_array_equal(got.mean, want.mean)
        np.testing.assert_array_equal(got.m2, want.m2)


def test_replicate_sfs_calls_simulator_through_its_module(monkeypatch):
    # a wrapper set on the simulator module's attribute sees every replicate
    calls = []
    sample_sfs = sim.sample_sfs

    def counting_sample_sfs(*args, **kwargs):
        calls.append(1)
        return sample_sfs(*args, **kwargs)

    monkeypatch.setattr(sim, "sample_sfs", counting_sample_sfs)
    mc.replicate_sfs(TOY, T_OBS, replicates=12, seed=3, i_max=5, workers=1)
    assert len(calls) == 12


def test_cap_hit_names_replicate_and_seed(monkeypatch):
    calls = []
    sample_sfs = sim.sample_sfs

    def capped_at_replicate_3(*args, **kwargs):
        calls.append(1)
        if len(calls) == 4:
            raise sim.PopulationCapError("genealogy exceeded max_cells=10")
        return sample_sfs(*args, **kwargs)

    monkeypatch.setattr(sim, "sample_sfs", capped_at_replicate_3)
    with pytest.raises(sim.PopulationCapError) as info:
        mc.replicate_sfs(TOY, T_OBS, replicates=8, seed=3, i_max=5, workers=1)
    message = str(info.value)
    assert f"replicate 3 (seed_for_replicate(3, 3) = {mc.seed_for_replicate(3, 3)})" in message
    assert "max_cells=10" in message


def test_replicate_sfs_single_chunk_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a single chunk must run in-process")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    agg = mc.replicate_sfs(TOY, T_OBS, replicates=20, seed=5, i_max=5, workers=4, chunk_size=20)
    assert agg.replicates == 20


def test_on_record_in_replicate_order_for_any_worker_count():
    def records(workers):
        seen = []
        mc.replicate_sfs(
            TOY,
            T_OBS,
            replicates=20,
            seed=7,
            i_max=5,
            workers=workers,
            chunk_size=8,
            on_record=lambda r, rec: seen.append((r, rec.s, rec.s_resistant_origin)),
        )
        return seen

    serial = records(1)
    assert [r for r, *_ in serial] == list(range(20))
    assert records(2) == serial


def test_replicate_sfs_requires_two():
    with pytest.raises(ValueError):
        mc.replicate_sfs(TOY, T_OBS, replicates=1, seed=0)


@pytest.mark.parametrize("chunk_size", [0, -3])
def test_replicate_sfs_rejects_chunk_size_below_1(chunk_size):
    # -3 once gave an aggregate of 0 replicates, 0 a range() error
    with pytest.raises(ValueError, match="chunk_size"):
        mc.replicate_sfs(TOY, T_OBS, replicates=4, seed=0, chunk_size=chunk_size)


@pytest.mark.parametrize("windows", [(math.inf,), (1.0, math.nan), (0.5, -1.0)])
def test_replicate_sfs_rejects_bad_windows_before_any_replicate(monkeypatch, windows):
    # an infinite or nan edge once failed inside the first replicate
    def no_replicate(*args, **kwargs):
        raise AssertionError("windows must be checked before any replicate runs")

    monkeypatch.setattr(sim, "sample_sfs", no_replicate)
    with pytest.raises(ValueError, match="finite window edges > 0"):
        mc.replicate_sfs(TOY, T_OBS, replicates=4, seed=0, windows=windows)


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
    res = mc.gof_geometric(samples, x)
    assert res.pvalue > 0.001
    assert res.bins >= 4


def test_gof_geometric_detects_wrong_parameter():
    rng = np.random.default_rng(12)
    samples = rng.geometric(0.4, size=100_000)
    assert mc.gof_geometric(samples, 0.5).pvalue < 1e-6


def test_gof_exponential_self_consistency():
    rng = np.random.default_rng(13)
    rate = 1.969773
    samples = rng.exponential(1.0 / rate, size=100_000)
    res = mc.gof_exponential(samples, rate)
    assert res.pvalue > 0.001
    assert mc.gof_exponential(samples, 2.5 * rate).pvalue < 1e-6


def test_gof_degenerate_samples_rejected():
    with pytest.raises(mc.DegenerateSampleError):
        mc.gof_geometric([3, 3, 3, 3], 0.5)
    with pytest.raises(mc.DegenerateSampleError):
        mc.gof_exponential([1.0, 1.0], 2.0)


def test_gof_pooled_counts():
    obs = [520, 480, 3]
    exp = [500.0, 500.0, 3.0]
    res = mc.gof_pooled_counts(obs, exp)
    assert res.bins == 2  # the tiny cell is pooled into the largest
    assert res.pvalue > 0.05
    with pytest.raises(mc.IndexMismatchError):
        mc.gof_pooled_counts([1, 2], [1.0, 2.0, 3.0])


def test_chi_square_pvalues_equal_scipy_stats_chi2_sf():
    from scipy.stats import chi2

    rng = np.random.default_rng(14)
    for x in (0.5, 0.48):
        res = mc.gof_geometric(rng.geometric(x, size=5_000), 0.5)
        assert 0.0 < res.pvalue < 1.0
        assert res.pvalue == chi2.sf(res.statistic, res.dof)
    for obs, exp in (
        ([520, 480, 3], [500.0, 500.0, 3.0]),
        ([10, 31, 60, 99], [25.0, 25.0, 50.0, 100.0]),
    ):
        res = mc.gof_pooled_counts(obs, exp)
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
