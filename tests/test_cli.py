import argparse
import ast
import csv
import json
import os
import subprocess
import sys
import time
from random import Random

import pytest

from rescue_sfs import cli, gw_trees, montecarlo, simulator, theory
from rescue_sfs.params import load_config, observation_time

REF_CFG = """
b0 = 1.2
d0 = 2.0
b1 = 1.2
d1 = 0.5
omega = 2.0
gamma = 1.0
alpha = 0.9
n_init = 40
mutation_law = poisson
t_mode = log-scaled
t_mult = 1.25
replicates = 25
seed = 4242
"""


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "ref.cfg"
    path.write_text(REF_CFG)
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


def _digests(out_dir):
    return {os.path.basename(o["path"]): o["sha256"] for o in _manifest(out_dir)["outputs"]}


# pinned `simulate` outputs of REF_CFG with --windows 0.5,2 --i-max 10
SIMULATE_DIGESTS = {
    "aggregate.csv": "e924b3350dda1328ad2fd410d4a6af22bb7c2d3b622904762cb7a5935b114845",
    "config_resolved.json": "89a2f92db45f06a791141f31c94d3437933c412ca54369d063b07092feea301c",
    "per_replicate.csv": "249ba6173465d1936965bdfc2d8afdce6d5fa3e477f4c44cb10aa6d7d01c316a",
    "windows.csv": "a03e0d620326ed245dbc5d2a8218dea2b2958fd9aadaefc08492883ea2409c72",
}

# pinned outputs of the other commands at REF_CFG: one theory id per index
# kind, the exact comparators of compare's gates, both founder generation
# laws (theory gn and tilde-gn, gw under both conditions), the figures that
# sample trees (fig2), simulate (fig3, fig4, fig5) or only evaluate (fig7),
# and compare over both index sets and both gate modes
GOLDEN_DIGESTS = [
    (
        ["theory", "--formula", "I", "--i-range", "1:20"],
        {"theory_I.csv": "4ad3f09f20b9c4d8f9a77849ebe5af31fd894285f6f38d8b8ca450c70239f885"},
    ),
    (
        ["theory", "--formula", "K", "--x-grid", "0.6,1,2,4"],
        {"theory_K.csv": "2d14b0870601b4274355f0df8dd92cd2799e93e635c6b13064e68958e7d1ce36"},
    ),
    (
        ["theory", "--formula", "thm2", "--x-grid", "0.6,1,2"],
        {"theory_thm2.csv": "479886146ffbf114f2d0ecc44eab80044f9729bbbdb1753bee74418ac7675bf3"},
    ),
    (
        ["theory", "--formula", "P", "--i-range", "1:5"],
        {"theory_P.csv": "0578994d6581cb9fed676fdb1ff1063c3bb81ecdca661835772275fbf8c00246"},
    ),
    (
        ["theory", "--formula", "Q", "--i-range", "1:5"],
        {"theory_Q.csv": "5b097ac776a4ac10d6a61d7eaeea036410db705acb7f095dc8f13f792130af6b"},
    ),
    (
        ["theory", "--formula", "exact-sbar", "--i-range", "1:5"],
        {"theory_exact_sbar.csv": "7594f293e626f2fd383b239a78bf55d655b9071e183cde3310d0f29e6ac3dc76"},
    ),
    (
        ["theory", "--formula", "exact-sbar-window", "--x-grid", "0.6,1,2"],
        {"theory_exact_sbar_window.csv": "fbda8805a5909674f5efbea43bb04d036815de5281a307aa70e2c1294d443b7e"},
    ),
    (
        ["theory", "--formula", "anc-one"],
        {"theory_anc_one.csv": "0beab41baacea4a803d421878e5ab04030daec361bf55efc54e0b109b1c72280"},
    ),
    (
        ["theory", "--formula", "clone-sfs", "--i-range", "1:10"],
        {"theory_clone_sfs.csv": "3313c21c38ef0c80538bc759108d8e192cca00a5eac5718d2a63cb6ffde43bce"},
    ),
    (
        ["theory", "--formula", "gn", "--i-range", "1:10"],
        {"theory_gn.csv": "a783e51832b6f10ce2cbb2fb1cbd0ce6854d58d85f791f56192c0b1f8857eec3"},
    ),
    (
        ["theory", "--formula", "tilde-gn", "--i-range", "1:10"],
        {"theory_tilde_gn.csv": "6feaafe9f704dc5a4908d62650d937db8bb712ef25c75d10e4d31045541ef5a4"},
    ),
    (
        ["gw", "--samples", "2000"],
        {"gw_pmf.csv": "a3c941a8570a40475b2da89aa11209088dbfec2b1c544b8b0c2d5e7a8f8fc33c"},
    ),
    (
        ["gw", "--condition", "at-least-one-mark", "--samples", "2000"],
        {"gw_pmf.csv": "fe34088e56e67aeb0b418f3558ee7542aaa3a4ef22c94f5265ced5eed80c65a7"},
    ),
    (
        ["figures", "--which", "fig2", "--samples", "2000"],
        {
            "fig2_gn.csv": "b077dbc5a6ae9519f29289e744faccde2bbb29773c3af8dcc5b5e0c1368feda4",
            "fig2_tn.csv": "b6926f28cc062fcb47cb2a5d3630a6afffaa951f92a338436c31921c552f0757",
        },
    ),
    (
        ["figures", "--which", "fig3", "--workers", "1"],
        {"fig3.csv": "c9e34a692c36a07b4c3ed09b5b703a6cbc0f6085c40d3d1a29de158a914eab1b"},
    ),
    (
        ["figures", "--which", "fig4", "--workers", "1"],
        {"fig4.csv": "5ae651d9ac3c57239ec83d51b283d4560f387b41436180a2ea42c9442bdcb954"},
    ),
    (
        ["figures", "--which", "fig5", "--workers", "1"],
        {"fig5.csv": "30876587aebae60f8edd74d12985dfb1e8f390dd9ed7d550f02ca0bd76a436ab"},
    ),
    (
        ["figures", "--which", "fig7"],
        {"fig7.csv": "784ce426ab2f4b8fd022c673dd9b7fbfefc92492cf0900d3bf2ce15cdb98ad6b"},
    ),
    (
        ["compare", "--what", "small-i", "--i-max", "5", "--workers", "1"],
        {
            "report.csv": "cdb87e9b33957bf66f0fa068ce0b1dc9f0a28b03dfb24516c3ddac989e9bcdd6",
            "report.json": "3379295ed6f10406c594c826ecdff5e44c507f2222d3caded04a448dba4f4060",
        },
    ),
    (
        ["compare", "--what", "windows", "--windows", "0.5,1", "--workers", "1"],
        {
            "report.csv": "da307c2f030eb6e57b00bc02478ab2cdeab5f427cd7986bb19ab51ca06a76d72",
            "report.json": "da5b6c82d95a205739a479e49862541e3048d8e70f93219d3b120d700b1c715a",
        },
    ),
    (
        ["compare", "--what", "windows", "--windows", "0.5,1", "--mode", "relative"]
        + ["--threshold", "1", "--workers", "1"],
        {
            "report.csv": "3993e0a49bd64662f0afd101a750b5d70f8a8a8ba89cb18593cb23a426139256",
            "report.json": "6859f0c9979b9d09512d1cee93ee34824838bc3796b786f213e486da3c572ebe",
        },
    ),
]



def test_missing_key_cites_it(tmp_path, capsys):
    path = tmp_path / "broken.cfg"
    path.write_text("\n".join(l for l in REF_CFG.splitlines() if not l.startswith("b0")))
    rc = cli.main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "b0" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, b"b0 = 1.2\xff\n"], ids=["missing", "not-utf8"])
def test_unreadable_config_exits_2(tmp_path, capsys, content):
    path = tmp_path / "run.cfg"
    if content is not None:
        path.write_bytes(content)
    argv = ["theory", "--formula", "anc-one", "--config", str(path)]
    rc = cli.main(argv + ["--out-dir", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(path) in err
    assert not (tmp_path / "o").exists()


def test_simulate_outputs_and_digest_stability(cfg_path, tmp_path):
    out1 = str(tmp_path / "run1")
    out2 = str(tmp_path / "run2")
    assert cli.main(["simulate", "--config", cfg_path, "--out-dir", out1]) == 0
    assert cli.main(["simulate", "--config", cfg_path, "--out-dir", out2]) == 0
    m1, m2 = _manifest(out1), _manifest(out2)
    d1 = {os.path.basename(o["path"]): o["sha256"] for o in m1["outputs"]}
    d2 = {os.path.basename(o["path"]): o["sha256"] for o in m2["outputs"]}
    assert d1 == d2
    assert set(d1) == {"per_replicate.csv", "aggregate.csv", "config_resolved.json"}
    rows = _read_csv(os.path.join(out1, "aggregate.csv"))
    assert rows[0] == ["i", "mean_S", "mean_Sbar", "mean_Sunder", "ci_lo", "ci_hi", "replicates"]
    assert len(rows) == 131  # default i_max = 130
    per = _read_csv(os.path.join(out1, "per_replicate.csv"))
    assert per[0] == ["replicate", "i", "s", "sbar", "sunder"]
    # seed changes content
    out3 = str(tmp_path / "run3")
    assert cli.main(["simulate", "--config", cfg_path, "--out-dir", out3, "--seed", "1"]) == 0
    d3 = {os.path.basename(o["path"]): o["sha256"] for o in _manifest(out3)["outputs"]}
    assert d3["aggregate.csv"] != d1["aggregate.csv"]


def test_simulate_omega_zero_override(cfg_path, tmp_path):
    out = str(tmp_path / "out")
    assert cli.main(["simulate", "--config", cfg_path, "--out-dir", out, "--omega", "0"]) == 0
    rows = _read_csv(os.path.join(out, "aggregate.csv"))[1:]
    assert all(float(r[1]) == 0.0 and float(r[2]) == 0.0 and float(r[3]) == 0.0 for r in rows)


def test_simulate_windows_output(cfg_path, tmp_path):
    out = str(tmp_path / "out")
    assert (
        cli.main(
            ["simulate", "--config", cfg_path, "--out-dir", out, "--windows", "0.5,2", "--i-max", "10"]
        )
        == 0
    )
    rows = _read_csv(os.path.join(out, "windows.csv"))
    assert rows[0][0] == "x" and len(rows) == 3


def test_simulate_refuses_omega_above_its_bound_at_once(cfg_path, tmp_path, capsys):
    # omega = 2e6 once spent half a second on one table of mutation counts
    # and then simulated a million mutations per cell
    out = tmp_path / "o"
    started = time.perf_counter()
    rc = cli.main(["simulate", "--config", cfg_path, "--omega", "2e6", "--out-dir", str(out)])
    assert rc == 2 and time.perf_counter() - started < 1.0
    assert capsys.readouterr().err.startswith("config error:")
    assert list(out.iterdir()) == []
    # the theory at that omega still runs
    argv = ["theory", "--config", cfg_path, "--omega", "2e6", "--formula", "thm1", "--i-range", "1:3"]
    assert cli.main(argv + ["--out-dir", str(tmp_path / "t")]) == 0


@pytest.mark.parametrize("windows, rc", [([], 0), (["--windows", "1"], 2)], ids=["no-windows", "windows"])
def test_simulate_at_a_long_observation_time(cfg_path, tmp_path, capsys, windows, rc):
    # e^(lambda1 t_obs) passes the float range at t_obs = 2000: it once
    # raised OverflowError with or without windows; without, the run needs
    # no such scale, and with, the window edge is refused before any
    # replicate runs
    out = tmp_path / "o"
    argv = ["simulate", "--config", cfg_path, "--gamma", "0", "--t-mode", "absolute", "--t-abs", "2000"]
    argv += ["--replicates", "2", "--workers", "1", "--out-dir", str(out)]
    assert cli.main(argv + windows) == rc
    err = capsys.readouterr().err
    if rc:
        assert err.startswith("config error: window edge 1 e^(lambda1 t_obs) passes the float range")
        assert list(out.iterdir()) == []
    else:
        assert err == "" and (out / "aggregate.csv").exists()


def test_simulate_golden_digests(cfg_path, tmp_path):
    out = str(tmp_path / "out")
    argv = ["simulate", "--config", cfg_path, "--out-dir", out, "--windows", "0.5,2", "--i-max", "10"]
    assert cli.main(argv) == 0
    assert _digests(out) == SIMULATE_DIGESTS


@pytest.mark.parametrize(
    "argv, digests", GOLDEN_DIGESTS, ids=["-".join(a[:3]) for a, _ in GOLDEN_DIGESTS]
)
def test_golden_digests(cfg_path, tmp_path, argv, digests):
    out = str(tmp_path / "out")
    # every pinned gate passes: at 25 replicates the small-i gate (|z| <= 3
    # on heavy-tailed counts) fails on about 5% of master seeds, and seed
    # 4242 is not one of them (test_compare_gate_exit_codes forces a failure)
    assert cli.main(argv[:1] + ["--config", cfg_path, "--out-dir", out] + argv[1:]) == 0
    assert _digests(out) == digests


def test_simulate_matches_replicate_sfs_for_any_worker_count(cfg_path, tmp_path):
    # 300 replicates make two chunks, so --workers 2 runs a process pool
    argv = ["simulate", "--config", cfg_path, "--replicates", "300", "--windows", "0.5,2"]
    argv += ["--i-max", "10"]
    out1, out2 = str(tmp_path / "w1"), str(tmp_path / "w2")
    assert cli.main(argv + ["--out-dir", out1, "--workers", "1"]) == 0
    assert cli.main(argv + ["--out-dir", out2, "--workers", "2"]) == 0
    assert _digests(out1) == _digests(out2)
    cfg = load_config(cfg_path)
    t_obs = observation_time(cfg.observation, cfg.params)
    agg = montecarlo.replicate_sfs(
        cfg.params, t_obs, 300, cfg.seed, i_max=10, windows=(0.5, 2.0)
    )
    rows = _read_csv(os.path.join(out1, "aggregate.csv"))[1:]
    for col, kind in ((1, "s"), (2, "sbar"), (3, "sunder")):
        assert [float(r[col]) for r in rows] == agg.stats(kind).mean.tolist()
    wrows = _read_csv(os.path.join(out1, "windows.csv"))[1:]
    for col, kind in ((1, "s"), (2, "sbar"), (3, "sunder")):
        assert [float(r[col]) for r in wrows] == agg.window_stats(kind).mean.tolist()


def test_flags_only_on_commands_that_read_them(cfg_path):
    parser = cli.build_parser()
    for command, flag in (
        ("simulate", "--tol"),
        ("gw", "--tol"),
        ("figures", "--tol"),
        ("theory", "--workers"),
        ("gw", "--workers"),
    ):
        argv = [command, "--config", cfg_path, flag, "1"]
        if command == "figures":
            argv += ["--which", "fig7"]
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
    assert parser.parse_args(["compare", "--config", cfg_path, "--tol", "1e-8", "--workers", "1"])


def test_theory_curve_rows(cfg_path, tmp_path):
    out = str(tmp_path / "out")
    assert (
        cli.main(
            ["theory", "--config", cfg_path, "--formula", "I", "--i-range", "1:20", "--out-dir", out]
        )
        == 0
    )
    rows = _read_csv(os.path.join(out, "theory_I.csv"))
    assert rows[0] == ["index_or_x", "exact", "asymptotic", "error_bound", "formula_id"]
    assert len(rows) == 21
    assert float(rows[1][1]) == pytest.approx(0.588972, abs=1e-5)


def test_theory_unknown_formula(cfg_path, tmp_path, capsys):
    rc = cli.main(
        ["theory", "--config", cfg_path, "--formula", "Z", "--out-dir", str(tmp_path / "o")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown formula id" in err and "thm2" in err


def test_theory_empty_range_errors(cfg_path, tmp_path, capsys):
    rc = cli.main(
        [
            "theory",
            "--config",
            cfg_path,
            "--formula",
            "I",
            "--i-range",
            "5:1",
            "--out-dir",
            str(tmp_path / "o"),
        ]
    )
    assert rc == 2
    rc = cli.main(
        ["theory", "--config", cfg_path, "--formula", "I", "--out-dir", str(tmp_path / "o")]
    )
    assert rc == 2  # missing range entirely


def test_theory_failure_removes_partial_outputs(cfg_path, tmp_path):
    out = str(tmp_path / "o")
    cli.main(["theory", "--config", cfg_path, "--formula", "I", "--i-range", "1:5", "--out-dir", out])
    assert os.path.exists(os.path.join(out, "theory_I.csv"))
    rc = cli.main(["theory", "--config", cfg_path, "--formula", "thm2", "--x-grid", "1", "--out-dir", out])
    assert rc == 2
    assert not os.path.exists(os.path.join(out, "theory_thm2.csv"))


def test_gw_table(cfg_path, tmp_path):
    out = str(tmp_path / "o")
    assert (
        cli.main(
            [
                "gw",
                "--config",
                cfg_path,
                "--p",
                "0.266667",
                "--beta",
                "0.272727",
                "--root-excluded",
                "--samples",
                "2000",
                "--out-dir",
                out,
            ]
        )
        == 0
    )
    rows = _read_csv(os.path.join(out, "gw_pmf.csv"))
    assert rows[0] == ["g", "pmf_theory", "pmf_empirical", "count"]
    assert float(rows[1][1]) == pytest.approx(0.656591, abs=1e-5)
    counts = [int(r[3]) for r in rows[1:]]
    assert sum(counts) <= 2000 and counts[0] > 1000


def test_gw_any_mark_at_p_zero(cfg_path, tmp_path):
    # p = pt = 0: only the single-node tree, so generation 1 with probability 1
    out = str(tmp_path / "o")
    argv = ["gw", "--config", cfg_path, "--p", "0", "--condition", "at-least-one-mark"]
    assert cli.main(argv + ["--samples", "10", "--out-dir", out]) == 0
    rows = _read_csv(os.path.join(out, "gw_pmf.csv"))[1:]
    assert [float(r[1]) for r in rows] == [1.0] + [0.0] * (len(rows) - 1)
    assert rows[0][3] == "10"


def test_gw_refuses_at_least_one_mark_with_root_excluded(cfg_path, tmp_path, capsys):
    # any_mark_pmf is the law of root-included trees: at p = 0.375, beta =
    # 0.2 the root-excluded table once read 0.375 in theory at g = 1 against
    # 0.366 sampled, about z = -6
    out = tmp_path / "o"
    argv = ["gw", "--config", cfg_path, "--p", "0.375", "--beta", "0.2", "--root-excluded"]
    rc = cli.main(argv + ["--condition", "at-least-one-mark", "--samples", "10", "--out-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "at-least-one-mark with --root-excluded" in err
    assert not out.exists() or list(out.iterdir()) == []
    # exactly one mark with the root excluded still runs
    assert cli.main(argv + ["--samples", "10", "--out-dir", str(out)]) == 0
    assert (out / "gw_pmf.csv").exists()


def test_theory_tilde_gn_at_gamma_zero(cfg_path, tmp_path):
    # beta_n = 0: the beta -> 0 limit (2p)^(g-1) (1-2p) at p = 0.375
    out = str(tmp_path / "o")
    argv = ["theory", "--config", cfg_path, "--gamma", "0", "--formula", "tilde-gn"]
    assert cli.main(argv + ["--i-range", "1:3", "--out-dir", out]) == 0
    rows = _read_csv(os.path.join(out, "theory_tilde_gn.csv"))[1:]
    assert [float(r[1]) for r in rows] == pytest.approx([0.25, 0.1875, 0.140625], rel=1e-14)


def test_theory_q_at_n_1(cfg_path, tmp_path):
    # t_N = 0 at N = 1: the sensitive-origin integrals are 0, not a crash
    out = str(tmp_path / "o")
    argv = ["theory", "--config", cfg_path, "--formula", "Q", "--i-range", "1:3"]
    assert cli.main(argv + ["--n-init", "1", "--gamma", "0.5", "--out-dir", out]) == 0
    rows = _read_csv(os.path.join(out, "theory_Q.csv"))[1:]
    assert [float(r[1]) for r in rows] == [0.0, 0.0, 0.0]


def test_theory_x_grid_takes_inf(cfg_path, tmp_path):
    # the grid rejects nan, but x = inf is the complete shape integral for hi,
    # a zero density for tn and an empty window for the window weights
    zero = lambda row: 0.0  # noqa: E731
    cases = [("hi", lambda row: float(row[2])), ("tn", zero)] + [(f, zero) for f in ("K", "L", "Kslope")]
    for formula, expected in cases:
        out = str(tmp_path / formula)
        argv = ["theory", "--config", cfg_path, "--formula", formula, "--x-grid", "inf"]
        assert cli.main(argv + ["--out-dir", out]) == 0
        (row,) = _read_csv(os.path.join(out, f"theory_{formula}.csv"))[1:]
        assert float(row[1]) == expected(row)


@pytest.mark.parametrize("formula", ["K", "Kslope"])
def test_theory_window_weights_near_critical(cfg_path, tmp_path, formula):
    # at d1/b1 = 0.999 the weights are about 1e6, beyond an absolute 1e-10 in
    # doubles: each row holds its bound to 1e-8 of the value instead
    out = str(tmp_path / formula)
    argv = ["theory", "--config", cfg_path, "--d1", "1.1988", "--formula", formula]
    assert cli.main(argv + ["--x-grid", "0.6,1", "--out-dir", out]) == 0
    rows = _read_csv(os.path.join(out, f"theory_{formula}.csv"))
    assert rows[0][:4] == ["index_or_x", "exact", "asymptotic", "error_bound"]
    assert len(rows) == 3
    for row in rows[1:]:
        assert float(row[3]) <= 1e-8 * float(row[1]), row


def test_import_path_loads_numpy_only(cfg_path, tmp_path):
    # scipy takes about 0.75 s and 50 MB to import on top of numpy, numpy.random
    # about 6 MB, and the process pool about 33 ms: neither the imports, a
    # single-worker simulation, nor the theory quadratures (theory integrates
    # with its own Gauss-Kronrod rule) load them
    code = f"""
import sys
import rescue_sfs, rescue_sfs.cli, rescue_sfs.gw_trees, rescue_sfs.montecarlo, rescue_sfs.theory
from rescue_sfs import cli, montecarlo, theory
from rescue_sfs.params import derive, load_config, observation_time

def loaded():
    return sorted(
        k for k in sys.modules
        if k == "scipy" or k.startswith("scipy.")
        or k in ("numpy.random", "concurrent.futures.process")
    )

print(loaded())
cfg = load_config({cfg_path!r})
t_obs = observation_time(cfg.observation, cfg.params)
montecarlo.replicate_sfs(cfg.params, t_obs, 20, seed=1, initial=(0, 1), workers=1)
print(loaded())
argv = ["simulate", "--config", {cfg_path!r}, "--out-dir", {str(tmp_path / "o")!r}]
print(cli.main(argv + ["--workers", "1"]), loaded())
print(theory.resistant_origin_mean_exact(1, 1.25, cfg.params).value > 0, loaded())
print(theory.window_weight_resistant(1.0, derive(cfg.params)).value > 0, loaded())
for formula, grid in (("P", ["--i-range", "1:2"]), ("K", ["--x-grid", "0.6,1"])):
    argv = ["theory", "--config", {cfg_path!r}, "--formula", formula] + grid
    print(cli.main(argv + ["--out-dir", {str(tmp_path / "t")!r} + formula]), loaded())
argv = ["compare", "--config", {cfg_path!r}, "--what", "windows", "--windows", "0.5,1"]
print(cli.main(argv + ["--workers", "1", "--out-dir", {str(tmp_path / "c")!r}]), loaded())
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == [
        "[]",
        "[]",
        "0 []",
        "True []",
        "True []",
        "0 []",
        "0 []",
        "gate passed: all 2 indices within threshold",
        "0 []",
    ]


def test_runtime_needs_no_scipy(cfg_path, tmp_path):
    # scipy is a test-only dependency: no package module imports it, and every
    # command runs in an interpreter where importing it fails
    src = os.path.dirname(cli.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read())
            imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
            imported += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module]
            assert not [m for m in imported if m.split(".")[0] == "scipy"], name
    code = f"""
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{{name}} is not installed")

sys.meta_path.insert(0, NoScipy())
from rescue_sfs import cli

runs = [["simulate", "--windows", "0.5,2", "--workers", "1"]]
runs += [["theory", "--formula", "P", "--i-range", "1:2"]]
runs += [["theory", "--formula", f, "--x-grid", "0.6,1"] for f in ("K", "L", "Kslope")]
runs += [["gw", "--samples", "200"]]
runs += [["compare", "--what", "windows", "--windows", "0.5,1", "--workers", "1"]]
runs += [["figures", "--which", "fig7"]]
for k, argv in enumerate(runs):
    out = ["--config", {cfg_path!r}, "--out-dir", {str(tmp_path)!r} + f"/{{k}}"]
    print(argv[0], cli.main(argv + out))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes = [line for line in proc.stdout.splitlines() if not line.startswith("gate ")]
    assert codes == [
        "simulate 0",
        "theory 0",
        "theory 0",
        "theory 0",
        "theory 0",
        "gw 0",
        "compare 0",
        "figures 0",
    ]


def test_theory_and_trees_run_without_numpy(cfg_path, tmp_path):
    # numpy costs about 150 ms of a cold theory command: the package, the
    # theory and tree layers and these commands run where importing it fails
    code = f"""
import sys

class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            raise ImportError(f"{{name}} is not installed")

sys.meta_path.insert(0, NoNumpy())
import rescue_sfs, rescue_sfs.cli, rescue_sfs.theory, rescue_sfs.gw_trees
import rescue_sfs.params, rescue_sfs.simulator
from rescue_sfs import cli

index = {{"i": ["--i-range", "1:3"], "x": ["--x-grid", "1,2"], "windows": ["--x-grid", "0.6,1"]}}
runs = [["theory", "--formula", f] + index.get(kind, []) for f, (kind, _) in cli._FORMULAS.items()]
runs += [["gw", "--samples", "200", "--condition", c] for c in ("exactly-one-mark", "at-least-one-mark")]
runs += [["figures", "--which", "fig7"]]
for k, argv in enumerate(runs):
    out = ["--config", {cfg_path!r}, "--out-dir", {str(tmp_path)!r} + f"/{{k}}"]
    print(argv[0], argv[2], cli.main(argv + out))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes = proc.stdout.splitlines()
    assert codes == [f"theory {f} 0" for f in cli.FORMULA_IDS] + [
        "gw 200 0",
        "gw 200 0",
        "figures fig7 0",
    ]
    # the Monte Carlo names of the package still resolve, numpy loading with them
    code = """
import sys
import rescue_sfs
print("numpy" in sys.modules)
from rescue_sfs import compare, replicate_sfs
print(compare.__module__, replicate_sfs.__module__, "numpy" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == [
        "False",
        "rescue_sfs.montecarlo rescue_sfs.montecarlo True",
    ]


def test_theory_import_loads_params_and_theory_only():
    # the package's root once imported gw_trees and simulator only to
    # re-export their names; they now load on first access
    code = """
import sys
import rescue_sfs.theory
print(sorted(k for k in sys.modules if k == "numpy" or k.startswith("rescue_sfs")))
from rescue_sfs import GwLaw, SfsRecord
print(GwLaw.__module__, SfsRecord.__module__, "numpy" in sys.modules)
import rescue_sfs
print([name for name in ("run", "extract_sfs", "window_counts", "SimOutcome") if hasattr(rescue_sfs, name)])
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == [
        "['rescue_sfs', 'rescue_sfs.params', 'rescue_sfs.theory']",
        "rescue_sfs.gw_trees rescue_sfs.simulator False",
        # the root serves no simulation helper: they stay in rescue_sfs.simulator
        "[]",
    ]


def test_compare_gate_exit_codes(cfg_path, tmp_path):
    rc = cli.main(
        [
            "compare",
            "--config",
            cfg_path,
            "--what",
            "small-i",
            "--i-max",
            "3",
            "--replicates",
            "120",
            "--out-dir",
            str(tmp_path / "pass"),
        ]
    )
    assert rc == 0
    with open(tmp_path / "pass" / "report.json") as fh:
        report = json.load(fh)
    assert report["all_passed"] is True
    assert len(report["rows"]) == 3
    rc = cli.main(
        [
            "compare",
            "--config",
            cfg_path,
            "--what",
            "small-i",
            "--i-max",
            "3",
            "--replicates",
            "120",
            "--threshold",
            "1e-6",
            "--out-dir",
            str(tmp_path / "fail"),
        ]
    )
    assert rc == 1


@pytest.mark.parametrize(
    "gate, table",
    [
        (["--what", "small-i", "--i-max", "4"], ["--formula", "exact-sbar", "--i-range", "1:4"]),
        (["--what", "windows", "--windows", "0.5,1"], ["--formula", "exact-sbar-window", "--x-grid", "0.5,1"]),
    ],
    ids=["small-i", "windows"],
)
def test_compare_theory_is_the_formula_table_row(cfg_path, tmp_path, gate, table):
    # compare's z-score gate reads its theory column from the same formula
    # row that `theory` prints, bit for bit
    common = ["--config", cfg_path, "--out-dir"]
    assert cli.main(["compare"] + common + [str(tmp_path / "c"), "--workers", "1"] + gate) == 0
    assert cli.main(["theory"] + common + [str(tmp_path / "t")] + table) == 0
    report = _read_csv(os.path.join(tmp_path, "c", "report.csv"))
    rows = _read_csv(os.path.join(tmp_path, "t", f"theory_{table[1].replace('-', '_')}.csv"))
    assert report[0][3] == "theory" and rows[0][1] == "exact"
    assert [float(r[0]) for r in report[1:]] == [float(r[0]) for r in rows[1:]]
    assert [float(r[3]) for r in report[1:]] == [float(r[1]) for r in rows[1:]]
    assert {r[2] for r in rows[1:]} == {""}  # no asymptote is computed


def test_compare_warns_below_z_gate_minimum(cfg_path, tmp_path, capsys):
    # REF_CFG's 25 replicates: the z-score gate warns once, naming the
    # count, and exits as before (the gate passes, see test_golden_digests)
    argv = ["compare", "--config", cfg_path, "--what", "small-i", "--i-max", "5"]
    assert cli.main(argv + ["--workers", "1", "--out-dir", str(tmp_path / "z")]) == 0
    err = capsys.readouterr().err
    assert err.count("warning:") == 1 and "25 replicates" in err
    # the relative gate reads no SEM
    argv = ["compare", "--config", cfg_path, "--what", "windows", "--windows", "0.5,1"]
    argv += ["--mode", "relative", "--threshold", "1", "--workers", "1"]
    assert cli.main(argv + ["--out-dir", str(tmp_path / "r")]) == 0
    assert "warning:" not in capsys.readouterr().err
    # 200 replicates are enough
    argv = ["compare", "--config", cfg_path, "--what", "small-i", "--i-max", "3"]
    argv += ["--replicates", "200", "--workers", "1", "--out-dir", str(tmp_path / "n")]
    cli.main(argv)
    assert "warning:" not in capsys.readouterr().err


def _reject_constant(name):
    raise ValueError(f"report.json holds {name}, which is not JSON")


def test_compare_report_is_strict_json(tmp_path, capsys):
    # windows far above the clone sizes at N=500: every replicate counts 0,
    # so the SEM is 0 and the z-score is infinite
    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "reference.cfg")
    out = str(tmp_path / "o")
    argv = ["compare", "--config", cfg, "--what", "windows", "--windows", "40,80"]
    rc = cli.main(argv + ["--replicates", "20", "--workers", "1", "--out-dir", out])
    assert rc == 1
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh, parse_constant=_reject_constant)
    assert [r["empirical_sem"] for r in report["rows"]] == [0.0, 0.0]
    assert [r["z"] for r in report["rows"]] == [None, None]
    err = capsys.readouterr().err
    assert "gate FAILED" in err and "SEM is 0 at index 40, 80" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--d0", "0.5"],
        ["simulate", "--t-mode", "bogus"],
        ["gw", "--gamma", "1", "--n-init", "1"],
        ["theory", "--formula", "I", "--i-range", "0:3"],
        ["theory", "--formula", "hi", "--x-grid", "0.6", "--i", "3"],
        ["theory", "--formula", "kappa", "--i-range", "1:3", "--u", "-1"],
        ["simulate", "--gamma", "1", "--n-init", "1"],
        ["theory", "--formula", "P", "--i-range", "1:2", "--t-mult", "400"],
        ["compare", "--what", "small-i", "--t-mult", "300", "--alpha", "1", "--gamma", "0.001"],
        ["figures", "--which", "fig3", "--t-mult", "300", "--alpha", "1", "--gamma", "0.001"],
        ["simulate", "--replicates", "1"],
        ["simulate", "--seed", "-1"],
        ["simulate", "--windows", "0,1"],
        ["compare", "--what", "windows", "--windows", "0,1"],
        ["gw", "--samples", "0"],
        ["figures", "--which", "fig2", "--samples", "0"],
        ["simulate", "--i-max", "-1"],
        ["simulate", "--i-max", "0"],
        ["compare", "--i-max", "0"],
        ["compare", "--threshold", "nan"],
        ["compare", "--threshold", "inf"],
        ["gw", "--g-max", "-1"],
        ["gw", "--p", "0.6"],
        ["gw", "--beta", "0"],
        ["theory", "--formula", "P", "--i-range", "1:2", "--tol", "nan"],
        ["theory", "--formula", "P", "--i-range", "1:2", "--tol", "0"],
        ["compare", "--tol", "-1"],
        ["gw", "--p", "0", "--root-excluded"],
        ["theory", "--formula", "hi", "--x-grid", "2", "--i", "0"],
        ["simulate", "--workers", "0"],
        ["compare", "--workers", "-5"],
        ["simulate", "--windows", "inf"],
        ["simulate", "--windows", "1,nan"],
        ["theory", "--formula", "K", "--x-grid", "nan"],
        ["simulate", "--t-mult", "inf"],
        ["simulate", "--t-mult", "1e308"],
        ["simulate", "--t-mode", "absolute", "--t-abs", "inf"],
        ["theory", "--formula", "K", "--x-grid", "0.6,one"],
        ["theory", "--formula", "K", "--x-grid", ","],
        ["theory", "--formula", "I", "--i-range", "1-3"],
        ["theory", "--formula", "K"],
    ],
    ids=[
        "d0-below-b0",
        "unknown-t-mode",
        "gamma-n-one",
        "i-range-from-0",
        "hi-x-below-1",
        "kappa-negative-u",
        "simulate-gamma-n-one",
        "theory-overflow",
        "compare-theory-overflow",
        "fig3-theory-overflow",
        "one-replicate",
        "negative-seed",
        "simulate-window-at-0",
        "compare-window-at-0",
        "gw-no-samples",
        "fig2-no-samples",
        "simulate-i-max-negative",
        "simulate-i-max-0",
        "compare-i-max-0",
        "compare-threshold-nan",
        "compare-threshold-inf",
        "gw-g-max-negative",
        "gw-p-supercritical",
        "gw-beta-0",
        "theory-tol-nan",
        "theory-tol-0",
        "compare-tol-negative",
        "gw-p-0-root-excluded",
        "hi-i-0",
        "simulate-workers-0",
        "compare-workers-negative",
        "simulate-window-inf",
        "simulate-window-nan",
        "K-x-nan",
        "t-mult-inf",
        "t-mult-overflow",
        "t-abs-inf",
        "x-grid-not-a-number",
        "x-grid-empty",
        "i-range-malformed",
        "K-no-x-grid",
    ],
)
def test_bad_flag_values_exit_2(cfg_path, tmp_path, capsys, argv):
    rc = cli.main(argv[:1] + ["--config", cfg_path, "--out-dir", str(tmp_path / "o")] + argv[1:])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_cap_hit_exits_2_naming_replicate_and_seed(cfg_path, tmp_path, capsys, monkeypatch):
    def capped(*args, **kwargs):
        raise simulator.PopulationCapError("genealogy exceeded max_cells=5000000", replicate=0)

    monkeypatch.setattr(simulator, "sample_chunk", capped)
    out = tmp_path / "o"
    argv = ["compare", "--config", cfg_path, "--out-dir", str(out), "--workers", "1"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    seed = montecarlo.seed_for_replicate(4242, 0)
    key = Random(seed).getrandbits(64)
    assert err == (
        f"config error: replicate 0 (seed_for_replicate(4242, 0) = {seed}), key {key}: "
        "genealogy exceeded max_cells=5000000\n"
    )
    assert not os.path.exists(out / "report.json")


def test_rejection_limit_exits_2(cfg_path, tmp_path, capsys, monkeypatch):
    # the second case: near-critical trees outgrow max_nodes (gw at p =
    # 0.49999, beta = 0.5 once exited 1 with a TreeSizeError traceback)
    errors = [
        gw_trees.RejectionLimitError("no accepted tree in 1000000 attempts"),
        gw_trees.TreeSizeError("tree exceeded max_nodes=1000000"),
    ]
    for k, error in enumerate(errors):

        def starved(*args, **kwargs):
            raise error

        monkeypatch.setattr(gw_trees, "sample_conditioned", starved)
        out = tmp_path / f"o{k}"
        assert cli.main(["gw", "--config", cfg_path, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {error}\n"
        assert not os.path.exists(out / "gw_pmf.csv")


def test_unreachable_quadrature_exits_2(tmp_path, capsys, monkeypatch):
    # a quadrature whose error estimate cannot meet the tolerance (here every
    # estimate is 1) is a config error; the theory runs before any
    # replicate, so this fails at once
    monkeypatch.setattr(theory, "_gauss_kronrod", lambda f, a, b, epsabs, epsrel: (1.0, 1.0))
    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "reference.cfg")
    out = tmp_path / "o"
    argv = ["compare", "--config", cfg, "--out-dir", str(out)]
    argv += ["--what", "windows", "--windows", "0.6", "--workers", "1"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: window theory: requested tol") and "achieved" in err
    assert os.listdir(out) == []


def test_window_theory_at_large_n_is_certified(tmp_path):
    # the window edge is m = 1.9e10 here; the window count's rounding bound
    # once grew with m (3.4e-4, a config error), and now stays near u
    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "reference.cfg")
    out = str(tmp_path / "o")
    argv = ["theory", "--config", cfg, "--out-dir", out, "--formula", "exact-sbar-window"]
    assert cli.main(argv + ["--x-grid", "0.6", "--n-init", "100000", "--t-mult", "3"]) == 0
    (row,) = _read_csv(os.path.join(out, "theory_exact_sbar_window.csv"))[1:]
    assert 0 < float(row[3]) <= 1e-8 * float(row[1])


@pytest.mark.parametrize(
    "edit, flags",
    [(("d0 = 2.0", "d0 = 0.5"), ["--d0", "2.0"]), (("b0 = 1.2\n", ""), ["--b0", "1.2"])],
    ids=["invalid-value", "missing-key"],
)
def test_flags_and_file_are_validated_together(cfg_path, tmp_path, capsys, edit, flags):
    # a file that is invalid on its own runs once a flag mends it, with the
    # config and outputs of the whole file
    path = tmp_path / "edited.cfg"
    path.write_text(REF_CFG.replace(*edit))
    argv = ["theory", "--formula", "anc-one"]
    rc = cli.main(argv + ["--config", str(path), "--out-dir", str(tmp_path / "o")] + flags)
    assert rc == 0
    assert cli.main(argv + ["--config", cfg_path, "--out-dir", str(tmp_path / "ref")]) == 0
    assert _digests(tmp_path / "o") == _digests(tmp_path / "ref")
    assert _manifest(tmp_path / "o")["config"] == _manifest(tmp_path / "ref")["config"]
    # unmended, the merged value is reported without the file's name: it may
    # have come from a flag
    assert cli.main(argv + ["--config", str(path), "--out-dir", str(tmp_path / "bad")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(path) not in err


# one flag per config key
_CONFIG_FLAGS = set(
    "--b0 --d0 --b1 --d1 --omega --gamma --alpha --n-init --mutation-law --t-mode --t-mult "
    "--t-abs --replicates --seed".split()
)
_COMMON_OPTIONS = _CONFIG_FLAGS | {"-h", "--help", "--config", "--out-dir"}

COMMAND_OPTIONS = {
    "simulate": _COMMON_OPTIONS | {"--i-max", "--windows", "--workers"},
    "theory": _COMMON_OPTIONS | {"--formula", "--i-range", "--x-grid", "--i", "--u", "--tol"},
    "gw": _COMMON_OPTIONS
    | {"--p", "--beta", "--condition", "--root-excluded", "--samples", "--g-max"},
    "compare": _COMMON_OPTIONS
    | {"--what", "--i-max", "--windows", "--mode", "--threshold", "--tol", "--workers"},
    "figures": _COMMON_OPTIONS | {"--which", "--samples", "--workers"},
}


def test_option_strings_pinned():
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {
        name: {o for a in p._actions for o in a.option_strings} for name, p in sub.choices.items()
    } == COMMAND_OPTIONS
    # each config flag parses to its key's type
    args = parser.parse_args(["gw", "--config", "c", "--n-init", "7", "--b0", "1", "--seed", "3"])
    assert (args.n_init, args.b0, args.seed) == (7, 1.0, 3)
    assert type(args.b0) is float


def test_single_cell_start(cfg_path, tmp_path, capsys):
    # ln N = 0 at n_init = 1: log-scaled t needs no division by it, absolute
    # t_abs / ln N is undefined
    one = ["--n-init", "1", "--gamma", "0.5"]
    for argv in (
        ["compare", "--i-max", "3", "--workers", "1"],
        ["figures", "--which", "fig3", "--workers", "1"],
        ["theory", "--formula", "P", "--i-range", "1:3"],
    ):
        out = str(tmp_path / argv[0])
        assert cli.main(argv[:1] + ["--config", cfg_path, "--out-dir", out] + argv[1:] + one) == 0
    capsys.readouterr()
    argv = ["theory", "--config", cfg_path, "--formula", "I", "--i-range", "1:3"]
    argv += ["--t-mode", "absolute", "--t-abs", "2", "--out-dir", str(tmp_path / "abs")]
    assert cli.main(argv + one) == 2
    assert "n_init > 1" in capsys.readouterr().err


def test_figures_fig7(cfg_path, tmp_path):
    out = str(tmp_path / "o")
    assert cli.main(["figures", "--config", cfg_path, "--which", "fig7", "--out-dir", out]) == 0
    rows = _read_csv(os.path.join(out, "fig7.csv"))
    assert rows[0] == ["b0", "lambda0", "x", "K", "L"]
    combos = {(r[0], r[1]) for r in rows[1:]}
    assert combos == {("1.2", "0.8"), ("1.2", "0.3"), ("2.2", "0.8"), ("2.2", "0.3")}
    xs = sorted({float(r[2]) for r in rows[1:]})
    assert xs[0] == 0.6 and xs[-1] == 6.0


def test_figures_fig2(cfg_path, tmp_path):
    out = str(tmp_path / "o")
    assert (
        cli.main(
            [
                "figures",
                "--config",
                cfg_path,
                "--which",
                "fig2",
                "--samples",
                "1500",
                "--out-dir",
                out,
            ]
        )
        == 0
    )
    gn = _read_csv(os.path.join(out, "fig2_gn.csv"))
    assert gn[0] == ["gamma_n", "g", "pmf_theory", "pmf_empirical", "count"]
    gammas = {r[0] for r in gn[1:]}
    assert gammas == {"0.2", "0.002"}
    tn = _read_csv(os.path.join(out, "fig2_tn.csv"))
    assert tn[0] == ["gamma_n", "t", "pdf_theory", "pdf_empirical", "count"]


def test_figures_fig4_fig5_fig6(cfg_path, tmp_path):
    for which, name, ncols in (("fig4", "fig4.csv", 5), ("fig5", "fig5.csv", 5), ("fig6", "fig6.csv", 5)):
        out = str(tmp_path / which)
        assert (
            cli.main(
                [
                    "figures",
                    "--config",
                    cfg_path,
                    "--which",
                    which,
                    "--replicates",
                    "12",
                    "--out-dir",
                    out,
                ]
            )
            == 0
        )
        rows = _read_csv(os.path.join(out, name))
        assert len(rows[0]) == ncols and len(rows) > 10


def test_figures_fig3(cfg_path, tmp_path):
    out = str(tmp_path / "o")
    assert (
        cli.main(
            [
                "figures",
                "--config",
                cfg_path,
                "--which",
                "fig3",
                "--replicates",
                "25",
                "--out-dir",
                out,
            ]
        )
        == 0
    )
    rows = _read_csv(os.path.join(out, "fig3.csv"))
    assert rows[0] == ["i", "mean_S", "mean_Sbar", "ci_halfwidth", "thm1", "replicates"]
    assert len(rows) == 122


def test_manifest_structure(cfg_path, tmp_path):
    out = str(tmp_path / "o")
    cli.main(["simulate", "--config", cfg_path, "--out-dir", out])
    m = _manifest(out)
    assert m["command"] == "simulate"
    assert m["seed"] == 4242
    assert m["version"]
    assert m["finished"] >= m["started"]
    assert m["config"]["params"]["b0"] == 1.2
    for entry in m["outputs"]:
        assert os.path.exists(entry["path"])
        assert len(entry["sha256"]) == 64
