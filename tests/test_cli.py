import argparse
import csv
import json
import os
import subprocess
import sys

import pytest

from rescue_sfs import cli, gw_trees, montecarlo, simulator
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


# pinned `simulate` outputs of REF_CFG with --windows 0.5,2 --i-max 10: one
# chunk of replicates, so they do not depend on how chunks are merged
SIMULATE_DIGESTS = {
    "aggregate.csv": "e4703807697e20c89af68bbe21d00cf324839fb5a5af64301674b067e493d597",
    "config_resolved.json": "89a2f92db45f06a791141f31c94d3437933c412ca54369d063b07092feea301c",
    "per_replicate.csv": "7687b6f29668d5df2ef3a6c86cff0dbdc216ce7ec7e2095ddf1a867bd367a52f",
    "windows.csv": "84b7ae49a21dd8a9e0991f40fda80deda900bc4ad8034dfa13a5bb66c46b35fc",
}

# pinned outputs of the other commands at REF_CFG: one theory id per index
# kind, both founder generation laws (theory gn and tilde-gn, gw under both
# conditions), the figures that sample trees (fig2), simulate (fig3, fig4, fig5)
# or only evaluate (fig7), and compare over both index sets and both gate
# modes
GOLDEN_DIGESTS = [
    (
        ["theory", "--formula", "I", "--i-range", "1:20"],
        {"theory_I.csv": "eb99f5d5c18bb0b412adb41980dceb937dc01ff06e68d80f0a62758f2f0f6d5b"},
    ),
    (
        ["theory", "--formula", "K", "--x-grid", "0.6,1,2,4"],
        {"theory_K.csv": "6d54d2edc80b408a3f58f2698d4b028c200bf4844a8df4cd60418dc077b749d2"},
    ),
    (
        ["theory", "--formula", "thm2", "--x-grid", "0.6,1,2"],
        {"theory_thm2.csv": "aef800c8713ae981a6e9a198a95a83896c738abd775e5e62c5814a8ffb313b26"},
    ),
    (
        ["theory", "--formula", "P", "--i-range", "1:5"],
        {"theory_P.csv": "b6a40f20ae0c7925f445b2cfb1ad147a749a447b697e932665ab29386e3fc661"},
    ),
    (
        ["theory", "--formula", "Q", "--i-range", "1:5"],
        {"theory_Q.csv": "d0714a726219831c7e6e2ff9a58060005297ff3853ac9a54d5063fd32b2e0a72"},
    ),
    (
        ["theory", "--formula", "anc-one"],
        {"theory_anc_one.csv": "0beab41baacea4a803d421878e5ab04030daec361bf55efc54e0b109b1c72280"},
    ),
    (
        ["theory", "--formula", "clone-sfs", "--i-range", "1:10"],
        {"theory_clone_sfs.csv": "df9b4d249f24d2a9e02bc4252c78a5e7b4be4464b7e915a3be7b666d46102090"},
    ),
    (
        ["theory", "--formula", "gn", "--i-range", "1:10"],
        {"theory_gn.csv": "a783e51832b6f10ce2cbb2fb1cbd0ce6854d58d85f791f56192c0b1f8857eec3"},
    ),
    (
        ["theory", "--formula", "tilde-gn", "--i-range", "1:10"],
        {"theory_tilde_gn.csv": "b84df6d86b711f6133305968a28228980cb741ff01ab5778cac7e4783742d3bc"},
    ),
    (
        ["gw", "--samples", "2000"],
        {"gw_pmf.csv": "a3c941a8570a40475b2da89aa11209088dbfec2b1c544b8b0c2d5e7a8f8fc33c"},
    ),
    (
        ["gw", "--condition", "at-least-one-mark", "--samples", "2000"],
        {"gw_pmf.csv": "ddce6faa0dce895cc946d308c12a9a1dca3005145d244719d536802a739fbcb4"},
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
        {"fig3.csv": "8f38db48810709bbb62c036ba2981b1d41f8401ded3391c90f16f116ab545eff"},
    ),
    (
        ["figures", "--which", "fig4", "--workers", "1"],
        {"fig4.csv": "5ae651d9ac3c57239ec83d51b283d4560f387b41436180a2ea42c9442bdcb954"},
    ),
    (
        ["figures", "--which", "fig5", "--workers", "1"],
        {"fig5.csv": "c30140123acf8cc4e4ea139b4d5fd4255967ffd0d44cbf025d2ece006005be3b"},
    ),
    (
        ["figures", "--which", "fig7"],
        {"fig7.csv": "9eb5ba69d64dab50788a8707daeb642b8eb66d6880a4af088a35b00cad3f5213"},
    ),
    (
        ["compare", "--what", "small-i", "--i-max", "5", "--workers", "1"],
        {
            "report.csv": "11d92860dd73179135580298f6538e634c21b2d6d4cd68c1e16c6603704cb0c6",
            "report.json": "c3bea537233e9ed3189a218b32cfc8e95d4c60426ffba2e5b836223c23b6fbf0",
        },
    ),
    (
        ["compare", "--what", "windows", "--windows", "0.5,1", "--workers", "1"],
        {
            "report.csv": "63fe7de7b50215ad2a116c07072d348ca1f4657a747176d19f4d36e65a67d139",
            "report.json": "3ac8805529faae507bb1d6df4e16f23b6d0163218812068d023560d40cce99e9",
        },
    ),
    (
        ["compare", "--what", "windows", "--windows", "0.5,1", "--mode", "relative"]
        + ["--threshold", "1", "--workers", "1"],
        {
            "report.csv": "3db589bba9d769e907f0cb1688c872df3900add72444893c87a4b5070a4bb865",
            "report.json": "d949ee441e878e03116d98f1ae010a64a705dd85bdf8f8483eaf87ca4207898a",
        },
    ),
]


# compare exits 1 when its gate fails.  At 25 replicates the small-i gate
# (|z| <= 3 on heavy-tailed counts) fails on about 5% of master seeds, with
# simulator.run and with the Gillespie oracle in tests/helpers.py alike; seed
# 4242 is one of them
GATE_FAILED = [["compare", "--what", "small-i", "--i-max", "5", "--workers", "1"]]


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
    rc = cli.main(argv[:1] + ["--config", cfg_path, "--out-dir", out] + argv[1:])
    assert rc == (1 if argv in GATE_FAILED else 0)
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


def test_theory_tilde_gn_at_gamma_zero(cfg_path, tmp_path):
    # beta_n = 0: the beta -> 0 limit (2p)^(g-1) (1-2p) at p = 0.375
    out = str(tmp_path / "o")
    argv = ["theory", "--config", cfg_path, "--gamma", "0", "--formula", "tilde-gn"]
    assert cli.main(argv + ["--i-range", "1:3", "--out-dir", out]) == 0
    rows = _read_csv(os.path.join(out, "theory_tilde_gn.csv"))[1:]
    assert [float(r[1]) for r in rows] == pytest.approx([0.25, 0.1875, 0.140625], rel=1e-14)


def test_theory_x_grid_takes_inf(cfg_path, tmp_path):
    # the grid rejects nan, but x = inf is the complete shape integral for hi
    # and a zero density for tn
    for formula, expected in (("hi", lambda row: float(row[2])), ("tn", lambda row: 0.0)):
        out = str(tmp_path / formula)
        argv = ["theory", "--config", cfg_path, "--formula", formula, "--x-grid", "inf"]
        assert cli.main(argv + ["--out-dir", out]) == 0
        (row,) = _read_csv(os.path.join(out, f"theory_{formula}.csv"))[1:]
        assert float(row[1]) == expected(row)


def test_import_path_loads_numpy_only(cfg_path, tmp_path):
    # scipy takes about 0.75 s and 50 MB to import on top of numpy, and the
    # process pool about 33 ms; each loads on the first call that uses it, so
    # neither the imports nor a single-worker simulation load them
    code = f"""
import sys
import rescue_sfs, rescue_sfs.cli, rescue_sfs.gw_trees, rescue_sfs.montecarlo, rescue_sfs.theory
from rescue_sfs import cli, montecarlo, theory
from rescue_sfs.params import load_config, observation_time

def loaded():
    return sorted(
        k for k in sys.modules
        if k == "scipy" or k.startswith("scipy.") or k == "concurrent.futures.process"
    )

print(loaded())
cfg = load_config({cfg_path!r})
t_obs = observation_time(cfg.observation, cfg.params)
montecarlo.replicate_sfs(cfg.params, t_obs, 20, seed=1, initial=(0, 1), workers=1)
print(loaded())
argv = ["simulate", "--config", {cfg_path!r}, "--out-dir", {str(tmp_path / "o")!r}]
print(cli.main(argv + ["--workers", "1"]), loaded())
print(theory.resistant_origin_mean_exact(1, 1.25, cfg.params).value > 0)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["[]", "[]", "0 []", "True"]


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


def test_compare_warns_below_z_gate_minimum(cfg_path, tmp_path, capsys):
    # REF_CFG's 25 replicates: the z-score gate warns once, naming the
    # count, and exits as before (see GATE_FAILED)
    argv = ["compare", "--config", cfg_path, "--what", "small-i", "--i-max", "5"]
    assert cli.main(argv + ["--workers", "1", "--out-dir", str(tmp_path / "z")]) == 1
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
    ],
)
def test_bad_flag_values_exit_2(cfg_path, tmp_path, capsys, argv):
    rc = cli.main(argv[:1] + ["--config", cfg_path, "--out-dir", str(tmp_path / "o")] + argv[1:])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_cap_hit_exits_2_naming_replicate_and_seed(cfg_path, tmp_path, capsys, monkeypatch):
    def capped(*args, **kwargs):
        raise simulator.PopulationCapError("genealogy exceeded max_cells=5000000")

    monkeypatch.setattr(simulator, "sample_sfs", capped)
    out = tmp_path / "o"
    argv = ["compare", "--config", cfg_path, "--out-dir", str(out), "--workers", "1"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    seed = montecarlo.seed_for_replicate(4242, 0)
    assert err == (
        f"config error: replicate 0 (seed_for_replicate(4242, 0) = {seed}): "
        "genealogy exceeded max_cells=5000000\n"
    )
    assert not os.path.exists(out / "report.json")


def test_rejection_limit_exits_2(cfg_path, tmp_path, capsys, monkeypatch):
    def starved(*args, **kwargs):
        raise gw_trees.RejectionLimitError("no accepted tree in 1000000 attempts")

    monkeypatch.setattr(gw_trees, "sample_conditioned", starved)
    out = tmp_path / "o"
    assert cli.main(["gw", "--config", cfg_path, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "config error: no accepted tree in 1000000 attempts\n"
    assert not os.path.exists(out / "gw_pmf.csv")


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
