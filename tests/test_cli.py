"""CLI contract: documented formats round-trip, documented exit codes hold."""

import csv
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from confcontam import harness
from confcontam.cli import main
from confcontam.conformal import (
    conformal_pvalues,
    conformal_pvalues_from_scores,
    read_datapoints_csv,
    split_fit,
)
from confcontam.contamtest import ContamTestSpec, run_contam_test
from confcontam.mht import PValueVector, storey_bh
from confcontam.protocol import negative_norm_trainer

DATA = Path(__file__).parent / "data"


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out


class TestContamTestCommand:
    @pytest.mark.parametrize("family", ["storey", "quantile", "fisher", "sum"])
    def test_matches_library_on_golden_scores(self, capsys, family):
        code, out = run_cli(
            [
                "contam-test",
                "--null-scores", str(DATA / "null_scores.txt"),
                "--test-scores", str(DATA / "test_scores.txt"),
                "--family", family,
                "--pi-th", "0.1",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"statistic", "p_value"}
        cal = np.loadtxt(DATA / "null_scores.txt")
        test = np.loadtxt(DATA / "test_scores.txt")
        pvals = conformal_pvalues_from_scores(cal, test)
        expected = run_contam_test(
            pvals, ContamTestSpec(family=family, pi_th=0.1), n_cal=cal.size
        )
        assert doc["statistic"] == expected.statistic
        assert doc["p_value"] == expected.p_value

    def test_explicit_hyperparameters(self, capsys):
        code, out = run_cli(
            [
                "contam-test",
                "--null-scores", str(DATA / "null_scores.txt"),
                "--test-scores", str(DATA / "test_scores.txt"),
                "--family", "storey",
                "--pi-th", "0.2",
                "--lambda", str(5 / 21),
            ],
            capsys,
        )
        assert code == 0
        assert 0.0 <= json.loads(out)["p_value"] <= 1.0

    def test_fisher_formula_flag(self, capsys):
        args = [
            "contam-test",
            "--null-scores", str(DATA / "null_scores.txt"),
            "--test-scores", str(DATA / "test_scores.txt"),
            "--family", "fisher",
            "--pi-th", "0.0",
        ]
        _, out_derived = run_cli(args + ["--fisher-formula", "derived"], capsys)
        _, out_printed = run_cli(args + ["--fisher-formula", "printed"], capsys)
        assert json.loads(out_derived)["p_value"] != json.loads(out_printed)["p_value"]

    def test_missing_file_is_data_error(self, capsys):
        code, _ = run_cli(
            [
                "contam-test",
                "--null-scores", "no_such_file.txt",
                "--test-scores", str(DATA / "test_scores.txt"),
                "--family", "sum",
                "--pi-th", "0.1",
            ],
            capsys,
        )
        assert code == 3

    def test_malformed_scores_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "scores.txt"
        bad.write_text("1.0\nnot-a-number\n")
        code, _ = run_cli(
            [
                "contam-test",
                "--null-scores", str(bad),
                "--test-scores", str(DATA / "test_scores.txt"),
                "--family", "sum",
                "--pi-th", "0.1",
            ],
            capsys,
        )
        assert code == 3

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_score_is_data_error(self, capsys, tmp_path, bad):
        scores = tmp_path / "scores.txt"
        scores.write_text(f"-0.5\n{bad}\n")
        code, out = run_cli(
            [
                "contam-test",
                "--null-scores", str(DATA / "null_scores.txt"),
                "--test-scores", str(scores),
                "--family", "storey",
                "--pi-th", "0.1",
            ],
            capsys,
        )
        assert code == 3
        assert out == ""

    def test_off_grid_lambda_is_config_error(self, capsys):
        code, _ = run_cli(
            [
                "contam-test",
                "--null-scores", str(DATA / "null_scores.txt"),
                "--test-scores", str(DATA / "test_scores.txt"),
                "--family", "storey",
                "--pi-th", "0.1",
                "--lambda", "0.123",
            ],
            capsys,
        )
        assert code == 2

    def test_unknown_family_is_usage_error(self, capsys):
        code, _ = run_cli(
            [
                "contam-test",
                "--null-scores", str(DATA / "null_scores.txt"),
                "--test-scores", str(DATA / "test_scores.txt"),
                "--family", "bonferroni",
                "--pi-th", "0.1",
            ],
            capsys,
        )
        assert code == 2


class TestPvaluesCommand:
    def test_negnorm_matches_library(self, capsys):
        code, out = run_cli(
            [
                "pvalues",
                "--null", str(DATA / "null_points.csv"),
                "--test", str(DATA / "test_points.csv"),
                "--score", "negnorm",
            ],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["p_value"]
        got = np.array([float(r[0]) for r in rows[1:]])
        null_points = read_datapoints_csv(DATA / "null_points.csv")
        test_points = read_datapoints_csv(DATA / "test_points.csv")
        cal = split_fit(null_points, 0, negative_norm_trainer)
        assert np.array_equal(got, conformal_pvalues(cal, test_points))

    def test_knn_with_ell(self, capsys):
        code, out = run_cli(
            [
                "pvalues",
                "--null", str(DATA / "null_points.csv"),
                "--test", str(DATA / "test_points.csv"),
                "--score", "knn",
                "--ell", "5",
                "--k-nn", "2",
            ],
            capsys,
        )
        assert code == 0
        values = [float(r[0]) for r in list(csv.reader(io.StringIO(out)))[1:]]
        # 8 null points, ell=5 -> 3 calibration scores, grid of quarters
        assert all(round(v * 4) in (1, 2, 3, 4) for v in values)

    def test_ell_too_large_is_config_error(self, capsys):
        code, _ = run_cli(
            [
                "pvalues",
                "--null", str(DATA / "null_points.csv"),
                "--test", str(DATA / "test_points.csv"),
                "--score", "negnorm",
                "--ell", "8",
            ],
            capsys,
        )
        assert code == 2

    def test_malformed_csv_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("f1,f2\n1.0,huh\n")
        code, _ = run_cli(
            [
                "pvalues",
                "--null", str(bad),
                "--test", str(DATA / "test_points.csv"),
                "--score", "negnorm",
            ],
            capsys,
        )
        assert code == 3

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_feature_is_data_error(self, capsys, tmp_path, bad):
        points = tmp_path / "test.csv"
        points.write_text(f"f1,f2\n0.0,0.1\n{bad},0.2\n")
        code, out = run_cli(
            [
                "pvalues",
                "--null", str(DATA / "null_points.csv"),
                "--test", str(points),
                "--score", "negnorm",
            ],
            capsys,
        )
        assert code == 3
        assert out == ""


class TestSelectCommand:
    def test_budget_mode_golden(self, capsys):
        code, out = run_cli(
            [
                "select",
                "--pvalues", str(DATA / "agents.csv"),
                "--mode", "budget",
                "--k-budget", "2",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["selected"] == ["alpha", "bravo"]
        assert doc["mode"] == "budget"
        # delta = 0.9, gamma = 0.5: 2 above gamma, 4 at or below delta
        assert doc["fdr_estimate"] == pytest.approx(0.9 * 2 / (0.5 * 4))

    def test_threshold_mode_golden(self, capsys):
        code, out = run_cli(
            [
                "select",
                "--pvalues", str(DATA / "agents.csv"),
                "--mode", "threshold",
                "--alpha", "0.05",
                "--gamma", "0.5",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        pvec = PValueVector.make(
            [0.01, 0.2, 0.8, 0.9], ["alpha", "bravo", "charlie", "delta"]
        )
        outcome = storey_bh(pvec, 0.05, 0.5)
        assert sorted(doc["mht"]["rejected"]) == sorted(outcome.rejected)
        assert doc["mht"]["k0_hat"] == outcome.k0_hat
        assert set(doc["selected"]) == {"bravo", "charlie", "delta"}

    def test_budget_requires_k_budget(self, capsys):
        code, _ = run_cli(
            ["select", "--pvalues", str(DATA / "agents.csv"), "--mode", "budget"],
            capsys,
        )
        assert code == 2

    def test_bad_header_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "agents.csv"
        bad.write_text("id,stat,p\nx,1,0.5\n")
        code, _ = run_cli(
            ["select", "--pvalues", str(bad), "--mode", "threshold"], capsys
        )
        assert code == 3

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("row", ["x,{},0.5", "x,1,{}"])
    def test_non_finite_value_is_data_error(self, capsys, tmp_path, row, bad):
        table = tmp_path / "agents.csv"
        table.write_text("agent_id,statistic,p_value\ny,2,0.1\n" + row.format(bad) + "\n")
        code, out = run_cli(
            ["select", "--pvalues", str(table), "--mode", "threshold"], capsys
        )
        assert code == 3
        assert out == ""


class TestSimulateCommand:
    def test_power_study_report(self, capsys, tmp_path):
        out_csv = tmp_path / "rows.csv"
        code, out = run_cli(
            [
                "simulate",
                "--config", str(DATA / "sim_power.json"),
                "--per-replicate-csv", str(out_csv),
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["study"] == "power"
        assert doc["replicates"] == 60
        # maximal contamination against pi_th=0: essentially always rejected
        assert doc["estimates"]["storey"]["power"]["value"] >= 0.95
        rows = list(csv.DictReader(open(out_csv)))
        assert len(rows) == 120  # two families
        assert {r["family"] for r in rows} == {"storey", "sum"}

    def test_fdr_study_report(self, capsys):
        code, out = run_cli(
            ["simulate", "--config", str(DATA / "sim_fdr.json")], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["study"] == "fdr_tdr"
        assert doc["procedure"] == "storey_bh"
        cell = doc["estimates"]["storey"]
        assert 0.0 <= cell["fdr"]["value"] <= 1.0
        assert 0.0 <= cell["tdr"]["value"] <= 1.0

    def test_cli_overrides(self, capsys):
        code, out = run_cli(
            [
                "simulate",
                "--config", str(DATA / "sim_power.json"),
                "--replicates", "10",
                "--seed", "99",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["replicates"] == 10

    def test_threads_match_serial(self, capsys):
        code1, out1 = run_cli(
            ["simulate", "--config", str(DATA / "sim_power.json")], capsys
        )
        code2, out2 = run_cli(
            ["simulate", "--config", str(DATA / "sim_power.json"), "--threads", "2"],
            capsys,
        )
        assert code1 == code2 == 0
        doc1, doc2 = json.loads(out1), json.loads(out2)
        assert doc1["estimates"] == doc2["estimates"]

    def test_invalid_json_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        code, _ = run_cli(["simulate", "--config", str(bad)], capsys)
        assert code == 3

    def test_unknown_key_is_config_error(self, capsys, tmp_path):
        doc = json.load(open(DATA / "sim_power.json"))
        doc["typo_key"] = 1
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(doc))
        code, _ = run_cli(["simulate", "--config", str(bad)], capsys)
        assert code == 2

    def test_pool_has_at_most_one_worker_per_replicate(self, capsys, monkeypatch):
        sizes = []

        class InlinePool:  # records the pool size, runs the chunks in this process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        argv = ["simulate", "--config", str(DATA / "sim_power.json"), "--replicates", "3"]
        code, out = run_cli(argv + ["--threads", "5000"], capsys)
        assert code == 0
        assert sizes == [3]
        _, serial = run_cli(argv, capsys)
        assert json.loads(out)["estimates"] == json.loads(serial)["estimates"]

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_config_error(self, capsys, threads):
        code, out = run_cli(
            [
                "simulate",
                "--config", str(DATA / "sim_power.json"),
                "--replicates", "3",
                "--threads", threads,
            ],
            capsys,
        )
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("mu1", [float("nan"), float("inf")])
    def test_non_finite_mu1_is_config_error(self, capsys, tmp_path, mu1):
        doc = json.load(open(DATA / "sim_fdr.json"))
        doc["mu1"] = mu1
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(doc))
        code, out = run_cli(["simulate", "--config", str(bad)], capsys)
        assert code == 2
        assert out == ""


class TestProtocolCommand:
    def test_report_structure_and_selection(self, capsys):
        code, out = run_cli(
            ["protocol", "--config", str(DATA / "protocol_budget.json")], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert list(doc["config"]) == [
            "ell", "n", "m", "score", "test", "mode",
            "k_budget", "alpha", "gamma", "pi_th", "rounds", "seed",
        ]
        assert len(doc["decision"]["selected"]) == 3
        # clean agents are 0..2; with mu1=4 and pi1=0.8 they win selection
        assert set(doc["decision"]["selected"]) == {"agent000", "agent001", "agent002"}
        selected = set(doc["decision"]["selected"])
        for acq in doc["acquisitions"]:
            if acq["round"] >= 2:
                assert acq["agent_id"] in selected
        assert doc["totals"]["training"] == doc["totals"]["local"] + doc["totals"]["acquired"]

    def test_threshold_mode_runs(self, capsys):
        code, out = run_cli(
            ["protocol", "--config", str(DATA / "protocol_threshold.json")], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["decision"]["mode"] == "threshold"
        assert doc["decision"]["mht"] is not None

    def test_byte_identical_reruns(self, capsys):
        _, out1 = run_cli(
            ["protocol", "--config", str(DATA / "protocol_budget.json")], capsys
        )
        _, out2 = run_cli(
            ["protocol", "--config", str(DATA / "protocol_budget.json")], capsys
        )
        assert out1.encode() == out2.encode()

    def test_missing_key_is_config_error(self, capsys, tmp_path):
        doc = json.load(open(DATA / "protocol_budget.json"))
        del doc["rounds"]
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(doc))
        code, _ = run_cli(["protocol", "--config", str(bad)], capsys)
        assert code == 2

    def test_missing_config_file_is_data_error(self, capsys):
        code, _ = run_cli(["protocol", "--config", "missing.json"], capsys)
        assert code == 3

    @pytest.mark.parametrize(
        "pi",
        [
            {"rule": "split", "k0": -1, "pi0": 0.0, "pi1": 0.8},
            {"rule": "split", "k0": 7, "pi0": 0.0, "pi1": 0.8},
            {"rule": "split", "k0": 1.5, "pi0": 0.0, "pi1": 0.8},
            {"rule": "fixed", "values": 0.5},
            [0.1, 0.2, 0.3, 0.4],
        ],
    )
    def test_bad_scenario_pi_is_config_error(self, capsys, tmp_path, pi):
        doc = json.load(open(DATA / "protocol_budget.json"))
        doc["scenario"]["k"] = 4
        doc["scenario"]["pi"] = pi
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(doc))
        code, out = run_cli(["protocol", "--config", str(bad)], capsys)
        assert code == 2
        assert out == ""



def _probe_cases():
    """(config file, dotted key path, bad value) of every config probe."""
    sim, proto, power = "sim_fdr.json", "protocol_budget.json", "sim_power.json"
    cases = []
    for cfg, keys in [
        (sim, ["n", "m", "k", "ell", "dim", "seed", "i0"]),
        (proto, ["n", "m", "ell", "seed", "rounds", "k_budget", "i0", "k_nn",
                 "scenario.k", "scenario.dim"]),
    ]:
        cases += [(cfg, key, bad) for key in keys for bad in ["5", 5.0, True]]
    for cfg, mu1 in [(sim, "mu1"), (proto, "scenario.mu1")]:
        cases += [(cfg, key, "0.1") for key in ["alpha", "pi_th", mu1, "lambda"]]
    cases += [
        (sim, "family", 3),
        (sim, "pi.typo", 1),
        (proto, "scenario.pi.typo", 1),
        (proto, "scenario.typo", 1),
        (proto, "scenario.dim", 0),
        (proto, "scenario.k", 0),
        (power, "pi.values", [float("nan")]),
        (sim, "pi.pi0", float("nan")),
        (sim, "pi.pi1", float("inf")),
        (sim, "alpha", 10**400),
        (sim, "pi.pi1", 1.5),
        (sim, "pi.pi0", -0.1),
        (power, "pi.values", [1.5]),
        (proto, "scenario.pi.pi1", -0.5),
        (power, "procedure", 3),
        (power, "procedure", "by"),
    ]
    cases += [
        (sim, key, bad)
        for key in ["alpha", "gamma", "lambda", "pi_th"]
        for bad in [float("nan"), float("inf")]
    ]
    return [
        pytest.param(cfg, path, bad, id=f"{cfg.split('.')[0]}:{path}={bad!r:.20}")
        for cfg, path, bad in cases
    ]


@pytest.mark.parametrize("cfg,path,bad", _probe_cases())
def test_config_probe_is_config_error(capsys, tmp_path, cfg, path, bad):
    doc = json.load(open(DATA / cfg))
    *outer, key = path.split(".")
    node = doc
    for part in outer:
        node = node[part]
    node[key] = bad
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    if cfg.startswith("protocol"):
        argv = ["protocol", "--config", str(config)]
    else:
        argv = ["simulate", "--config", str(config), "--replicates", "3"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert re.search(rf"\b{key}\b", captured.err)
