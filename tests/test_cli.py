import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from varsortbench.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestPipeline:
    def test_simulate_varsort_learn_evaluate(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        scm = tmp_path / "scm.json"
        truth = tmp_path / "truth.txt"
        estimate = tmp_path / "estimate.json"

        code, out = run_cli(
            capsys,
            "simulate",
            "--model", "ER", "--d", "6", "--k", "2", "--n", "400", "--seed", "3",
            "--out-data", str(data), "--out-scm", str(scm), "--out-truth", str(truth),
        )
        assert code == 0
        info = json.loads(out)
        assert info["n"] == 400
        assert data.exists() and scm.exists() and truth.exists()

        code, out = run_cli(capsys, "varsort", "--data", str(data), "--truth", str(truth))
        assert code == 0
        report = json.loads(out)
        assert 0.0 <= report["v"] <= 1.0
        assert report["n_paths"] >= 1

        code, out = run_cli(
            capsys, "learn", "--algo", "sortnregress", "--data", str(data), "--out", str(estimate)
        )
        assert code == 0
        assert json.loads(estimate.read_text())["d"] == 6

        code, out = run_cli(
            capsys, "evaluate", "--truth", str(truth), "--estimate", str(estimate), "--omega", "0.0", "--mec"
        )
        assert code == 0
        record = json.loads(out)
        assert record["sid_normalizer"] == 30
        assert record["shd"] >= 0
        assert "shd_cpdag" in record

    def test_evaluate_keeps_isolated_trailing_nodes(self, tmp_path, capsys):
        data, truth, estimate = tmp_path / "d.csv", tmp_path / "t.txt", tmp_path / "e.json"
        code, _ = run_cli(
            capsys,
            "simulate", "--model", "ER", "--d", "6", "--k", "1", "--seed", "7", "--n", "200",
            "--out-data", str(data), "--out-truth", str(truth),
        )
        assert code == 0
        edges = [line.split() for line in truth.read_text().splitlines() if not line.startswith("#")]
        assert "5" not in {node for edge in edges for node in edge}  # node 5 is isolated
        code, _ = run_cli(capsys, "learn", "--algo", "sortnregress", "--data", str(data), "--out", str(estimate))
        assert code == 0
        for est in (estimate, truth):
            code, out = run_cli(capsys, "evaluate", "--truth", str(truth), "--estimate", str(est))
            assert code == 0
            assert json.loads(out)["sid_normalizer"] == 30
        assert json.loads(out)["shd"] == 0

    def test_evaluate_edge_list_estimate(self, tmp_path, capsys):
        truth = tmp_path / "truth.txt"
        truth.write_text("0 1\n1 2\n")
        estimate = tmp_path / "est.txt"
        estimate.write_text("0 1\n")
        code, out = run_cli(capsys, "evaluate", "--truth", str(truth), "--estimate", str(estimate))
        assert code == 0
        record = json.loads(out)
        assert record["shd"] == 1
        assert list(record) == [
            "shd", "sid", "sid_normalizer", "true_edges", "sid_mec_lower", "sid_mec_upper", "shd_cpdag"
        ]
        assert record["sid_mec_lower"] is None and record["shd_cpdag"] is None


class TestChainCommand:
    def test_csv_rows(self, capsys):
        code, out = run_cli(
            capsys,
            "chain", "--d", "3", "--reps", "2000", "--regimes", "raw,standardized",
            "--rules", "coefficients", "--seed", "5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,weight_law,regime,mode,rule,reps,n,accuracy,ties"
        assert len(lines) == 3
        std_row = [l for l in lines if ",standardized," in l][0]
        accuracy = float(std_row.split(",")[-2])
        assert 0.68 <= accuracy <= 0.78

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("--d", "4", "--reps", "2000", "--seed", "5"), "e3dbe27a90efc96e"),
            (("--d", "5", "--reps", "300", "--mode", "finite", "--n", "50", "--seed", "6"),
             "c96df225120c499b"),
            (("--d", "3", "--reps", "500", "--mode", "finite", "--n", "200", "--noise", "gumbel",
              "--seed", "7"), "a966a7708d200029"),
        ],
    )
    def test_pinned_study_output(self, capsys, argv, digest):
        code, out = run_cli(capsys, "chain", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest()[:16] == digest


class TestLandscapeCommand:
    def test_emits_25_rows_single_argmin(self, capsys):
        code, out = run_cli(capsys, "landscape", "--seed", "4", "--lambda1", "0.1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("candidate,edges,score")
        assert len(lines) == 26
        assert sum(int(line.split(",")[-1]) for line in lines[1:]) == 1


class TestBenchCommand:
    def test_bench_runs_and_is_deterministic(self, tmp_path, capsys):
        config = {
            "graphs": [{"model": "ER", "d": 5, "k": 2}],
            "noise": ["gaussian-nv"],
            "learners": [{"name": "sortnregress"}, {"name": "varsort-full"}],
            "n": 150,
            "repetitions": 2,
            "seed": 9,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        code, out = run_cli(capsys, "bench", "--config", str(cfg_path), "--out", str(tmp_path / "a"))
        assert code == 0
        assert json.loads(out)["records"] == 8
        code, _ = run_cli(capsys, "bench", "--config", str(cfg_path), "--out", str(tmp_path / "b"))
        assert code == 0
        assert (tmp_path / "a" / "records.csv").read_bytes() == (tmp_path / "b" / "records.csv").read_bytes()


class TestRealdataCommand:
    def test_realdata_smoke(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        truth = tmp_path / "truth.txt"
        run_cli(
            capsys,
            "simulate", "--model", "ER", "--d", "6", "--k", "2", "--n", "300", "--seed", "8",
            "--out-data", str(data), "--out-truth", str(truth),
        )
        code, out = run_cli(
            capsys,
            "realdata", "--data", str(data), "--truth", str(truth),
            "--learners", "sortnregress", "--repetitions", "2", "--out", str(tmp_path / "real"),
        )
        assert code == 0
        info = json.loads(out)
        assert info["records"] == 8  # (sortnregress + empty) x 2 regimes x 2 reps
        assert info["errors"] == 0
        assert (tmp_path / "real" / "records.csv").exists()


def test_cli_import_leaves_scipy_unloaded():
    # scipy is slow to import and only notears needs it.
    import varsortbench

    src = os.path.dirname(os.path.dirname(os.path.abspath(varsortbench.__file__)))
    code = "import sys, varsortbench.cli; sys.exit('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
