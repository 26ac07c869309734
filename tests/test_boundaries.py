"""Inputs that cross a trust boundary are rejected loudly, never turned into NaN."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hmm_ensemble
from hmm_ensemble import HmmParams, ParameterError, average_precision, roc_auc
from hmm_ensemble.cli import main
from test_cli import write_config, write_corpus


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("boundaries")
    corpus = write_corpus(root / "train.csv", n_per_class=10, length=12)
    config = write_config(root / "run.ini", corpus)
    out = root / "run"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    return corpus, out / "model.json"


def score_edited(trained, tmp_path, edit) -> int:
    corpus, model = trained
    payload = json.loads(model.read_text(encoding="utf-8"))
    edit(payload)
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    return main(["score", "--model", str(bad), "--data", str(corpus),
                 "--out", str(tmp_path / "s")])


class TestModelFile:
    def test_nan_pi_exits_3(self, trained, tmp_path):
        def edit(payload):
            payload["positive_models"][0]["pi"][0] = float("nan")

        assert score_edited(trained, tmp_path, edit) == 3
        assert not (tmp_path / "s" / "scores.csv").exists()

    def test_missing_seeds_exits_3(self, trained, tmp_path, capsys):
        assert score_edited(trained, tmp_path, lambda payload: payload.pop("seeds")) == 3
        assert "seeds" in capsys.readouterr().err

    def test_short_seeds_exits_3(self, trained, tmp_path):
        def edit(payload):
            payload["seeds"] = payload["seeds"][:-1]

        assert score_edited(trained, tmp_path, edit) == 3

    def test_not_an_object_exits_3(self, trained, tmp_path):
        corpus, _ = trained
        bad = tmp_path / "model.json"
        bad.write_text("[1, 2]\n", encoding="utf-8")
        assert main(["diversity", "--model", str(bad), "--out", str(tmp_path)]) == 3


    @pytest.mark.parametrize("provenance", [5, {"dataset": 5}])
    def test_provenance_not_an_object_exits_3(self, trained, tmp_path, capsys, provenance):
        assert score_edited(trained, tmp_path, lambda p: p.update(provenance=provenance)) == 3
        assert "provenance" in capsys.readouterr().err


class TestClassifyNnFlags:
    @pytest.mark.parametrize("given, missing", [("--eval-features", "--eval-labels"),
                                                ("--eval-labels", "--eval-features")])
    def test_one_eval_flag_exits_2(self, trained, tmp_path, capsys, given, missing):
        corpus, model = trained
        assert main(["features", "--model", str(model), "--data", str(corpus),
                     "--out", str(tmp_path)]) == 0
        features = str(tmp_path / "features.csv")
        value = features if given == "--eval-features" else str(corpus)
        assert main(["classify-nn", "--features", features, "--labels", str(corpus),
                     given, value, "--out", str(tmp_path / "nn")]) == 2
        assert missing in capsys.readouterr().err
        assert not (tmp_path / "nn" / "nn_evaluation.json").exists()


class TestFeatureCsv:
    def classify_edited(self, trained, tmp_path, edit) -> int:
        corpus, model = trained
        assert main(["features", "--model", str(model), "--data", str(corpus),
                     "--out", str(tmp_path)]) == 0
        path = tmp_path / "features.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[3].startswith("index,")  # three provenance lines, then the header
        lines[5] = edit(lines[5].split(","))  # line 6 of the file
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return main(["classify-nn", "--features", str(path), "--labels", str(corpus),
                     "--out", str(tmp_path / "nn")])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_exits_3(self, trained, tmp_path, capsys, value):
        code = self.classify_edited(trained, tmp_path,
                                    lambda row: ",".join(row[:-1] + [value]))
        assert code == 3
        assert "features.csv:6: non-finite" in capsys.readouterr().err

    def test_short_row_exits_3(self, trained, tmp_path, capsys):
        assert self.classify_edited(trained, tmp_path, lambda row: ",".join(row[:-1])) == 3
        assert "features.csv:6:" in capsys.readouterr().err


class TestParams:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ParameterError):
            HmmParams(pi=[bad, bad], A=[[0.5, 0.5], [0.5, 0.5]], B=[[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ParameterError):
            HmmParams(pi=[1.0, 0.0], A=[[0.5, 0.5], [0.5, 0.5]], B=[[bad, 0.5], [0.5, 0.5]])


class TestMetrics:
    @pytest.mark.parametrize("metric", [roc_auc, average_precision])
    def test_non_finite_scores_rejected(self, metric):
        with pytest.raises(ParameterError):
            metric([0, 1, 0, 1], [np.nan, 1, 0, np.nan])
        with pytest.raises(ParameterError):
            metric([0, 1, 0, 1], [0, np.inf, 0, 1])


def test_generate_without_seed_is_reproducible(trained, tmp_path):
    _, model = trained
    args = ["generate", "--model", str(model), "--label", "0", "--count", "5",
            "--length", "9"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "generated.csv").read_bytes()
    assert first == (tmp_path / "b" / "generated.csv").read_bytes()
    assert b"# master_seed=7\n" in first  # the model's master seed


def test_cli_import_leaves_scipy_optimize_out():
    src = str(Path(hmm_ensemble.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, hmm_ensemble.cli; sys.exit('scipy.optimize' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
