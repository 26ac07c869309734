import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hmm_ensemble
from hmm_ensemble import HmmParams, load_csv, sample
from hmm_ensemble.cli import main


GEN_POS = HmmParams(
    pi=[0.8, 0.2], A=[[0.8, 0.2], [0.2, 0.8]], B=[[0.85, 0.1, 0.05], [0.05, 0.1, 0.85]]
)
GEN_NEG = HmmParams(
    pi=[0.2, 0.8], A=[[0.4, 0.6], [0.6, 0.4]], B=[[0.1, 0.8, 0.1], [0.4, 0.2, 0.4]]
)


def write_corpus(path, n_per_class=30, length=15, seed=0):
    rng = np.random.default_rng(seed)
    rows = ["sequence,label"]
    for _ in range(n_per_class):
        rows.append("".join("abc"[t] for t in sample(GEN_POS, length, rng)) + ",1")
    for _ in range(n_per_class):
        rows.append("".join("abc"[t] for t in sample(GEN_NEG, length, rng)) + ",0")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def write_config(path, train_csv, n_models=2, subset=1.0, seed=7):
    path.write_text(
        f"""
[data]
train_csv = {train_csv}

[ensemble]
n_pos_models = {n_models}
n_neg_models = {n_models}
subset_fraction = {subset}
state_counts = 2,3
master_seed = {seed}

[train]
max_iters = 4
tol = 1e-4
floor = 1e-10

[mlp]
hidden_dims = 8,4
dropout = 0.0
learning_rate = 0.01
batch_size = 16
epochs = 8
seed = 3
""",
        encoding="utf-8",
    )
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = write_corpus(root / "train.csv")
    config = write_config(root / "run.ini", corpus)
    out = root / "run1"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    return root, config, out


class TestTrain:
    def test_model_file_has_all_models(self, workspace):
        _, _, out = workspace
        payload = json.loads((out / "model.json").read_text())
        assert len(payload["positive_models"]) == 2
        assert len(payload["negative_models"]) == 2
        assert payload["provenance"]["config_hash"]
        assert len(payload["seeds"]) == 4

    def test_histories_written(self, workspace):
        _, _, out = workspace
        histories = json.loads((out / "histories.json").read_text())["histories"]
        assert len(histories) == 4
        assert all(len(h) >= 1 for h in histories)

    def test_rerun_byte_identical(self, workspace, tmp_path):
        root, config, out = workspace
        out2 = tmp_path / "rerun"
        assert main(["train", "--config", str(config), "--out", str(out2)]) == 0
        assert (out / "model.json").read_bytes() == (out2 / "model.json").read_bytes()
        assert (out / "config.resolved.txt").read_bytes() == (
            out2 / "config.resolved.txt"
        ).read_bytes()

    def test_parallel_training_identical(self, workspace, tmp_path):
        root, config, out = workspace
        out2 = tmp_path / "par"
        assert main(
            ["train", "--config", str(config), "--out", str(out2), "--threads", "2"]
        ) == 0
        assert (out / "model.json").read_bytes() == (out2 / "model.json").read_bytes()

    def test_missing_dataset_exits_3(self, tmp_path):
        config = write_config(tmp_path / "bad.ini", tmp_path / "nope.csv")
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 3

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[ensemble]\nn_pos_modelz = 3\n", encoding="utf-8")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "n_pos_modelz" in capsys.readouterr().err

    def test_unparsable_value_names_key(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[ensemble]\nn_pos_models = many\n", encoding="utf-8")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "n_pos_models" in capsys.readouterr().err


class TestScore:
    def test_scores_csv_shape(self, workspace, tmp_path):
        root, _, out = workspace
        score_out = tmp_path / "scores"
        assert main(
            ["score", "--model", str(out / "model.json"), "--data", str(root / "train.csv"),
             "--out", str(score_out)]
        ) == 0
        lines = (score_out / "scores.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1].startswith("# master_seed=")
        body = [line for line in lines if not line.startswith("#")]
        header = body[0].split(",")
        assert header[:2] == ["index", "composite_score"]
        assert len(header) == 2 + 4
        data = [line.split(",") for line in body[1:]]
        assert len(data) == 60
        assert [int(r[0]) for r in data] == list(range(60))
        assert all(0 <= int(r[1]) <= 4 for r in data)

    def test_single_sequence_corpus(self, workspace, tmp_path):
        root, _, out = workspace
        corpus = tmp_path / "one.csv"
        corpus.write_text("sequence,label\nabcab,1\n", encoding="utf-8")
        assert main(
            ["score", "--model", str(out / "model.json"), "--data", str(corpus),
             "--out", str(tmp_path / "s")]
        ) == 0
        lines = (tmp_path / "s" / "scores.csv").read_text().splitlines()
        body = [line for line in lines if not line.startswith("#")]
        assert len(body) == 2  # header + 1 row

    def test_vocabulary_mismatch_exits_3(self, workspace, tmp_path):
        root, _, out = workspace
        corpus = tmp_path / "bad.csv"
        corpus.write_text("sequence,label\nxyz,1\n", encoding="utf-8")
        code = main(
            ["score", "--model", str(out / "model.json"), "--data", str(corpus),
             "--out", str(tmp_path / "s")]
        )
        assert code == 3


class TestEvaluate:
    def test_report_contents(self, workspace, tmp_path):
        root, _, out = workspace
        eval_out = tmp_path / "eval"
        assert main(
            ["evaluate", "--model", str(out / "model.json"), "--data", str(root / "train.csv"),
             "--calibration-fraction", "0.3", "--out", str(eval_out)]
        ) == 0
        report = json.loads((eval_out / "evaluation.json").read_text())
        for key in ("auc_roc", "average_precision", "threshold", "tp", "fp", "tn", "fn"):
            assert key in report
        assert report["tp"] + report["fn"] == report["n_pos"]
        assert report["provenance"]["config_hash"]
        assert report["provenance"]["master_seed"] == 7
        assert report["auc_roc_x100"] == pytest.approx(report["auc_roc"] * 100, abs=1e-3)

    def test_matches_offline_metrics(self, workspace, tmp_path):
        # AUC/AP recomputed from the emitted score CSV must agree
        from hmm_ensemble import average_precision, roc_auc

        root, _, out = workspace
        score_out = tmp_path / "scores"
        main(["score", "--model", str(out / "model.json"), "--data", str(root / "train.csv"),
              "--out", str(score_out)])
        lines = [
            l for l in (score_out / "scores.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        scores = [int(r.split(",")[1]) for r in lines[1:]]
        labels = load_csv(root / "train.csv").labels
        assert 0.0 <= roc_auc(labels, scores) <= 1.0
        assert 0.0 <= average_precision(labels, scores) <= 1.0

    def test_separable_corpus_scores_perfectly(self, tmp_path):
        # longer sequences make the generator pair cleanly separable
        corpus = write_corpus(tmp_path / "train.csv", n_per_class=40, length=60)
        config = write_config(tmp_path / "run.ini", corpus, n_models=3, seed=5)
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        assert main(
            ["evaluate", "--model", str(out / "model.json"), "--data", str(corpus),
             "--calibration-fraction", "0.3", "--out", str(out)]
        ) == 0
        report = json.loads((out / "evaluation.json").read_text())
        assert report["auc_roc"] == 1.0
        assert report["average_precision"] == 1.0
        assert report["fp"] == 0 and report["fn"] == 0

    def test_single_class_corpus_exits_3(self, workspace, tmp_path):
        root, _, out = workspace
        corpus = tmp_path / "mono.csv"
        corpus.write_text("sequence,label\nabc,1\ncba,1\n", encoding="utf-8")
        code = main(
            ["evaluate", "--model", str(out / "model.json"), "--data", str(corpus),
             "--out", str(tmp_path / "e")]
        )
        assert code == 3


class TestFeatures:
    def test_row_width(self, workspace, tmp_path):
        root, _, out = workspace
        feat_out = tmp_path / "feats"
        assert main(
            ["features", "--model", str(out / "model.json"), "--data", str(root / "train.csv"),
             "--out", str(feat_out)]
        ) == 0
        lines = [
            l for l in (feat_out / "features.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert lines[0].split(",") == ["index", "f0", "f1", "f2", "f3"]
        row = [float(v) for v in lines[1].split(",")[1:]]
        assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-9)


class TestDiversity:
    def test_unit_diagonal(self, workspace, tmp_path):
        _, _, out = workspace
        div_out = tmp_path / "div"
        assert main(
            ["diversity", "--model", str(out / "model.json"), "--out", str(div_out)]
        ) == 0
        lines = [
            l for l in (div_out / "similarity.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        labels = lines[0].split(",")[1:]
        assert labels == ["pos_0", "pos_1", "neg_0", "neg_1"]
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert float(cells[1 + i]) == 1.0

    def test_damped_chains_are_counted_on_stderr(self, workspace, tmp_path, capsys):
        _, _, out = workspace
        payload = json.loads((out / "model.json").read_text())
        n = payload["negative_models"][1]["n"]
        payload["negative_models"][1]["A"] = np.eye(n).tolist()
        (tmp_path / "model.json").write_text(json.dumps(payload))
        runs = {}
        for name, model in (("healthy", out / "model.json"), ("damped", tmp_path / "model.json")):
            capsys.readouterr()
            assert main(["diversity", "--model", str(model), "--out", str(tmp_path / name)]) == 0
            runs[name] = capsys.readouterr()
        assert runs["healthy"].err == ""
        assert runs["damped"].err.splitlines() == [
            "diversity: 1 of 4 models have a reducible or periodic chain; "
            "their stationary mass is that of the chain damped toward uniform"
        ]
        for name, run in runs.items():
            path = tmp_path / name / "similarity.csv"
            assert run.out == f"wrote 4x4 similarity matrix -> {path}\n"
            assert "damped" not in path.read_text()


class TestProvenance:
    def test_outputs_carry_the_model_config_hash(self, workspace, tmp_path):
        root, _, out = workspace
        model = str(out / "model.json")
        want = json.loads((out / "model.json").read_text())["provenance"]["config_hash"]
        for argv in (["score", "--data", str(root / "train.csv")],
                     ["features", "--data", str(root / "train.csv")],
                     ["evaluate", "--data", str(root / "train.csv")],
                     ["diversity"]):
            assert main(argv + ["--model", model, "--out", str(tmp_path)]) == 0
        for name in ("scores.csv", "features.csv", "similarity.csv"):
            first = (tmp_path / name).read_text().splitlines()[0]
            assert first == f"# config_hash={want}"
        report = json.loads((tmp_path / "evaluation.json").read_text())
        assert report["provenance"]["config_hash"] == want


class TestGenerate:
    def test_deterministic_and_loadable(self, workspace, tmp_path):
        _, _, out = workspace
        g1, g2 = tmp_path / "g1", tmp_path / "g2"
        args = ["generate", "--model", str(out / "model.json"), "--label", "1",
                "--count", "10", "--length", "12", "--seed", "5"]
        assert main(args + ["--out", str(g1)]) == 0
        assert main(args + ["--out", str(g2)]) == 0
        assert (g1 / "generated.csv").read_bytes() == (g2 / "generated.csv").read_bytes()
        ds = load_csv(g1 / "generated.csv")
        assert len(ds) == 10
        assert set(ds.labels.tolist()) == {1}


class TestClassifyNn:
    def test_end_to_end(self, workspace, tmp_path):
        root, config, out = workspace
        feat_out = tmp_path / "feats"
        main(["features", "--model", str(out / "model.json"), "--data", str(root / "train.csv"),
              "--out", str(feat_out)])
        nn_out = tmp_path / "nn"
        assert main(
            ["classify-nn", "--features", str(feat_out / "features.csv"),
             "--labels", str(root / "train.csv"), "--config", str(config),
             "--out", str(nn_out)]
        ) == 0
        report = json.loads((nn_out / "nn_evaluation.json").read_text())
        assert 0.0 <= report["auc_roc"] <= 1.0
        model = json.loads((nn_out / "mlp.json").read_text())
        assert model["input_dim"] == 4
        assert model["hidden_dims"] == [8, 4]

    @pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                        reason="needs /proc/self/status")
    def test_peak_memory_over_imports(self, tmp_path):
        # the default [mlp] head on 80 unit-norm rows of 500 features, in a fresh
        # interpreter: VmHWM minus the VmRSS after import bounds what training,
        # scoring and writing mlp.json hold at once
        x = np.random.default_rng(0).normal(size=(80, 500))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        features, labels = tmp_path / "features.csv", tmp_path / "labels.csv"
        rows = ["index," + ",".join(f"f{j}" for j in range(500))]
        rows += [f"{i}," + ",".join(map(repr, row.tolist())) for i, row in enumerate(x)]
        features.write_text("\n".join(rows) + "\n", encoding="utf-8")
        labels.write_text("sequence,label\n" + "ab,1\n" * 40 + "ab,0\n" * 40, encoding="utf-8")
        code = (
            "import sys\n"
            "def status(key):\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(l.split()[1]) for l in fh if l.startswith(key)) / 1024\n"
            "from hmm_ensemble.cli import main\n"
            "after_import = status('VmRSS:')\n"
            "code = main(['classify-nn', '--features', sys.argv[1], '--labels', sys.argv[2],\n"
            "             '--out', sys.argv[3]])\n"
            "print(status('VmHWM:') - after_import)\n"
            "sys.exit(code)\n"
        )
        src = str(Path(hmm_ensemble.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", code, str(features), str(labels),
                              str(tmp_path / "nn")], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        growth_mb = float(run.stdout.split()[-1])
        assert growth_mb < 40.0


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_every_json_output_is_strict_json(workspace, tmp_path):
    # NaN and Infinity are not JSON: a strict reader rejects a file holding them
    root, config, out = workspace
    model, corpus = str(out / "model.json"), str(root / "train.csv")
    for argv in (["evaluate", "--model", model, "--data", corpus],
                 ["features", "--model", model, "--data", corpus]):
        assert main(argv + ["--out", str(tmp_path)]) == 0
    assert main(["classify-nn", "--features", str(tmp_path / "features.csv"), "--labels", corpus,
                 "--config", str(config), "--out", str(tmp_path)]) == 0
    written = sorted(out.glob("*.json")) + sorted(tmp_path.glob("*.json"))
    assert [p.name for p in written] == ["histories.json", "model.json", "evaluation.json",
                                         "mlp.json", "nn_evaluation.json"]
    for path in written:
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
