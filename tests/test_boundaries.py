"""Inputs that cross a trust boundary are rejected loudly, never turned into NaN."""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmm_ensemble
import oracles
from hmm_ensemble import (
    EnsembleConfig,
    EnsembleModel,
    EvalReport,
    HmmParams,
    LabeledDataset,
    MlpConfig,
    MlpModel,
    ParameterError,
    Provenance,
    TrainConfig,
    Vocabulary,
    average_precision,
    classify,
    expected_unsampled_fraction,
    mlp,
    roc_auc,
    subsample_imbalance,
)
from hmm_ensemble import ensemble as ens
from hmm_ensemble.cli import _load_model, _write_json, main
from hmm_ensemble.config import DataConfig
from hmm_ensemble.data import split_indices
from hmm_ensemble.errors import check_real
from hmm_ensemble.metrics import confusion_at
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


    def test_deeply_nested_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "model.json"
        bad.write_text("[" * 100_000, encoding="utf-8")
        assert main(["diversity", "--model", str(bad), "--out", str(tmp_path)]) == 3
        assert "RecursionError" in capsys.readouterr().err

    def test_train_config_with_per_job_keys_exits_3(self, trained, tmp_path, capsys):
        # a model file from when TrainConfig held n_states and seed
        def edit(payload):
            payload["config"]["train"].update(n_states=5, seed=0)

        assert score_edited(trained, tmp_path, edit) == 3
        assert "unexpected keyword argument 'n_states'" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda p: p["config"]["train"].pop("tol"),
        lambda p: p["config"].pop("subset_fraction"),
        lambda p: p["config"].update(bogus=1),
        lambda p: p["config"]["train"].update(bogus=1),
    ], ids=["missing-train-key", "missing-key", "unknown-key", "unknown-train-key"])
    def test_config_keys_are_exactly_the_fields(self, trained, tmp_path, capsys, edit):
        assert score_edited(trained, tmp_path, edit) == 3
        err = capsys.readouterr().err
        assert "invalid model" in err and "Traceback" not in err
        # top-level keys beside the model's own stay allowed, as provenance is
        assert score_edited(trained, tmp_path, lambda p: p.update(note="x")) == 0

    @pytest.mark.parametrize("edit", [
        # one positive model, so the count true (== 1) matches it
        lambda p: (p["config"].update(n_pos_models=True), p["positive_models"].pop(),
                   p["seeds"].pop(1)),
        lambda p: p["config"].update(state_counts="345"),
        lambda p: p["positive_models"][0].update(n=float(p["positive_models"][0]["n"])),
        lambda p: p.update(vocabulary="".join(p["vocabulary"])),
        lambda p: p["config"]["train"].update(max_iters=8.5),
        lambda p: p["seeds"][0].__setitem__(0, 1.5),
    ], ids=["bool-model-count", "string-state-counts", "float-n", "string-vocabulary",
            "float-max-iters", "float-seed"])
    def test_loose_value_exits_3(self, trained, tmp_path, capsys, edit):
        assert score_edited(trained, tmp_path, edit) == 3
        err = capsys.readouterr().err
        assert "invalid model" in err and "Traceback" not in err
        assert not (tmp_path / "s" / "scores.csv").exists()

    def test_non_string_token_exits_3(self, trained, tmp_path, capsys):
        # generate would join the token into a sequence and fail there
        _, model = trained
        payload = json.loads(model.read_text(encoding="utf-8"))
        payload["vocabulary"][1] = None
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["generate", "--model", str(bad), "--label", "1", "--count", "2",
                     "--length", "3", "--out", str(tmp_path / "g")]) == 3
        err = capsys.readouterr().err
        assert "vocabulary must be a list of strings" in err and "Traceback" not in err

    def test_multi_character_token_exits_3(self, trained, tmp_path, capsys):
        # generate would write "bc" and "" into sequences that train reads back as other tokens
        _, model = trained
        payload = json.loads(model.read_text(encoding="utf-8"))
        payload["vocabulary"] = ["", "bc", "c"]
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["generate", "--model", str(bad), "--label", "1", "--count", "2",
                     "--length", "6", "--out", str(tmp_path / "g")]) == 3
        err = capsys.readouterr().err
        assert "one character each" in err and "Traceback" not in err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("counts", [[5, 9], [3, 2], [2]])
    def test_state_counts_contradicting_models_exit_3(self, trained, tmp_path, capsys, counts):
        # the models were trained with state_counts 2, 3: model k has 2 + k % 2 states
        assert score_edited(trained, tmp_path, lambda p: p["config"].update(state_counts=counts)) == 3
        err = capsys.readouterr().err
        assert "invalid model" in err and "states" in err and "Traceback" not in err
        assert not (tmp_path / "s" / "scores.csv").exists()

    @pytest.mark.parametrize("provenance", [5, {"dataset": 5}])
    def test_provenance_not_an_object_exits_3(self, trained, tmp_path, capsys, provenance):
        assert score_edited(trained, tmp_path, lambda p: p.update(provenance=provenance)) == 3
        assert "provenance" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg_hash", [5, None, "1d34\n# master_seed=0"])
    def test_config_hash_not_a_hex_string_exits_3(self, trained, tmp_path, capsys, cfg_hash):
        def edit(payload):
            payload["provenance"]["config_hash"] = cfg_hash

        assert score_edited(trained, tmp_path, edit) == 3
        assert "config_hash" in capsys.readouterr().err
        assert not (tmp_path / "s" / "scores.csv").exists()


@st.composite
def model_payloads(draw):
    """A model.json payload: a random ensemble and a provenance block."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tokens = draw(st.lists(st.characters(), min_size=2, max_size=5, unique=True))
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    n_pos, n_neg = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    seed = st.integers(0, 2**64 - 1)
    train = TrainConfig(max_iters=draw(st.integers(1, 50)), tol=draw(st.floats(0.0, 1.0)),
                        floor=draw(st.floats(0.0, 1e-3)))
    config = EnsembleConfig(n_pos_models=n_pos, n_neg_models=n_neg,
                            subset_fraction=draw(st.floats(1e-9, 1.0)),
                            state_counts=tuple(counts), train=train, master_seed=draw(seed))
    models = [oracles.random_model(rng, counts[k % len(counts)], len(tokens))
              for k in range(n_pos + n_neg)]
    model = EnsembleModel(models[:n_pos], models[n_pos:], Vocabulary(tokens), config,
                          seeds=[(draw(seed), draw(seed)) for _ in models])
    payload = model.to_dict()
    payload["provenance"] = {
        "config_hash": draw(st.text(alphabet="0123456789abcdef", min_size=1, max_size=16)),
        "master_seed": config.master_seed,
        "dataset": {"source": draw(st.text()), "imbalance_ratio": draw(
            st.one_of(st.none(), st.just(0.0), st.floats(1.0, 1e3)))},
    }
    return model, payload


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(model_payloads())
    def test_model_json(self, drawn):
        model, payload = drawn
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first.json", Path(tmp) / "second.json"
            _write_json(first, payload)
            loaded, provenance, _, _ = _load_model(str(first))
            assert loaded.to_dict() == model.to_dict()
            assert (loaded.config, loaded.vocabulary, loaded.seeds) == (
                model.config, model.vocabulary, model.seeds)
            assert provenance == payload["provenance"]
            _write_json(second, {**loaded.to_dict(), "provenance": provenance})
            assert second.read_bytes() == first.read_bytes()


def json_paths(node, path=()):
    """The path of every value below the root of a JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


class TestMutatedModelFile:
    """One field of model.json swapped for a value of another type, or deleted:
    score and evaluate either run or exit 3, never with an uncaught exception.
    An integer of the model itself (outside ``provenance``) swapped for
    anything but an integer always exits 3."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_score_and_evaluate_exit_0_or_3(self, trained, data):
        corpus, model = trained
        payload = json.loads(model.read_text(encoding="utf-8"))
        path = data.draw(st.sampled_from(sorted(json_paths(payload), key=repr)))
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        old, strict = parent[path[-1]], False
        if isinstance(path[-1], str) and data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            new = data.draw(st.sampled_from([None, True, 0, -1, 1.5, 2**70, "", "x", [], {}]))
            parent[path[-1]] = new
            strict = path[0] != "provenance" and type(old) is int and type(new) is not int
        with tempfile.TemporaryDirectory() as tmp:
            bad = Path(tmp) / "model.json"
            bad.write_text(json.dumps(payload), encoding="utf-8")
            for command in ("score", "evaluate"):
                code = main([command, "--model", str(bad), "--data", str(corpus),
                             "--out", str(Path(tmp) / command)])
                assert code == 3 if strict else code in (0, 3)


class TestNumericFailure:
    def test_impossible_sequence_features_exit_4(self, trained, tmp_path, capsys):
        # the first positive model emits only token 0, and the corpus holds every token
        corpus, model = trained
        payload = json.loads(model.read_text(encoding="utf-8"))
        first = payload["positive_models"][0]
        first["B"] = [[1.0, 0.0, 0.0]] * first["n"]
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["features", "--model", str(bad), "--data", str(corpus),
                     "--out", str(tmp_path / "f")]) == 4
        err = capsys.readouterr().err
        assert "numeric failure: sequence 0: " in err and "model column 0 " in err
        assert not (tmp_path / "f" / "features.csv").exists()

    def test_division_by_zero_exits_4(self, trained, tmp_path, capsys, monkeypatch):
        def dividing(model, ll):
            return (np.ones(len(ll)) / 0.0).tolist()

        corpus, model = trained
        monkeypatch.setattr(ens, "matchup_scores", dividing)
        assert main(["score", "--model", str(model), "--data", str(corpus),
                     "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert "numeric failure: divide by zero" in err and "Traceback" not in err
        assert not (tmp_path / "scores.csv").exists()


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

    @pytest.mark.parametrize("mismatch", ["rows", "width"])
    def test_eval_mismatch_exits_3_before_training(self, trained, tmp_path, capsys,
                                                   monkeypatch, mismatch):
        corpus, model = trained
        assert main(["features", "--model", str(model), "--data", str(corpus),
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "features.csv").read_text(encoding="utf-8").splitlines()
        if mismatch == "rows":  # one eval label short of the eval features
            labels = corpus.read_text(encoding="utf-8").splitlines()
            eval_labels = tmp_path / "eval_labels.csv"
            eval_labels.write_text("\n".join(labels[:-1]) + "\n", encoding="utf-8")
            eval_features = tmp_path / "features.csv"
        else:  # eval features one column narrower than the training features
            eval_labels = corpus
            eval_features = tmp_path / "narrow.csv"
            eval_features.write_text(
                "\n".join(line if line.startswith("#") else line.rsplit(",", 1)[0]
                          for line in lines) + "\n",
                encoding="utf-8")

        def no_training(*args):
            raise AssertionError("mlp_train ran")

        monkeypatch.setattr(mlp, "mlp_train", no_training)
        assert main(["classify-nn", "--features", str(tmp_path / "features.csv"),
                     "--labels", str(corpus), "--eval-features", str(eval_features),
                     "--eval-labels", str(eval_labels), "--out", str(tmp_path / "nn")]) == 3
        assert "eval" in capsys.readouterr().err
        assert not (tmp_path / "nn" / "mlp.json").exists()


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


    @pytest.mark.parametrize("flag", ["--features", "--eval-features"])
    def test_no_feature_columns_exits_3(self, trained, tmp_path, capsys, flag):
        corpus, model = trained
        assert main(["features", "--model", str(model), "--data", str(corpus),
                     "--out", str(tmp_path)]) == 0
        index_only = tmp_path / "index.csv"
        index_only.write_text("index\n" + "".join(f"{i}\n" for i in range(20)), encoding="utf-8")
        files = dict.fromkeys(["--features", "--eval-features"], tmp_path / "features.csv")
        files[flag] = index_only
        argv = ["classify-nn", "--labels", str(corpus), "--eval-labels", str(corpus),
                "--out", str(tmp_path / "nn")]
        for name, path in files.items():
            argv += [name, str(path)]
        assert main(argv) == 3
        assert f"{index_only}: no feature columns" in capsys.readouterr().err
        assert not (tmp_path / "nn" / "mlp.json").exists()


class TestDataSection:
    @pytest.mark.parametrize("ratio", ["-3", "0.5"])
    def test_bad_imbalance_ratio_exits_2_before_the_csv_is_read(self, tmp_path, capsys, ratio):
        # the corpus does not exist, so reaching it would exit 3
        config = write_config(tmp_path / "run.ini", tmp_path / "missing.csv")
        config.write_text(config.read_text(encoding="utf-8").replace(
            "[data]\n", f"[data]\nimbalance_ratio = {ratio}\n"), encoding="utf-8")
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "imbalance_ratio must be 0 or >= 1" in err and "Traceback" not in err

    def test_library_config_accepts_zero_or_a_ratio_of_at_least_one(self):
        for ratio in (0.0, 1.0, 50.0):
            assert DataConfig(imbalance_ratio=ratio).imbalance_ratio == ratio
        for ratio in (-3.0, 0.5, np.nan):
            with pytest.raises(ParameterError):
                DataConfig(imbalance_ratio=ratio)


class TestSeeds:
    """A seed is a non-negative int: a bad flag or config value exits 2, a bad
    model file value exits 3, and none ends in a traceback."""

    @pytest.mark.parametrize("seed", ["-5", "1.5"])
    @pytest.mark.parametrize("command", ["train", "evaluate", "generate", "classify-nn"])
    def test_bad_flag_exits_2(self, trained, tmp_path, capsys, command, seed):
        corpus, model = trained
        inputs = {
            "train": ["--config", str(write_config(tmp_path / "run.ini", corpus))],
            "evaluate": ["--model", str(model), "--data", str(corpus)],
            "generate": ["--model", str(model), "--label", "1", "--count", "2",
                         "--length", "3"],
            "classify-nn": ["--features", str(corpus), "--labels", str(corpus)],
        }[command]
        with pytest.raises(SystemExit) as info:
            main([command, *inputs, "--seed", seed, "--out", str(tmp_path / "o")])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--seed: must be a non-negative integer" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, old, new", [
        ("train", "master_seed = 7", "master_seed = -1"),
        ("train", "[data]\n", "[data]\nimbalance_ratio = 2\nimbalance_seed = -3\n"),
        ("classify-nn", "seed = 3", "seed = -1"),
    ])
    def test_bad_config_value_exits_2(self, trained, tmp_path, capsys, command, old, new):
        corpus, model = trained
        config = write_config(tmp_path / "run.ini", corpus)
        config.write_text(config.read_text(encoding="utf-8").replace(old, new),
                          encoding="utf-8")
        assert main(["features", "--model", str(model), "--data", str(corpus),
                     "--out", str(tmp_path)]) == 0
        inputs = {
            "train": [],
            "classify-nn": ["--features", str(tmp_path / "features.csv"),
                            "--labels", str(corpus)],
        }[command]
        assert main([command, *inputs, "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "seed must be a non-negative integer" in err and "Traceback" not in err

    @pytest.mark.parametrize("old, new", [("dropout = 0.0", "dropout = 2"),
                                          ("seed = 3", "seed = -1")])
    def test_bad_mlp_section_stops_train(self, trained, tmp_path, capsys, old, new):
        # train never uses [mlp], but it loads and checks every section
        corpus, _ = trained
        config = write_config(tmp_path / "run.ini", corpus)
        config.write_text(config.read_text(encoding="utf-8").replace(old, new),
                          encoding="utf-8")
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert new.split()[0] in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    @pytest.mark.parametrize("command", ["score", "evaluate"])
    def test_bad_model_file_value_exits_3(self, trained, tmp_path, capsys, command, seed):
        corpus, model = trained
        payload = json.loads(model.read_text(encoding="utf-8"))
        payload["config"]["master_seed"] = seed
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert main([command, "--model", str(bad), "--data", str(corpus),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "master_seed must be a non-negative integer" in err and "Traceback" not in err


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

    def test_non_finite_scores_rejected_at_a_threshold(self):
        with pytest.raises(ParameterError, match="scores must be finite"):
            confusion_at([0, 1, 1], [np.nan, 1, np.nan], 0.5)
        with pytest.raises(ParameterError, match="scores must be finite"):
            ens.classify([np.nan, 1], 0.5)


def test_generate_without_seed_is_reproducible(trained, tmp_path):
    _, model = trained
    args = ["generate", "--model", str(model), "--label", "0", "--count", "5",
            "--length", "9"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "generated.csv").read_bytes()
    assert first == (tmp_path / "b" / "generated.csv").read_bytes()
    assert b"# master_seed=7\n" in first  # the model's master seed


def test_cli_import_leaves_scipy_optimize_out(trained, tmp_path):
    # numpy is the only runtime dependency: a diversity run loads no scipy module
    _, model = trained
    src = str(Path(hmm_ensemble.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from hmm_ensemble.cli import main\n"
        "code = main(['diversity', '--model', sys.argv[1], '--out', sys.argv[2]])\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "sys.exit(code or (f'scipy modules loaded: {loaded}' if loaded else 0))\n"
    )
    run = subprocess.run([sys.executable, "-c", code, str(model), str(tmp_path)], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "similarity.csv").is_file()


def test_classify_nn_leaves_numpy_ma_out(trained, tmp_path):
    # np.unique imports numpy.ma; the MLP's class weights count labels without it
    corpus, model = trained
    assert main(["features", "--model", str(model), "--data", str(corpus),
                 "--out", str(tmp_path)]) == 0
    src = str(Path(hmm_ensemble.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from hmm_ensemble.cli import main\n"
        "code = main(['classify-nn', '--features', sys.argv[1], '--labels', sys.argv[2],\n"
        "             '--out', sys.argv[3]])\n"
        "sys.exit(code or ('numpy.ma loaded' if 'numpy.ma' in sys.modules else 0))\n"
    )
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path / "features.csv"),
                          str(corpus), str(tmp_path / "nn")],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "nn" / "mlp.json").is_file()


class TestRealSettings:
    """A real-valued setting or argument is a finite int or float, never a
    bool, inside its range: anything else is a ParameterError, and a valid
    value is kept as given."""

    @pytest.mark.parametrize("build", [
        lambda v: TrainConfig(tol=v), lambda v: TrainConfig(floor=v),
        lambda v: EnsembleConfig(subset_fraction=v), lambda v: DataConfig(imbalance_ratio=v),
        lambda v: MlpConfig(learning_rate=v), lambda v: MlpConfig(dropout=v),
        lambda v: MlpModel(2, (), dropout=v),
    ], ids=["tol", "floor", "subset_fraction", "imbalance_ratio", "learning_rate",
            "dropout", "model-dropout"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, True, "0.5"])
    def test_config_field_rejects(self, build, value):
        with pytest.raises(ParameterError):
            build(value)

    @pytest.mark.parametrize("call", [
        lambda v: subsample_imbalance(tiny_dataset(), v, 0),
        lambda v: split_indices([0, 0, 1, 1], v, 0),
        lambda v: expected_unsampled_fraction(v, 3),
        lambda v: classify([0.0, 1.0], v),
        lambda v: confusion_at([0, 1], [0.0, 1.0], v),
        lambda v: EvalReport.from_scores([0, 1], [0.0, 1.0], v),
    ], ids=["subsample_imbalance", "split_indices", "expected_unsampled_fraction", "classify",
            "confusion_at", "from_scores"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, False])
    def test_argument_rejects(self, call, value):
        with pytest.raises(ParameterError):
            call(value)

    @pytest.mark.parametrize("call", [
        lambda v: subsample_imbalance(tiny_dataset(), 1, v),
        lambda v: split_indices([0, 0, 1, 1], 0.5, v),
        lambda v: expected_unsampled_fraction(0.5, v),
    ], ids=["subsample_imbalance-seed", "split_indices-seed", "unsampled-n_models"])
    @pytest.mark.parametrize("value", [-1, True, 1.5])
    def test_integer_argument_rejects(self, call, value):
        # numpy's default_rng raised a bare ValueError for -1; True and 1.5 passed
        with pytest.raises(ParameterError):
            call(value)

    def test_values_are_checked_not_converted(self):
        assert type(TrainConfig(tol=0).tol) is int
        assert type(EnsembleConfig(subset_fraction=np.float32(0.5)).subset_fraction) is np.float32

    @pytest.mark.parametrize("interval, inside, outside", [
        ("(0, 1]", [1, 1e-300, 0.5], [0, 1.0000001, -1, 10**400]),
        ("[0, 1)", [0, 0.999], [1, -1e-300]),
        ("[1, inf)", [1, 1e300, 10**400], [0.999]),
        (None, [-1e300, 0, np.int64(3), np.float32(2.5)], [np.bool_(True), None, [1.0]]),
    ])
    def test_check_real_bounds(self, interval, inside, outside):
        for value in inside:
            assert check_real("x", value, interval) is value
        for value in outside:
            with pytest.raises(ParameterError, match="x must be a finite number"):
                check_real("x", value, interval)


def tiny_dataset():
    return LabeledDataset([np.array([0, 1])] * 4, [1, 1, 0, 0], Vocabulary(["a", "b"]),
                          Provenance(source="rows"))


class TestRealModelFields:
    @pytest.mark.parametrize("edit", [
        lambda p: p["config"].update(subset_fraction=True),
        lambda p: p["config"]["train"].update(tol=True),
        lambda p: p["config"]["train"].update(floor=False),
        lambda p: p["config"]["train"].update(tol="INF_TOKEN"),
    ], ids=["bool-subset-fraction", "bool-tol", "bool-floor", "overflowing-tol"])
    def test_bad_real_exits_3(self, trained, tmp_path, capsys, edit):
        _, model = trained
        payload = json.loads(model.read_text(encoding="utf-8"))
        edit(payload)
        bad = tmp_path / "model.json"
        # 1e999 is a JSON number that json reads as inf
        bad.write_text(json.dumps(payload).replace('"INF_TOKEN"', "1e999"), encoding="utf-8")
        assert main(["diversity", "--model", str(bad), "--out", str(tmp_path / "d")]) == 3
        err = capsys.readouterr().err
        assert "must be a finite number" in err and "Traceback" not in err
        assert not (tmp_path / "d").exists()


class TestProvenanceRatio:
    """provenance.dataset.imbalance_ratio reaches evaluation.json, so it is
    null or a ratio [data] accepts."""

    def evaluate_with(self, trained, tmp_path, ratio_text: str) -> int:
        corpus, model = trained
        payload = json.loads(model.read_text(encoding="utf-8"))
        payload["provenance"]["dataset"]["imbalance_ratio"] = "RATIO"
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(payload).replace('"RATIO"', ratio_text), encoding="utf-8")
        return main(["evaluate", "--model", str(bad), "--data", str(corpus),
                     "--out", str(tmp_path / "e")])

    @pytest.mark.parametrize("ratio", ["1e999", '"2"', "[2]", "0.5", "-1", "true"])
    def test_bad_ratio_exits_3(self, trained, tmp_path, capsys, ratio):
        assert self.evaluate_with(trained, tmp_path, ratio) == 3
        err = capsys.readouterr().err
        assert "provenance.dataset.imbalance_ratio must be" in err and "Traceback" not in err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("ratio, written", [("null", None), ("2.5", 2.5), ("0", 0)])
    def test_valid_ratio_is_copied(self, trained, tmp_path, ratio, written):
        assert self.evaluate_with(trained, tmp_path, ratio) == 0
        report = json.loads((tmp_path / "e" / "evaluation.json").read_text(encoding="utf-8"))
        assert report["provenance"]["imbalance_ratio"] == written


class TestClassifyNnClasses:
    """Labels that cannot train the MLP, or cannot be reported on, exit 3
    before training and name the labels file."""

    @pytest.mark.parametrize("flag, positives, negatives", [
        ("--labels", 0, 10), ("--labels", 1, 10), ("--eval-labels", 10, 0),
    ], ids=["one-class-labels", "single-positive-labels", "one-class-eval-labels"])
    def test_exits_3_before_training(self, trained, tmp_path, capsys, monkeypatch,
                                     flag, positives, negatives):
        corpus, model = trained
        header, *rows = corpus.read_text(encoding="utf-8").splitlines()
        pos = [row for row in rows if row.endswith(",1")]
        neg = [row for row in rows if row.endswith(",0")]
        labels = tmp_path / "labels.csv"
        labels.write_text("\n".join([header] + pos[:positives] + neg[:negatives]) + "\n",
                          encoding="utf-8")
        for data, out in ((labels, "part"), (corpus, "all")):
            assert main(["features", "--model", str(model), "--data", str(data),
                         "--out", str(tmp_path / out)]) == 0
        part, full = tmp_path / "part" / "features.csv", tmp_path / "all" / "features.csv"
        if flag == "--labels":
            inputs = ["--features", part, "--labels", labels]
        else:
            inputs = ["--features", full, "--labels", corpus,
                      "--eval-features", part, "--eval-labels", labels]

        def no_training(*args):
            raise AssertionError("mlp_train ran")

        monkeypatch.setattr(mlp, "mlp_train", no_training)
        assert main(["classify-nn", *map(str, inputs), "--out", str(tmp_path / "nn")]) == 3
        err = capsys.readouterr().err
        assert f"data error: {labels}: " in err and "need at least" in err
        assert not (tmp_path / "nn").exists()


class TestIntegerFlags:
    """An integer flag, and the real --calibration-fraction, is checked at
    parse time, before any file is read: a bad value exits 2 even when the
    named input does not exist."""

    @pytest.mark.parametrize("argv, message", [
        (["train", "--config", "missing.ini", "--threads", "-1"],
         "--threads: must be a non-negative integer"),
        (["train", "--config", "missing.ini", "--threads", "1.5"],
         "--threads: must be a non-negative integer"),
        (["generate", "--model", "missing.json", "--label", "1", "--count", "0",
          "--length", "3"], "--count: must be an integer >= 1"),
        (["generate", "--model", "missing.json", "--label", "1", "--count", "2",
          "--length", "0"], "--length: must be an integer >= 1"),
        (["evaluate", "--model", "missing.json", "--data", "missing.csv", "--seed", "-1"],
         "--seed: must be a non-negative integer"),
        *((["evaluate", "--model", "missing.json", "--data", "missing.csv",
            "--calibration-fraction", value],
           "--calibration-fraction: must be a finite number in (0, 1)")
          for value in ("0", "1", "1.5", "nan", "inf")),
    ], ids=["negative-threads", "float-threads", "zero-count", "zero-length", "negative-seed",
            *(f"calibration-fraction-{v}" for v in ("0", "1", "1.5", "nan", "inf"))])
    def test_bad_value_exits_2_at_parse_time(self, tmp_path, capsys, argv, message):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--out", str(tmp_path / "o")])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_zero_threads_means_every_core(self, trained, tmp_path):
        corpus, model = trained
        config = write_config(tmp_path / "run.ini", corpus)
        assert main(["train", "--config", str(config), "--threads", "0",
                     "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "model.json").read_bytes() == model.read_bytes()


class TestOutFlag:
    """--out is checked when the command line is parsed: a path that is, or
    lies under, a regular file exits 2 before any input is read."""

    @pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-file"])
    def test_regular_file_exits_2_at_parse_time(self, tmp_path, capsys, under):
        blocker = tmp_path / "file"
        blocker.write_text("x", encoding="utf-8")
        with pytest.raises(SystemExit) as info:
            main(["diversity", "--model", str(tmp_path / "missing.json"),
                  "--out", str(blocker / under)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"{blocker} is not a directory" in err and "Traceback" not in err

    def test_new_nested_directory_is_created(self, trained, tmp_path):
        _, model = trained
        out = tmp_path / "a" / "b"
        assert main(["diversity", "--model", str(model), "--out", str(out)]) == 0
        assert (out / "similarity.csv").is_file()


class TestOutOfMemory:
    """An input whose arrays exceed the address space exits 5 with one line
    naming the command, and writes nothing."""

    @pytest.mark.skipif(not Path("/proc/self/statm").is_file(), reason="needs /proc/self/statm")
    @pytest.mark.parametrize("old, new, args", [
        ("state_counts = 2,3", "state_counts = 30000", ["train", "--config", "{config}"]),
        ("n_pos_models = 2", "n_pos_models = 1000000000", ["train", "--config", "{config}"]),
        ("", "", ["generate", "--model", "{model}", "--label", "1", "--count", "1",
                  "--length", "1000000000"]),
    ], ids=["state_counts", "n_pos_models", "generate-length"])
    def test_exits_5(self, trained, tmp_path, old, new, args):
        corpus, model = trained
        config = write_config(tmp_path / "run.ini", corpus)
        config.write_text(config.read_text(encoding="utf-8").replace(old, new),
                          encoding="utf-8")
        argv = [a.format(config=config, model=model) for a in args]
        # the child caps its own address space 1.5 GB above what it has mapped
        # once the package is imported, so the cap does not depend on the host
        code = (
            "import resource, sys\n"
            "from hmm_ensemble.cli import main\n"
            "with open('/proc/self/statm') as fh:\n"
            "    cap = int(fh.read().split()[0]) * resource.getpagesize() + 1_500_000_000\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = str(Path(hmm_ensemble.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(tmp_path / "o")],
                             env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 5, run.stderr
        assert run.stderr.startswith(f"out of memory: {args[0]}: ")
        assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr
        assert not (tmp_path / "o").exists()
