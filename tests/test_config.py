import dataclasses
import re
import tempfile
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmm_ensemble import EnsembleConfig, MlpConfig, ParameterError, TrainConfig
from hmm_ensemble.cli import main
from hmm_ensemble.config import (
    SECTIONS,
    DataConfig,
    RunConfig,
    load_run_config,
    resolved_config_text,
)
from hmm_ensemble.data import split_indices
from test_cli import write_config, write_corpus

README = Path(__file__).resolve().parents[1] / "README.md"

README_RESOLVED = """\
data.imbalance_ratio = 0.0
data.imbalance_seed = 1234
data.train_csv = train.csv
ensemble.master_seed = 42
ensemble.n_neg_models = 250
ensemble.n_pos_models = 250
ensemble.state_counts = 3,4,5
ensemble.subset_fraction = 0.01
train.floor = 1e-10
train.max_iters = 25
train.tol = 0.0001
mlp.batch_size = 64
mlp.dropout = 0.25
mlp.epochs = 16
mlp.hidden_dims = 512,256,128
mlp.learning_rate = 0.001
mlp.seed = 0
"""


def field_names(cls, *excluded):
    return {f.name for f in dataclasses.fields(cls)} - set(excluded)


FLOAT_KEYS = [
    (section, name)
    for section, (cls, excluded) in SECTIONS.items()
    for name, kind in typing.get_type_hints(cls).items()
    if kind is float and name not in excluded
]


def write_ini(cfg: RunConfig, path: Path) -> None:
    lines = []
    for section, values in cfg.sections.items():
        lines.append(f"[{section}]")
        for key, value in values.items():
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            if value is not None:  # None is the absence of the key
                lines.append(f"{key} = {value}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# Values of each field type; paths hold no whitespace, '#' or ';', which
# would start an inline comment. Loading checks every value's range: each
# integer field takes any integer from 1 up, and each float key draws from
# its own range (FLOATS).
VALUES = {
    int: st.integers(1, 2**64),
    tuple[int, ...]: st.lists(st.integers(1, 999), min_size=1, max_size=4).map(tuple),
    str | None: st.none() | st.text(alphabet="abcXYZ019/._-%:=\u00e9", min_size=1),
}


FLOATS = {
    "imbalance_ratio": st.just(0.0) | st.floats(1.0, allow_infinity=False),
    "subset_fraction": st.floats(0.0, 1.0, exclude_min=True),
    "tol": st.floats(0.0, allow_infinity=False),
    "floor": st.floats(0.0, allow_infinity=False),
    "dropout": st.floats(0.0, 1.0, exclude_max=True),
    "learning_rate": st.floats(0.0, allow_infinity=False, exclude_min=True),
}


def run_configs():
    """Every key of every section, in the order RunConfig keeps them."""
    layout = RunConfig().sections

    def values_of(section, name):
        kind = typing.get_type_hints(SECTIONS[section][0])[name]
        return FLOATS[name] if kind is float else VALUES[kind]

    drawn = st.fixed_dictionaries({
        section: st.fixed_dictionaries({name: values_of(section, name) for name in values})
        for section, values in layout.items()
    })
    return drawn.map(lambda d: RunConfig(
        sections={section: {name: d[section][name] for name in values}
                  for section, values in layout.items()}))


def percent_path_config():
    cfg = RunConfig()
    cfg.sections["data"]["train_csv"] = "data/100%_%(x)s.csv"
    return cfg


class TestConfigLayer:
    @settings(max_examples=80, deadline=None)
    @given(run_configs())
    @example(percent_path_config())
    def test_ini_round_trip(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first.ini", Path(tmp) / "second.ini"
            write_ini(cfg, first)
            loaded = load_run_config(first)
            assert loaded == cfg
            write_ini(loaded, second)
            assert second.read_bytes() == first.read_bytes()

    def test_readme_example_resolves_to_pinned_text(self, tmp_path):
        example = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        path = tmp_path / "run.ini"
        path.write_text(example.group(1), encoding="utf-8")
        assert resolved_config_text(load_run_config(path)) == README_RESOLVED

    def test_sections_are_dataclass_fields(self):
        sections = RunConfig().sections
        assert list(sections) == ["data", "ensemble", "train", "mlp"]
        assert set(sections["data"]) == field_names(DataConfig)
        assert set(sections["ensemble"]) == field_names(EnsembleConfig, "train")
        assert set(sections["train"]) == field_names(TrainConfig)
        assert set(sections["mlp"]) == field_names(MlpConfig)

    def test_defaults_are_the_library_defaults(self):
        cfg = RunConfig()
        assert cfg.ensemble_config() == EnsembleConfig()
        assert cfg.mlp == MlpConfig()
        assert cfg.data == DataConfig()

    def test_resolved_text_round_trips(self, tmp_path):
        text = resolved_config_text(RunConfig())
        ini = {}
        for line in text.splitlines():
            key, value = line.split(" = ")
            section, name = key.split(".")
            ini.setdefault(section, [f"[{section}]"])
            if name != "train_csv":  # None is the absence of the key
                ini[section].append(f"{name} = {value}")
        path = tmp_path / "run.ini"
        path.write_text("\n".join(sum(ini.values(), [])) + "\n", encoding="utf-8")
        assert resolved_config_text(load_run_config(path)) == text

    def test_calibration_fraction_key_is_gone(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[data]\ncalibration_fraction = 0.2\n", encoding="utf-8")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "calibration_fraction" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["sequence_column", "label_column"])
    def test_column_keys_are_gone(self, tmp_path, capsys, key):
        path = tmp_path / "run.ini"
        path.write_text(f"[data]\n{key} = sequence\n", encoding="utf-8")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section, key", FLOAT_KEYS)
    def test_non_finite_float_exits_2(self, tmp_path, capsys, section, key, value):
        path = tmp_path / "run.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"[{section}] {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("data", "imbalance_seed", "-1"), ("ensemble", "n_pos_models", "0"),
        ("train", "max_iters", "0"), ("mlp", "dropout", "2"), ("mlp", "batch_size", "0"),
    ])
    def test_out_of_range_value_fails_at_load(self, tmp_path, section, key, value):
        path = tmp_path / "run.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
        with pytest.raises(ParameterError, match=key):
            load_run_config(path)

    def test_unknown_section_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[ensembel]\nn_pos_models = 3\n", encoding="utf-8")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "[ensembel]" in capsys.readouterr().err

    def test_unparsable_list_names_section_and_key(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[mlp]\nhidden_dims = 8,x\n", encoding="utf-8")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "[mlp] hidden_dims" in capsys.readouterr().err


class TestFlags:
    @pytest.mark.parametrize("command", ["score", "features", "diversity"])
    @pytest.mark.parametrize("flag", ["--threads", "--seed"])
    def test_unused_flags_rejected(self, command, flag, tmp_path):
        argv = [command, "--model", "m.json", "--out", str(tmp_path), flag, "1"]
        if command != "diversity":
            argv += ["--data", "d.csv"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def loop_split(labels, fraction, seed):
    """The per-command calibration split that evaluate used to carry."""
    rng = np.random.default_rng(seed)
    calib, held_out = [], []
    for label in (0, 1):
        class_idx = np.flatnonzero(labels == label)
        n_cal = max(1, int(np.floor(class_idx.size * fraction + 0.5)))
        perm = rng.permutation(class_idx)
        calib.extend(perm[:n_cal])
        held_out.extend(perm[n_cal:])
    return np.sort(np.array(calib)), np.sort(np.array(held_out))


class TestSharedSplit:
    @pytest.mark.parametrize("n_pos,n_neg,fraction,seed", [
        (40, 40, 0.2, 7), (5, 250, 0.3, 1), (13, 29, 0.5, 3), (100, 8, 0.1, 0),
    ])
    def test_matches_previous_evaluate_split(self, n_pos, n_neg, fraction, seed):
        labels = np.random.default_rng(seed).permutation([1] * n_pos + [0] * n_neg)
        ours = split_indices(labels, fraction, seed)
        theirs = loop_split(labels, fraction, seed)
        assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))

    def test_evaluate_class_too_small_exits_3(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "train.csv", n_per_class=10, length=12)
        config = write_config(tmp_path / "run.ini", corpus)
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        lines = corpus.read_text(encoding="utf-8").splitlines()
        positives = [line for line in lines if line.endswith(",1")]
        negatives = [line for line in lines if line.endswith(",0")]
        small = tmp_path / "small.csv"
        small.write_text("\n".join([lines[0]] + positives[:2] + negatives) + "\n",
                         encoding="utf-8")
        # round-half-up(2 * 0.2) = 0 positives to calibrate on
        code = main(["evaluate", "--model", str(out / "model.json"), "--data", str(small),
                     "--calibration-fraction", "0.2", "--out", str(tmp_path / "e")])
        assert code == 3
        assert "class 1" in capsys.readouterr().err
