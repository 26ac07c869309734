"""Property: a corpus CSV, feature CSV or INI file with a few characters
deleted, inserted or repeated never ends a command in an uncaught exception.

Each example mutates one input of a small run and hands it to train, score,
evaluate, features or classify-nn in-process; the command exits 0, 2, 3 or
4, and a command that fails leaves nothing in its output directory.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmm_ensemble.cli import main
from test_cli import write_config, write_corpus

# characters that mean something to one of the three formats, plus plain ones
ALPHABET = list(",\n\r#[]=;%-+.e0129abcx \"'") + ["é", "\x00"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutated")
    corpus = write_corpus(root / "train.csv", n_per_class=8, length=10)
    config = write_config(root / "run.ini", corpus, n_models=1)
    assert main(["train", "--config", str(config), "--out", str(root)]) == 0
    assert main(["features", "--model", str(root / "model.json"), "--data", str(corpus),
                 "--out", str(root)]) == 0
    return {"corpus": corpus, "config": config, "model": root / "model.json",
            "features": root / "features.csv"}


def argv_for(command: str, files: dict) -> list[str]:
    model, corpus = str(files["model"]), str(files["corpus"])
    return {
        "train": ["train", "--config", str(files["config"])],
        "score": ["score", "--model", model, "--data", corpus],
        "evaluate": ["evaluate", "--model", model, "--data", corpus],
        "features": ["features", "--model", model, "--data", corpus],
        "classify-nn": ["classify-nn", "--features", str(files["features"]), "--labels", corpus,
                        "--config", str(files["config"])],
    }[command]


# the commands that read each mutable input
READERS = {
    "corpus": ["train", "score", "evaluate", "features", "classify-nn"],
    "features": ["classify-nn"],
    "config": ["train", "classify-nn"],
}

edits = st.lists(st.tuples(st.sampled_from(["delete", "insert", "repeat"]),
                           st.integers(0, 10**6), st.integers(1, 8), st.sampled_from(ALPHABET)),
                 min_size=1, max_size=3)


def mutate(text: str, ops) -> str:
    for op, where, size, char in ops:
        at = where % (len(text) + 1)
        if op == "delete":
            text = text[:at] + text[at + 1:]
        elif op == "insert":
            text = text[:at] + char + text[at:]
        else:
            text = text[:at] + text[at:at + size] + text[at:]
    return text


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(READERS)), edits, st.data())
def test_mutated_input_exits_with_a_documented_code(inputs, name, ops, data):
    command = data.draw(st.sampled_from(READERS[name]))
    with tempfile.TemporaryDirectory() as tmp:
        files = dict(inputs)
        files[name] = Path(tmp) / inputs[name].name
        text = mutate(inputs[name].read_text(encoding="utf-8"), ops)
        files[name].write_text(text, encoding="utf-8")
        if name == "corpus":  # the config names the corpus train reads
            files["config"] = write_config(Path(tmp) / "run.ini", files["corpus"], n_models=1)
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv_for(command, files) + ["--out", str(out)])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        if code != 0:
            assert not out.exists() or not any(out.iterdir())
