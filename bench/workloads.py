"""The benchmark's workloads: their inputs, one round of each, and its checks.

A round runs the whole workload once in fresh processes and checks every
output against the reference computations. It returns the round's
end-to-end times, its per-layer trace (traced rounds only), how many program
operations it attempted and how many failed, and the problems found.
"""

from __future__ import annotations

import csv
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
import layertrace
import reference as ref

HERE = Path(__file__).resolve().parent
N_SAMPLE = 12  # test sequences whose likelihoods are recomputed each round


@dataclass(frozen=True)
class Shape:
    n_pos_models: int
    n_neg_models: int
    subset_fraction: float
    max_iters: int
    state_counts: tuple = (3, 4, 5)


@dataclass(frozen=True)
class Workload:
    name: str
    api: str  # "library" or "cli"
    shape: Shape
    train: tuple  # (n_pos, n_neg, (min_len, max_len))
    test: tuple
    auc_floor: float | None  # None: the ensemble is not expected to separate here


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk", "library", Shape(20, 20, 0.1, 8),
                 train=(300, 300, (200, 200)), test=(300, 300, (200, 200)), auc_floor=0.55),
        Workload("skewed-mixed", "library", Shape(20, 20, 0.02, 6),
                 train=(5, 250, (20, 120)), test=(50, 50, (20, 120)), auc_floor=None),
        Workload("paper-cli", "cli", Shape(250, 250, 0.01, 8),
                 train=(100, 100, (50, 50)), test=(40, 40, (250, 250)), auc_floor=0.55),
    )
}

RUN_INI = """[data]
train_csv = {train_csv}

[ensemble]
n_pos_models = {s.n_pos_models}
n_neg_models = {s.n_neg_models}
subset_fraction = {s.subset_fraction}
state_counts = {states}
master_seed = 42

[train]
max_iters = {s.max_iters}
tol = 1e-4
floor = 1e-10
"""


@dataclass
class Inputs:
    dir: Path
    workload: Workload
    test_seqs: list
    test_labels: np.ndarray
    sample: list
    digest: str


def make_inputs(workload: Workload, seed: int, out_dir: Path) -> Inputs:
    """Generate the CSVs, config and reference sample from ``seed`` alone."""
    rng = np.random.default_rng(seed)

    def lengths(span):
        # Spread evenly over the span and fixed by index, so every seed gives
        # the same amount of work; the seed draws the tokens.
        return lambda k: np.linspace(span[0], span[1], k).round().astype(np.int64)

    n_pos, n_neg, span = workload.train
    train_seqs, train_labels = gen.make_corpus(rng, n_pos, n_neg, lengths(span))
    n_pos, n_neg, span = workload.test
    test_seqs, test_labels = gen.make_corpus(rng, n_pos, n_neg, lengths(span))
    sample = sorted(int(i) for i in rng.choice(len(test_seqs), N_SAMPLE, replace=False))
    out_dir.mkdir(parents=True, exist_ok=True)
    gen.write_csv(out_dir / "train.csv", train_seqs, train_labels)
    gen.write_csv(out_dir / "test.csv", test_seqs, test_labels)
    shape = workload.shape
    (out_dir / "run.ini").write_text(RUN_INI.format(
        train_csv=out_dir / "train.csv", s=shape,
        states=",".join(map(str, shape.state_counts))))
    (out_dir / "sample.json").write_text(json.dumps(sample))
    return Inputs(out_dir, workload, test_seqs, test_labels, sample,
                  gen.digest([out_dir / "train.csv", out_dir / "test.csv"]))


@dataclass
class Child:
    code: int
    start: float
    end: float
    maxrss_mb: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


def run_child(argv, log_path: Path, deadline: float) -> Child:
    """Run a process to its end; peak RSS covers it and every process it reaped."""
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with open(log_path, "ab") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
    reaped = {}

    def reap():
        _, status, usage = os.wait4(proc.pid, 0)
        reaped.update(end=time.monotonic(), status=status, usage=usage)

    waiter = threading.Thread(target=reap, daemon=True)
    waiter.start()
    waiter.join(max(1.0, deadline - time.monotonic()))
    if waiter.is_alive():
        os.killpg(proc.pid, signal.SIGKILL)
        waiter.join()
    proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
    return Child(proc.returncode, start, reaped["end"], reaped["usage"].ru_maxrss / 1024.0)


def failure(step: str, child: Child, log_path: Path) -> str:
    """A failed process, named with its exit code and the tail of its log."""
    tail = log_path.read_text(errors="replace").strip().splitlines()[-3:]
    return f"{step} exited with code {child.code} and its outputs were not checked: " + (
        " | ".join(tail) or "(no output)")


@dataclass
class Round:
    times: dict = field(default_factory=dict)  # end-to-end metric -> value
    layers: dict = field(default_factory=dict)  # per-layer metric -> value
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    auc: float | None = None  # pairwise AUC of the full test corpus, for the record


def _program_ids(inputs: Inputs, vocabulary) -> list:
    """Test sequences re-encoded with the program's vocabulary order."""
    lut = np.array([vocabulary.index(t) for t in gen.TOKENS])
    return [lut[s] for s in inputs.test_seqs]


def _models(payload: dict) -> list:
    return [(p["pi"], p["A"], p["B"])
            for p in payload["positive_models"] + payload["negative_models"]]


def _check_likelihoods(inputs, model_json, scores, ll_sample) -> list:
    shape = inputs.workload.shape
    seqs = _program_ids(inputs, model_json["vocabulary"])
    models = _models(model_json)
    problems = ref.check_models(models, shape.state_counts, len(gen.TOKENS))
    if problems:
        return problems
    ll_ref = ref.forward_loglik(models, [seqs[i] for i in inputs.sample])
    problems += ref.compare_loglik(ll_sample, ll_ref)
    problems += ref.check_scores(scores, shape.n_pos_models, shape.n_neg_models)
    if not problems:
        problems += ref.check_recount(np.asarray(scores)[inputs.sample], ll_sample,
                                      ll_ref, shape.n_pos_models)
    return problems


def library_round(inputs: Inputs, rdir: Path, traced: bool, deadline: float) -> Round:
    """desk and skewed-mixed: one process trains, scores and evaluates."""
    rnd = Round(attempted=1)
    result = rdir / "result.json"
    argv = [sys.executable, str(HERE / "libchild.py"), str(inputs.dir), str(result)]
    if traced:
        (rdir / "trace").mkdir()
        argv.append(str(rdir / "trace"))
    child = run_child(argv, rdir / "log.txt", deadline)
    if child.code != 0 or not result.is_file():
        rnd.failed = 1
        rnd.problems.append(failure("libchild.py", child, rdir / "log.txt"))
        return rnd
    out = json.loads(result.read_text())
    rnd.problems = guarded(check_library_outputs, inputs, out, rnd)
    rnd.times = {
        "setup_s": out["t_train"] - child.start,
        "train_s": out["t_score"] - out["t_train"],
        "score_s": out["t_scored"] - out["t_score"],
        "peak_rss_mb": child.maxrss_mb,
        "wall_s": time.monotonic() - child.start,
    }
    if traced:
        rnd.layers = layer_metrics(layertrace.load(str(rdir / "trace")))
    return rnd


def check_library_outputs(inputs: Inputs, out: dict, rnd: Round) -> list:
    shape = inputs.workload.shape
    scores = np.array(out["scores"], dtype=np.int64)
    labels = inputs.test_labels
    p = _check_likelihoods(inputs, out["model"], scores, np.array(out["ll_sample"]))
    p += ref.check_histories(out["histories"], shape.max_iters)
    p += ref.check_similarity(out["similarity"], shape.n_pos_models + shape.n_neg_models)
    auc = ref.pairwise_auc(labels, scores)
    p += ref.check_metric("roc_auc", out["auc"], auc)
    p += ref.check_metric("average_precision", out["ap"], ref.definition_ap(labels, scores))
    p += ref.check_metric("threshold", out["threshold"], ref.f1_threshold(labels, scores),
                          tol=0)
    rnd.auc = auc
    return p + _check_floor(inputs.workload, auc)


def guarded(check, *args) -> list:
    """Run a check; output it cannot parse is a failed check, not a crash."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{check.__name__}: unreadable output ({type(exc).__name__}: {exc})"]


CLI_STEPS = ("train", "score", "evaluate", "features", "diversity", "classify_nn")
SCORING_STEPS = ("score", "evaluate", "features")
SETUP_REPEATS = 3  # extra train set-ups per untraced paper-cli round, for a median
EVAL_SEED = 7  # evaluate --seed: fixes its calibration split, which the checks rebuild
CALIBRATION_FRACTION = 0.2


def _cli_argv(step: str, inputs: Inputs, run: Path) -> list:
    model, test = str(run / "model.json"), str(inputs.dir / "test.csv")
    return {
        "train": ["train", "--config", str(inputs.dir / "run.ini"), "--threads", "2"],
        "score": ["score", "--model", model, "--data", test],
        "evaluate": ["evaluate", "--model", model, "--data", test, "--seed", str(EVAL_SEED),
                     "--calibration-fraction", str(CALIBRATION_FRACTION)],
        "features": ["features", "--model", model, "--data", test],
        "diversity": ["diversity", "--model", model],
        "classify_nn": ["classify-nn", "--features", str(run / "features.csv"),
                        "--labels", test, "--config", str(inputs.dir / "run.ini")],
    }[step] + ["--out", str(run)]


def _read_table(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


def cli_round(inputs: Inputs, rdir: Path, traced: bool, deadline: float) -> Round:
    """paper-cli: six subcommands, each its own process, then the checks.

    An untraced round first runs the train command's set-up SETUP_REPEATS
    times on its own, each process stopping where training would begin;
    setup_s is the median of those and the real train's set-up."""
    rnd = Round(attempted=len(CLI_STEPS) + (0 if traced else SETUP_REPEATS))
    run = rdir / "run"
    trace = rdir / "trace"
    trace.mkdir()
    mark = rdir / "train.mark"
    setups = []
    for _ in range(0 if traced else SETUP_REPEATS):
        argv = [sys.executable, str(HERE / "clirun.py"), "--setup-only", str(mark), "--",
                *_cli_argv("train", inputs, rdir / "setup")]
        child = run_child(argv, rdir / "log.txt", deadline)
        if child.code != 0 or not mark.is_file():
            rnd.failed = rnd.attempted - len(setups)
            rnd.problems.append(failure("train set-up", child, rdir / "log.txt"))
            return rnd
        setups.append(float(mark.read_text()) - child.start)
        mark.unlink()
    children = {}
    for step in CLI_STEPS:
        opts = ["--trace", str(trace)] if traced else []
        if step == "train" and not traced:
            opts += ["--mark", str(mark)]
        argv = [sys.executable, str(HERE / "clirun.py"), *opts, "--",
                *_cli_argv(step, inputs, run)]
        children[step] = child = run_child(argv, rdir / "log.txt", deadline)
        if child.code != 0:  # this step failed and the later ones cannot run
            rnd.failed = len(CLI_STEPS) - len(children) + 1
            rnd.problems.append(failure(step, child, rdir / "log.txt"))
            return rnd
    rnd.problems = guarded(check_cli_outputs, inputs, run, rnd)
    start = children["train"].start
    rnd.times = {
        "train_s": children["train"].seconds,
        # score, evaluate and features each score the whole test corpus with
        # all 500 models; their median is steadier than one ~4 s process.
        "score_s": statistics.median(children[s].seconds for s in SCORING_STEPS),
        "peak_rss_mb": max(c.maxrss_mb for c in children.values()),
        "wall_s": time.monotonic() - start,
    }
    if traced:
        layers = layer_metrics(layertrace.load(str(trace)))
        for step, child in children.items():
            layers[f"cli.{step}_s"] = child.seconds
        layers["cli.model_json_bytes"] = (run / "model.json").stat().st_size
        layers["cli.scores_csv_bytes"] = (run / "scores.csv").stat().st_size
        rnd.layers = layers
    else:
        rnd.times["setup_s"] = statistics.median(setups + [float(mark.read_text()) - start])
    return rnd


def check_cli_outputs(inputs: Inputs, run: Path, rnd: Round) -> list:
    shape = inputs.workload.shape
    n_pos, n_neg = shape.n_pos_models, shape.n_neg_models
    labels = inputs.test_labels
    model = ref.strict_json((run / "model.json").read_text())
    histories = ref.strict_json((run / "histories.json").read_text())["histories"]
    evaluation = ref.strict_json((run / "evaluation.json").read_text())
    nn_eval = ref.strict_json((run / "nn_evaluation.json").read_text())
    ref.strict_json((run / "mlp.json").read_text())
    rows = _read_table(run / "scores.csv")[1:]
    if len(rows) != len(labels) or [int(r[0]) for r in rows] != list(range(len(labels))):
        return ["scores.csv does not hold one row per test sequence in order"]
    scores = np.array([int(r[1]) for r in rows], dtype=np.int64)
    ll = np.array([[float(v) for v in r[2:]] for r in rows])
    p = _check_likelihoods(inputs, model, scores, ll[inputs.sample])
    p += ref.check_histories(histories, shape.max_iters)
    if not p:
        p += ref.check_recount(scores, ll, ll, n_pos)  # every row, not just the sample
    feats = np.array([[float(v) for v in r[1:]] for r in _read_table(run / "features.csv")[1:]])
    p += ref.check_features(feats, ll)
    sim = _read_table(run / "similarity.csv")
    p += ref.check_similarity([[float(v) for v in r[1:]] for r in sim[1:]], n_pos + n_neg)
    auc = ref.pairwise_auc(labels, scores)
    rnd.auc = auc
    p += _check_floor(inputs.workload, auc)
    p += _check_evaluation(evaluation, labels, scores)
    nn_total = sum(nn_eval[k] for k in ("tp", "fp", "tn", "fn"))
    if not (0 <= nn_eval["auc_roc"] <= 1 and 0 < nn_eval["average_precision"] <= 1
            and nn_total == len(labels)):
        p.append("nn_evaluation.json is inconsistent")
    return p


def _check_floor(workload: Workload, auc: float) -> list:
    if workload.auc_floor is not None and auc < workload.auc_floor:
        return [f"ensemble AUC {auc:.3f} below the floor {workload.auc_floor}"]
    return []


def _check_evaluation(ev: dict, labels, scores) -> list:
    """evaluate's report, recomputed on its split rebuilt from EVAL_SEED: the
    F1 threshold from the calibration part, and AUC, AP and the confusion
    counts at that threshold on the held-out part."""
    calib, held = ref.evaluation_split(labels, EVAL_SEED, CALIBRATION_FRACTION)
    y, s = labels[held], scores[held]
    thr = ref.f1_threshold(labels[calib], scores[calib])
    counts = {"tp": int(np.sum((s >= thr) & (y == 1))), "fp": int(np.sum((s >= thr) & (y == 0))),
              "tn": int(np.sum((s < thr) & (y == 0))), "fn": int(np.sum((s < thr) & (y == 1))),
              "n_pos": int(np.sum(y == 1)), "n_neg": int(np.sum(y == 0))}
    p = ref.check_metric("evaluation threshold", ev["threshold"], thr, tol=0)
    p += ref.check_metric("evaluation auc_roc", ev["auc_roc"], ref.pairwise_auc(y, s))
    p += ref.check_metric("evaluation average_precision", ev["average_precision"],
                          ref.definition_ap(y, s))
    if any(ev[k] != v for k, v in counts.items()):
        p.append(f"evaluation counts {[ev[k] for k in counts]} != recomputed "
                 f"{list(counts.values())}")
    return p


END_TO_END = {"wall_s": "s", "setup_s": "s", "train_s": "s", "score_s": "s",
              "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "hmm.forward_s": "s", "hmm.forward_ns_per_cell": "ns", "hmm.forward_calls": "count",
    "hmm.forward_steps": "count", "hmm.baum_welch_s": "s", "hmm.em_iters": "count",
    "hmm.em_ns_per_cell": "ns",
    "ensemble.plan_s": "s", "ensemble.train_jobs_s": "s", "ensemble.pool_efficiency": "ratio",
    "ensemble.loglik_matrix_s": "s", "ensemble.matchup_s": "s", "ensemble.features_s": "s",
    "ensemble.threshold_s": "s",
    "data.load_s": "s", "data.load_ns_per_token": "ns",
    "diversity.similarity_s": "s", "diversity.us_per_pair": "us",
    "metrics.auc_ap_s": "s",
    "mlp.train_s": "s", "mlp.epoch_ms": "ms", "mlp.predict_s": "s",
    "cli.import_s": "s", "cli.train_s": "s", "cli.score_s": "s", "cli.evaluate_s": "s",
    "cli.features_s": "s", "cli.diversity_s": "s", "cli.classify_nn_s": "s",
    "cli.model_load_s": "s", "cli.model_json_bytes": "bytes", "cli.scores_csv_bytes": "bytes",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: dict) -> dict:
    """Per-layer metrics of one traced round; layers it never called read 0."""

    def get(metric, key="s"):
        return spans.get(metric, {}).get(key, 0)

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    out = {name: 0 for name in LAYER_UNITS if name != "trace.overhead_s"}
    out.update({
        "hmm.forward_s": get("hmm.forward"),
        "hmm.forward_ns_per_cell": ratio(get("hmm.forward"), get("hmm.forward", "cells"), 1e9),
        "hmm.forward_calls": get("hmm.forward", "calls"),
        "hmm.forward_steps": get("hmm.forward", "steps"),
        "hmm.baum_welch_s": get("hmm.baum_welch"),
        "hmm.em_iters": get("hmm.baum_welch", "iters"),
        "hmm.em_ns_per_cell": ratio(get("hmm.baum_welch"), get("hmm.baum_welch", "cells"), 1e9),
        "ensemble.plan_s": get("ensemble.plan"),
        "ensemble.train_jobs_s": get("ensemble.train_jobs"),
        "ensemble.pool_efficiency": ratio(
            get("hmm.baum_welch"),
            get("ensemble.train_jobs", "workers") * get("ensemble.train_jobs")),
        "ensemble.loglik_matrix_s": get("ensemble.loglik_matrix"),
        "ensemble.matchup_s": get("ensemble.matchup"),
        "ensemble.features_s": get("ensemble.features"),
        "ensemble.threshold_s": get("ensemble.threshold"),
        "data.load_s": get("data.load"),
        "data.load_ns_per_token": ratio(get("data.load"), get("data.load", "tokens"), 1e9),
        "diversity.similarity_s": get("diversity.similarity"),
        "diversity.us_per_pair": ratio(get("diversity.similarity"),
                                       get("diversity.similarity", "pairs"), 1e6),
        "metrics.auc_ap_s": get("metrics.auc_ap"),
        "mlp.train_s": get("mlp.train"),
        "mlp.epoch_ms": ratio(get("mlp.train"), get("mlp.train", "epochs"), 1e3),
        "mlp.predict_s": get("mlp.predict"),
        "cli.model_load_s": get("cli.model_load"),
    })
    if "cli.import" in spans:
        out["cli.import_s"] = get("cli.import") / spans["cli.import"]["n"]
    return out


def median_of(rounds, attr: str) -> dict:
    keys = getattr(rounds[0], attr).keys() if rounds else ()
    return {k: statistics.median(getattr(r, attr)[k] for r in rounds) for k in keys}
