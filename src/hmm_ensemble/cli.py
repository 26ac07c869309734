"""Command-line frontend.

Subcommands: train, score, evaluate, features, diversity, generate,
classify-nn. Every command is a pure function of its config and input
files; output files embed the resolved config hash and master seed in
leading ``#`` comment lines so reruns are byte-identical and auditable.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure,
5 out of memory.
A subcommand runs with numpy's floating-point errors raised, so a division
by zero, an overflow or an invalid operation exits 4 instead of writing NaN
or inf; kernels that take log 0 on purpose ignore it locally.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import ensemble as ens
from . import mlp as mlp_mod
from .config import DataConfig, RunConfig, config_hash, load_run_config, resolved_config_text
from .diversity import similarity_matrix
from .errors import DataError, NumericError, ParameterError, check_int, check_real
from .hmm import sample
from .metrics import EvalReport


def _provenance_lines(cfg_hash: str, master_seed: int, extra: dict | None = None) -> list[str]:
    lines = [f"# config_hash={cfg_hash}", f"# master_seed={master_seed}"]
    for key, value in (extra or {}).items():
        lines.append(f"# {key}={value}")
    return lines


def _write_csv(
    path: Path, header: list[str], rows, cfg_hash: str, master_seed: int,
    extra: dict | None = None,
) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for line in _provenance_lines(cfg_hash, master_seed, extra):
            fh.write(line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _require_file(path: str) -> str:
    if not os.path.isfile(path):
        raise DataError(f"file not found: {path}")
    return path


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def _load_model(path: str) -> tuple[ens.EnsembleModel, dict, str, int]:
    """Returns the model, whatever provenance block the file carries, and the
    config hash and master seed its outputs carry: the hash train stored, or
    for a file without one a hash of its ensemble config.

    Any file that does not parse into a valid model, whose provenance
    block or its ``dataset`` entry is not an object, whose ``config_hash``
    is not a string of hex digits, or whose ``dataset.imbalance_ratio`` is
    neither null nor a ratio DataConfig accepts, is a data error.
    """
    with open(_require_file(path), encoding="utf-8") as fh:
        try:
            payload = json.load(fh, parse_constant=_reject_constant)
            model = ens.EnsembleModel.from_dict(payload)
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise DataError(f"{path}: invalid model ({type(exc).__name__}: {exc})") from None
    provenance = payload.get("provenance", {})
    if not isinstance(provenance, dict) or not isinstance(provenance.get("dataset", {}), dict):
        raise DataError(f"{path}: invalid model (provenance and its dataset must be objects)")
    ratio = provenance.get("dataset", {}).get("imbalance_ratio")
    if ratio is not None:
        try:
            DataConfig(imbalance_ratio=ratio)
        except ParameterError as exc:
            raise DataError(f"{path}: invalid model (provenance.dataset.{exc})") from None
    cfg_hash = provenance.get("config_hash")
    if "config_hash" not in provenance:
        cfg_hash = config_hash(json.dumps(model.config.to_dict(), sort_keys=True))
    elif not (isinstance(cfg_hash, str) and re.fullmatch("[0-9a-f]+", cfg_hash)):
        raise DataError(f"{path}: invalid model (config_hash must be a hex string)")
    return model, provenance, cfg_hash, model.config.master_seed


def _load_corpus(model: ens.EnsembleModel, path: str, labels_required: bool):
    """Encode a corpus CSV against the model's own vocabulary."""
    texts, labels = data_mod.read_csv_rows(_require_file(path), with_labels=labels_required)
    try:
        sequences = [model.vocabulary.encode(t) for t in texts]
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    return sequences, (np.asarray(labels, dtype=np.int64) if labels_required else None)


def _flag(convert, check, rule):
    """The argparse type of a flag that ``convert`` reads and ``check``
    (``check_int`` or ``check_real``) accepts under ``rule``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = text  # not a number, so the check rejects it
        try:
            return check("flag", value, rule)
        except ParameterError as exc:
            raise argparse.ArgumentTypeError(str(exc).removeprefix("flag ")) from None

    return parse


def _out_path(text: str) -> str:
    """The argparse type of ``--out``: a path whose nearest existing entry,
    itself or a parent, is a directory, so the command can create it after
    its work."""
    path = Path(text).absolute()
    existing = next(p for p in (path, *path.parents) if os.path.lexists(p))
    if not existing.is_dir():
        raise argparse.ArgumentTypeError(f"{existing} is not a directory")
    return text


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg.sections["ensemble"]["master_seed"] = args.seed
    data_cfg = cfg.data
    if not data_cfg.train_csv:
        raise DataError("config has no [data] train_csv")
    dataset = data_mod.load_csv(_require_file(data_cfg.train_csv))
    if data_cfg.imbalance_ratio > 0:
        dataset = data_mod.subsample_imbalance(
            dataset, data_cfg.imbalance_ratio, data_cfg.imbalance_seed
        )
    resolved = resolved_config_text(cfg)
    cfg_hash = config_hash(resolved)
    ens_cfg = cfg.ensemble_config()
    model = ens.train_ensemble(dataset, ens_cfg, args.threads or os.cpu_count() or 1)
    out = _out_dir(args)
    payload = model.to_dict()
    payload["provenance"] = {
        "config_hash": cfg_hash,
        "master_seed": ens_cfg.master_seed,
        "dataset": dataset.provenance.to_dict(),
    }
    _write_json(out / "model.json", payload)
    _write_json(
        out / "histories.json",
        {
            "config_hash": cfg_hash,
            "master_seed": ens_cfg.master_seed,
            "histories": model.histories,
        },
    )
    with open(out / "config.resolved.txt", "w", encoding="utf-8") as fh:
        for line in _provenance_lines(cfg_hash, ens_cfg.master_seed):
            fh.write(line + "\n")
        fh.write(resolved)
    print(f"trained {len(model.models)} models -> {out / 'model.json'}")
    return 0


def _report_payload(report: EvalReport) -> dict:
    """The report's fields plus AUC and AP as percentages to 4 decimals."""
    payload = report.to_dict()
    payload["auc_roc_x100"] = round(report.auc_roc * 100, 4)
    payload["average_precision_x100"] = round(report.average_precision * 100, 4)
    return payload


def cmd_score(args) -> int:
    model, _, cfg_hash, seed = _load_model(args.model)
    sequences, _ = _load_corpus(model, args.data, labels_required=False)
    ll = ens.log_likelihood_matrix(model, sequences)
    scores = ens.matchup_scores(model, ll)
    header = (
        ["index", "composite_score"]
        + [f"loglik_pos_{i}" for i in range(model.config.n_pos_models)]
        + [f"loglik_neg_{j}" for j in range(model.config.n_neg_models)]
    )
    rows = [
        [i, scores[i]] + [repr(float(v)) for v in ll[i]] for i in range(len(sequences))
    ]
    out = _out_dir(args)
    _write_csv(out / "scores.csv", header, rows, cfg_hash, seed, {"data": args.data})
    print(f"scored {len(sequences)} sequences -> {out / 'scores.csv'}")
    return 0


def cmd_evaluate(args) -> int:
    model, model_prov, cfg_hash, seed = _load_model(args.model)
    sequences, labels = _load_corpus(model, args.data, labels_required=True)
    _check_classes(args.data, labels)
    if args.seed is not None:
        seed = args.seed
    try:
        calib_idx, eval_idx = data_mod.split_indices(labels, args.calibration_fraction, seed)
    except ParameterError as exc:  # the fraction is valid, so a class is too small
        raise DataError(f"{args.data}: calibration split: {exc}") from None
    all_scores = np.array(ens.score_corpus(model, sequences), dtype=np.float64)
    threshold = ens.choose_threshold(all_scores[calib_idx], labels[calib_idx])
    report = EvalReport.from_scores(labels[eval_idx], all_scores[eval_idx], threshold)
    out = _out_dir(args)
    payload = _report_payload(report)
    payload["provenance"] = {
        "config_hash": cfg_hash,
        "master_seed": seed,
        "calibration_fraction": args.calibration_fraction,
        "imbalance_ratio": model_prov.get("dataset", {}).get("imbalance_ratio"),
        "data": str(args.data),
    }
    _write_json(out / "evaluation.json", payload)
    print(
        f"AUC {payload['auc_roc_x100']:.1f}  AP {payload['average_precision_x100']:.1f}  "
        f"threshold {report.threshold:g} -> {out / 'evaluation.json'}"
    )
    return 0


def cmd_features(args) -> int:
    model, _, cfg_hash, seed = _load_model(args.model)
    sequences, _ = _load_corpus(model, args.data, labels_required=False)
    feats = ens.feature_vectors(model, sequences)
    header = ["index"] + [f"f{i}" for i in range(feats.shape[1])]
    rows = [[i] + [repr(float(v)) for v in row] for i, row in enumerate(feats)]
    out = _out_dir(args)
    _write_csv(out / "features.csv", header, rows, cfg_hash, seed, {"data": args.data})
    print(f"wrote {feats.shape[0]}x{feats.shape[1]} features -> {out / 'features.csv'}")
    return 0


def cmd_diversity(args) -> int:
    model, _, cfg_hash, seed = _load_model(args.model)
    sim = similarity_matrix(model)
    path = _out_dir(args) / "similarity.csv"
    header, *rows = sim.to_rows()
    _write_csv(path, header, rows, cfg_hash, seed)
    print(f"wrote {len(sim.labels)}x{len(sim.labels)} similarity matrix -> {path}")
    return 0


def cmd_generate(args) -> int:
    model, _, cfg_hash, seed = _load_model(args.model)
    members = model.positive_models if args.label == 1 else model.negative_models
    if args.seed is not None:
        seed = args.seed
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(args.count):
        member = members[int(rng.integers(len(members)))]
        seq = sample(member, args.length, rng)
        rows.append([model.vocabulary.decode(seq), args.label])
    out = _out_dir(args)
    _write_csv(out / "generated.csv", ["sequence", "label"], rows, cfg_hash, seed)
    print(f"generated {args.count} sequences -> {out / 'generated.csv'}")
    return 0


def _read_feature_csv(path: str) -> np.ndarray:
    """Wide numeric CSV as written by cmd_features: index column then floats.

    The header must name at least one feature column, and every row must be
    as wide as the header and hold finite numbers.
    """
    rows = data_mod.csv_rows(_require_file(path))
    try:
        _, header = next(rows)
    except StopIteration:
        raise DataError(f"{path}: file is empty") from None
    if len(header) < 2:
        raise DataError(f"{path}: no feature columns after the index")
    features = []
    for lineno, row in rows:
        if len(row) != len(header):
            raise DataError(f"{path}:{lineno}: {len(row)} fields, header has {len(header)}")
        try:
            values = [float(v) for v in row[1:]]
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric feature value") from None
        if not all(map(math.isfinite, values)):
            raise DataError(f"{path}:{lineno}: non-finite feature value")
        features.append(values)
    if not features:
        raise DataError(f"{path}: no feature rows")
    return np.array(features)


def _check_classes(path: str, labels: np.ndarray, minimum: int = 1) -> np.ndarray:
    """``labels`` if each class has at least ``minimum`` rows, else a data
    error naming the file they came from."""
    counts = np.bincount(labels, minlength=2)
    if counts.min() < minimum:
        raise DataError(f"{path}: {counts[0]} rows of class 0 and {counts[1]} of class 1, "
                        f"need at least {minimum} of each")
    return labels


def _read_examples(
    features_path: str, labels_path: str, min_per_class: int
) -> tuple[np.ndarray, np.ndarray]:
    """A feature CSV and the labels of a corpus CSV (``sequence`` and ``label``
    columns), which must have as many rows and each class at least
    ``min_per_class`` times."""
    features = _read_feature_csv(features_path)
    _, labels = data_mod.read_csv_rows(_require_file(labels_path))
    if features.shape[0] != len(labels):
        raise DataError(f"{features_path} has {features.shape[0]} rows, "
                        f"{labels_path} has {len(labels)}")
    return features, _check_classes(labels_path, np.asarray(labels, dtype=np.int64), min_per_class)


def cmd_classify_nn(args) -> int:
    if (args.eval_features is None) != (args.eval_labels is None):
        missing = "--eval-labels" if args.eval_labels is None else "--eval-features"
        raise ParameterError(f"--eval-features and --eval-labels go together; {missing} is missing")
    cfg = load_run_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg.sections["mlp"]["seed"] = args.seed
    features, labels = _read_examples(args.features, args.labels, mlp_mod.MIN_PER_CLASS)
    eval_x, eval_y = features, labels
    if args.eval_features is not None:
        eval_x, eval_y = _read_examples(args.eval_features, args.eval_labels, 1)
        if eval_x.shape[1] != features.shape[1]:
            raise DataError(f"eval features are {eval_x.shape[1]} wide, "
                            f"training features {features.shape[1]}")
    config = cfg.mlp
    model = mlp_mod.mlp_train(features, labels, config)
    scores = mlp_mod.mlp_predict(model, eval_x)
    report = EvalReport.from_scores(eval_y, scores, threshold=0.5)
    out = _out_dir(args)
    _write_json(out / "mlp.json", model.to_dict())
    payload = _report_payload(report)
    payload["provenance"] = {"seed": config.seed, "features": str(args.features)}
    _write_json(out / "nn_evaluation.json", payload)
    print(
        f"AUC {payload['auc_roc_x100']:.1f}  AP {payload['average_precision_x100']:.1f} "
        f"-> {out / 'nn_evaluation.json'}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmm-ensemble",
        description="Train and run class-conditional HMM ensembles for sequence classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_help=None):
        if seed_help:
            p.add_argument("--seed", type=_flag(int, check_int, 0), default=None, help=seed_help)
        p.add_argument("--out", required=True, type=_out_path, help="output directory")

    p = sub.add_parser("train", help="train an ensemble from a labeled CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=_flag(int, check_int, 0), default=1,
                   help="worker count (0 = auto)")
    common(p, "override [ensemble] master_seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="composite scores for a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    common(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("evaluate", help="calibrate a threshold and report AUC/AP")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--calibration-fraction", type=_flag(float, check_real, "(0, 1)"), default=0.2)
    common(p, "calibration split seed (default: the model's master_seed)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("features", help="normalized log-likelihood feature vectors")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    common(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("diversity", help="pairwise model similarity matrix")
    p.add_argument("--model", required=True)
    common(p)
    p.set_defaults(func=cmd_diversity)

    p = sub.add_parser("generate", help="sample synthetic sequences from one class")
    p.add_argument("--model", required=True)
    p.add_argument("--label", type=int, choices=(0, 1), required=True)
    p.add_argument("--count", type=_flag(int, check_int, 1), required=True)
    p.add_argument("--length", type=_flag(int, check_int, 1), required=True)
    common(p, "sampling seed (default: the model's master_seed)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("classify-nn", help="train the MLP head on feature vectors")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--eval-features", default=None)
    p.add_argument("--eval-labels", default=None)
    p.add_argument("--config", default=None)
    common(p, "override [mlp] seed")
    p.set_defaults(func=cmd_classify_nn)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return args.func(args)
    except ParameterError as exc:  # includes ConfigError
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"out of memory: {args.command}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
