"""Class-conditional HMM ensembles.

Training draws an independent random subset of each class for every member
model, so a sequence escapes all subsets of its class with probability
(1-s)^N. Inference compares a sequence's likelihood under every
positive/negative model pair and counts the wins, which sidesteps the
usual problem of comparing raw likelihoods across sequence lengths.

Scoring is binary-class by construction; a multi-class extension would
train one model group per class and run the same matchup count for each
ordered pair of groups.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import LabeledDataset
from .errors import DataError, NumericError, ParameterError
from .hmm import (
    HmmParams,
    TrainConfig,
    Vocabulary,
    _check_sequence,
    _length_blocks,
    baum_welch,
    forward_batch,
    log_likelihood,
)
from .metrics import _check_inputs, _tie_groups

DEFAULT_STATE_COUNTS = (3, 4, 5)


@dataclass(frozen=True)
class EnsembleConfig:
    """Ensemble shape and training settings.

    ``train`` is a template; each job overrides its ``n_states`` (cycling
    through ``state_counts`` by job index) and ``seed``.
    """

    n_pos_models: int = 20
    n_neg_models: int = 20
    subset_fraction: float = 1.0
    state_counts: tuple[int, ...] = DEFAULT_STATE_COUNTS
    train: TrainConfig = field(default_factory=lambda: TrainConfig(n_states=5))
    master_seed: int = 0

    def __post_init__(self):
        if self.n_pos_models < 1 or self.n_neg_models < 1:
            raise ParameterError("model counts must be >= 1")
        if not 0.0 < self.subset_fraction <= 1.0:
            raise ParameterError("subset_fraction must be in (0, 1]")
        if not self.state_counts:
            raise ParameterError("state_counts must be non-empty")
        object.__setattr__(self, "state_counts", tuple(int(c) for c in self.state_counts))

    def to_dict(self) -> dict:
        d = asdict(self)
        d["state_counts"] = list(self.state_counts)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EnsembleConfig":
        return cls(
            n_pos_models=d["n_pos_models"],
            n_neg_models=d["n_neg_models"],
            subset_fraction=d["subset_fraction"],
            state_counts=tuple(d["state_counts"]),
            train=TrainConfig(**d["train"]),
            master_seed=d["master_seed"],
        )


@dataclass(frozen=True)
class TrainingJob:
    """One member model's work order: which class, which sequences, which seeds."""

    label: int
    indices: np.ndarray
    subset_seed: int
    model_seed: int
    n_states: int


def _ceil_fraction(fraction: float, size: int) -> int:
    # ceil(fraction * size) with a relative epsilon so e.g. 0.01 * 10000
    # (which floats put just above 100) still yields 100.
    raw = fraction * size
    return max(1, math.ceil(raw - 1e-9 * max(1.0, raw)))


def job_seeds(master_seed: int, n_jobs: int) -> np.ndarray:
    """Per-job (subset_seed, model_seed) pairs, hashed from the master seed.

    Derivation is counter-based, so job k's seeds never depend on how many
    jobs exist before it were executed or in what order.
    """
    root = np.random.SeedSequence(master_seed)
    return root.generate_state(2 * n_jobs, dtype=np.uint64).reshape(n_jobs, 2)


def make_training_jobs(dataset: LabeledDataset, config: EnsembleConfig) -> list[TrainingJob]:
    """Plan the N positive and M negative training jobs.

    Each job gets an independent uniform sample (without replacement) of
    ceil(s * class size) sequence indices; subsets of different jobs may
    overlap. The whole plan is a pure function of the dataset and
    ``config.master_seed``.
    """
    labels = np.asarray(dataset.labels)
    pos_idx = np.flatnonzero(labels == 1)
    neg_idx = np.flatnonzero(labels == 0)
    if pos_idx.size == 0 or neg_idx.size == 0:
        raise DataError("dataset must contain at least one sequence of each class")
    n_total = config.n_pos_models + config.n_neg_models
    seeds = job_seeds(config.master_seed, n_total)
    jobs = []
    for k in range(n_total):
        label = 1 if k < config.n_pos_models else 0
        class_idx = pos_idx if label == 1 else neg_idx
        size = _ceil_fraction(config.subset_fraction, class_idx.size)
        rng = np.random.default_rng(seeds[k, 0])
        chosen = np.sort(rng.choice(class_idx, size=size, replace=False))
        jobs.append(
            TrainingJob(
                label=label,
                indices=chosen,
                subset_seed=int(seeds[k, 0]),
                model_seed=int(seeds[k, 1]),
                n_states=config.state_counts[k % len(config.state_counts)],
            )
        )
    return jobs


def expected_unsampled_fraction(subset_fraction: float, n_models: int) -> float:
    """Probability that a class sequence lands in none of the n subsets."""
    if not 0.0 < subset_fraction <= 1.0:
        raise ParameterError("subset_fraction must be in (0, 1]")
    if n_models < 1:
        raise ParameterError("n_models must be >= 1")
    return (1.0 - subset_fraction) ** n_models


@dataclass
class EnsembleModel:
    """Trained ensemble: positive models first, then negative models.

    ``seeds`` keeps each job's (subset_seed, model_seed) pair; ``histories``
    keeps per-job training likelihood curves and is not serialized.
    """

    positive_models: list[HmmParams]
    negative_models: list[HmmParams]
    vocabulary: Vocabulary
    config: EnsembleConfig
    seeds: list[tuple[int, int]]
    histories: list[list[float]] | None = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.positive_models) != self.config.n_pos_models:
            raise ParameterError("positive model count does not match config")
        if len(self.negative_models) != self.config.n_neg_models:
            raise ParameterError("negative model count does not match config")
        m = self.vocabulary.size
        if any(p.m != m for p in self.positive_models + self.negative_models):
            raise ParameterError("all models must share the vocabulary size")
        if len(self.seeds) != len(self.models):
            raise ParameterError("need one (subset_seed, model_seed) pair per model")

    @property
    def models(self) -> list[HmmParams]:
        return self.positive_models + self.negative_models

    @property
    def max_score(self) -> int:
        return self.config.n_pos_models * self.config.n_neg_models

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "vocabulary": list(self.vocabulary.tokens),
            "positive_models": [p.to_dict() for p in self.positive_models],
            "negative_models": [p.to_dict() for p in self.negative_models],
            "seeds": [list(s) for s in self.seeds],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EnsembleModel":
        return cls(
            positive_models=[HmmParams.from_dict(p) for p in d["positive_models"]],
            negative_models=[HmmParams.from_dict(p) for p in d["negative_models"]],
            vocabulary=Vocabulary(d["vocabulary"]),
            config=EnsembleConfig.from_dict(d["config"]),
            seeds=[(int(a), int(b)) for a, b in d["seeds"]],
        )


def _run_job(payload):
    k, sequences, n_symbols, train_cfg = payload
    try:
        return k, baum_welch(sequences, n_symbols, train_cfg)
    except (ParameterError, DataError, NumericError) as exc:
        # name the job, keeping the package error type that sets the CLI exit code
        raise type(exc)(f"training job {k} failed: {exc}") from exc


def train_jobs(
    dataset: LabeledDataset,
    jobs: list[TrainingJob],
    train_template,
    n_workers: int = 1,
) -> tuple[list[HmmParams], list[list[float]]]:
    """Run training jobs; results are assembled by job index, so the output
    is identical however many workers run them."""
    m = dataset.vocabulary.size
    payloads = [
        (
            k,
            [dataset.sequences[i] for i in job.indices],
            m,
            replace(train_template, n_states=job.n_states, seed=job.model_seed),
        )
        for k, job in enumerate(jobs)
    ]
    results: list = [None] * len(jobs)
    if n_workers <= 1:
        for payload in payloads:
            k, out = _run_job(payload)
            results[k] = out
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            for k, out in pool.map(_run_job, payloads):
                results[k] = out
    models = [r[0] for r in results]
    histories = [r[1] for r in results]
    return models, histories


def train_ensemble(
    dataset: LabeledDataset, config: EnsembleConfig, n_workers: int = 1
) -> EnsembleModel:
    """Train the full ensemble from a labeled dataset."""
    jobs = make_training_jobs(dataset, config)
    models, histories = train_jobs(dataset, jobs, config.train, n_workers)
    n_pos = config.n_pos_models
    return EnsembleModel(
        positive_models=models[:n_pos],
        negative_models=models[n_pos:],
        vocabulary=dataset.vocabulary,
        config=config,
        seeds=[(job.subset_seed, job.model_seed) for job in jobs],
        histories=histories,
    )


def matchup_count(pos_loglik: np.ndarray, neg_loglik: np.ndarray) -> int:
    """Number of (positive, negative) model pairs the positive model wins.

    Wins are strict; exact ties contribute nothing.
    """
    pos = np.asarray(pos_loglik, dtype=np.float64)
    neg = np.asarray(neg_loglik, dtype=np.float64)
    return int(np.sum(pos[:, None] > neg[None, :]))


def log_likelihood_matrix(ensemble: EnsembleModel, corpus) -> np.ndarray:
    """(n_sequences, N+M) matrix of log-likelihoods, positive models first.

    Sequences go in blocks of similar length, so each model scores a whole
    block in one vectorized forward pass.
    """
    if len(corpus) == 0:
        raise ParameterError("corpus must be non-empty")
    m = ensemble.vocabulary.size
    checked = []
    for i, seq in enumerate(corpus):
        try:
            checked.append(_check_sequence(seq, m))
        except (DataError, ParameterError) as exc:
            raise type(exc)(f"sequence {i}: {exc}") from None
    models = ensemble.models
    out = np.empty((len(checked), len(models)))
    for idx, obs, lengths in _length_blocks(checked):
        for j, model in enumerate(models):
            out[idx, j] = forward_batch(model, obs, lengths)
    return out


def matchup_scores(ensemble: EnsembleModel, ll: np.ndarray) -> list[int]:
    """Composite score of each row of a log_likelihood_matrix result."""
    n_pos = ensemble.config.n_pos_models
    return [matchup_count(row[:n_pos], row[n_pos:]) for row in ll]


def composite_score(ensemble: EnsembleModel, seq) -> int:
    """Pairwise-matchup score of one sequence, in [0, N*M]."""
    return score_corpus(ensemble, [seq])[0]


def score_corpus(ensemble: EnsembleModel, corpus) -> list[int]:
    """Composite score of every sequence, order-preserving."""
    return matchup_scores(ensemble, log_likelihood_matrix(ensemble, corpus))


def feature_vectors(ensemble: EnsembleModel, corpus) -> np.ndarray:
    """L2-normalized per-model log-likelihood vectors (one row per sequence)."""
    raw = log_likelihood_matrix(ensemble, corpus)
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    return raw / np.where(norms > 0, norms, 1.0)


def singleton_classify(pos_model: HmmParams, neg_model: HmmParams, seq) -> int:
    """1 iff the positive model assigns the strictly higher likelihood."""
    if pos_model.m != neg_model.m:
        raise ParameterError("models must share a vocabulary size")
    return int(log_likelihood(pos_model, seq) > log_likelihood(neg_model, seq))


def choose_threshold(scores, labels) -> float:
    """Threshold maximizing F1 = 2tp / (2tp + fp + fn) over the distinct scores.

    Ties go to the larger threshold, which flags fewer positives. Equal F1
    fractions round to the same double, so the first maximum in descending
    order is the largest tied threshold. A threshold above the maximum has
    F1 = 0 and never wins, since the lowest score flags every positive.
    """
    labels, scores = _check_inputs(labels, scores)
    distinct, tp, fp = _tie_groups(labels, scores)
    f1 = 2 * tp / (2 * tp + fp + (tp[-1] - tp))
    return float(distinct[np.argmax(f1)])


def classify(scores, threshold: float) -> np.ndarray:
    """Label 1 iff score >= threshold."""
    return (np.asarray(scores, dtype=np.float64) >= threshold).astype(np.int64)
