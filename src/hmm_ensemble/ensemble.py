"""Class-conditional HMM ensembles.

Training draws an independent random subset of each class for every member
model, so a sequence escapes all subsets of its class with probability
(1-s)^N. Inference compares a sequence's likelihood under every
positive/negative model pair and counts the wins, which sidesteps the
usual problem of comparing raw likelihoods across sequence lengths.

Member models train in units: the jobs of one class and state count, taken
in job-index order up to ``UNIT_TOKENS`` training tokens, share one batched
E-step (``hmm._baum_welch_unit``). Units run serially or on a process pool;
the plan and the results depend on job indices alone, so parallel training
gives the bytes of serial training.

Scoring is binary-class by construction; a multi-class extension would
train one model group per class and run the same matchup count for each
ordered pair of groups.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .data import LabeledDataset
from .errors import DataError, NumericError, ParameterError, check_int, check_real
from .hmm import (
    HmmParams,
    TrainConfig,
    Vocabulary,
    _baum_welch_unit,
    _check_sequence,
    _forward_scaled,
    _length_blocks,
    _stack,
)
from .metrics import _check_inputs, _finite_scores, _tie_groups

DEFAULT_STATE_COUNTS = (3, 4, 5)

# A training unit closes before the job that would take it past this many
# tokens. A unit's E-step holds about 130 bytes per token at 5 states, so a
# full unit peaks near 3 MB. Seven 6,000-token jobs of one class and state
# count then split 4 + 3: as fast as 5 + 2 under 2**15, at a lower peak.
UNIT_TOKENS = 3 * 2**13


@dataclass(frozen=True)
class EnsembleConfig:
    """Ensemble shape and training settings.

    Job k trains a ``state_counts[k % len(state_counts)]``-state model with
    the EM settings ``train``, from seeds derived from ``master_seed``.
    """

    n_pos_models: int = 20
    n_neg_models: int = 20
    subset_fraction: float = 1.0
    state_counts: tuple[int, ...] = DEFAULT_STATE_COUNTS
    train: TrainConfig = field(default_factory=TrainConfig)
    master_seed: int = 0

    def __post_init__(self):
        check_int("n_pos_models", self.n_pos_models, 1)
        check_int("n_neg_models", self.n_neg_models, 1)
        check_real("subset_fraction", self.subset_fraction, "(0, 1]")
        if not isinstance(self.state_counts, (list, tuple)) or not self.state_counts:
            raise ParameterError("state_counts must be a non-empty list or tuple")
        counts = tuple(check_int("state count", c, 1) for c in self.state_counts)
        object.__setattr__(self, "state_counts", counts)
        check_int("master_seed", self.master_seed, 0)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["state_counts"] = list(self.state_counts)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EnsembleConfig":
        """Exactly the fields of EnsembleConfig, and of TrainConfig under
        ``train``: a missing key is a KeyError and an unknown one a TypeError."""
        for where, kind, values in (("config", cls, d), ("config.train", TrainConfig, d["train"])):
            missing = [f.name for f in fields(kind) if f.name not in values]
            if missing:
                raise KeyError(f"{where}.{missing[0]}")
        return cls(**{**d, "train": TrainConfig(**d["train"])})


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
    check_real("subset_fraction", subset_fraction, "(0, 1]")
    check_int("n_models", n_models, 1)
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
        """The model a ``to_dict`` payload describes. Beyond what the
        constructor checks, its tokens must be single characters, as the CSV
        reader reads them, and model k must have the
        ``state_counts[k % len(state_counts)]`` states ``make_training_jobs``
        planned for it, positives first."""
        tokens = d["vocabulary"]
        if not isinstance(tokens, list) or not all(
            isinstance(t, str) and len(t) == 1 for t in tokens
        ):
            raise DataError("vocabulary must be a list of strings, one character each")
        model = cls(
            positive_models=[HmmParams.from_dict(p) for p in d["positive_models"]],
            negative_models=[HmmParams.from_dict(p) for p in d["negative_models"]],
            vocabulary=Vocabulary(tokens),
            config=EnsembleConfig.from_dict(d["config"]),
            seeds=[(check_int("seed", a, 0), check_int("seed", b, 0)) for a, b in d["seeds"]],
        )
        counts = model.config.state_counts
        for k, p in enumerate(model.models):
            if p.n != counts[k % len(counts)]:
                raise DataError(
                    f"model {k} has {p.n} states, but state_counts plans "
                    f"{counts[k % len(counts)]}"
                )
        return model


def _plan_units(dataset: LabeledDataset, jobs: list[TrainingJob]) -> list[list[int]]:
    """Job indices of each training unit, in order of each unit's first job.

    A unit holds jobs of one (label, n_states) in index order and closes
    before the job that would take it past ``UNIT_TOKENS`` training tokens,
    so a larger job is a unit by itself. The plan depends on the jobs
    alone, never on the worker count.
    """
    units, open_units = [], {}
    for k, job in enumerate(jobs):
        tokens = sum(len(dataset.sequences[i]) for i in job.indices)
        unit = open_units.get((job.label, job.n_states))
        if unit is None or unit[1] + tokens > UNIT_TOKENS:
            unit = open_units[(job.label, job.n_states)] = [[], 0]
            units.append(unit)
        unit[0].append(k)
        unit[1] += tokens
    return [ids for ids, _ in units]


def _process_pool(n_workers: int):
    # imported here, so a serial run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=n_workers)


def _run_unit(payload):
    ids, job_sequences, n_symbols, n_states, train_cfg, seeds = payload
    rngs = [np.random.default_rng(seed) for seed in seeds]
    return _baum_welch_unit(job_sequences, n_symbols, n_states, train_cfg, rngs, ids)


def train_jobs(
    dataset: LabeledDataset,
    jobs: list[TrainingJob],
    train_config: TrainConfig,
    n_workers: int = 1,
) -> tuple[list[HmmParams], list[list[float]]]:
    """Run training jobs in lockstep units (``_plan_units``), serially or on
    a pool of at most one worker per unit.

    Results are assembled by job index, and units do not depend on the
    worker count, so the output is identical however many workers run them.
    """
    m = dataset.vocabulary.size
    payloads = [
        (
            ids,
            [[dataset.sequences[i] for i in jobs[k].indices] for k in ids],
            m,
            jobs[ids[0]].n_states,
            train_config,
            [jobs[k].model_seed for k in ids],
        )
        for ids in _plan_units(dataset, jobs)
    ]
    # a fork pool starts all its workers at the first submit: never more than units
    n_workers = min(n_workers, len(payloads))
    if n_workers <= 1:
        outputs = [_run_unit(payload) for payload in payloads]
    else:
        with _process_pool(n_workers) as pool:
            outputs = list(pool.map(_run_unit, payloads))
    results: list = [None] * len(jobs)
    for payload, out in zip(payloads, outputs):
        for k, result in zip(payload[0], out):
            results[k] = result
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

    Sequences go in blocks of similar length, and the models of one state
    count are stacked, so each block takes one scaled forward pass per
    state count (``hmm._forward_scaled``). Every cell has the bits of
    ``log_likelihood`` on that sequence and model alone.
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
    groups = {}
    for j, model in enumerate(models):
        groups.setdefault(model.n, []).append(j)
    stacks = [(cols, _stack([models[j] for j in cols])) for cols in groups.values()]
    out = np.empty((len(checked), len(models)))
    for idx, obs, lengths in _length_blocks(checked):
        for cols, params in stacks:
            out[np.ix_(idx, cols)] = _forward_scaled(*params, obs, lengths).T
    return out


def matchup_scores(ensemble: EnsembleModel, ll: np.ndarray) -> list[int]:
    """Composite score of each row of a log_likelihood_matrix result."""
    n_pos = ensemble.config.n_pos_models
    return [matchup_count(row[:n_pos], row[n_pos:]) for row in ll]


def score_corpus(ensemble: EnsembleModel, corpus) -> list[int]:
    """Composite score of every sequence, order-preserving."""
    return matchup_scores(ensemble, log_likelihood_matrix(ensemble, corpus))


def feature_vectors(ensemble: EnsembleModel, corpus) -> np.ndarray:
    """L2-normalized per-model log-likelihood vectors (one row per sequence).

    A sequence that some model cannot emit has no feature vector: its
    log-likelihood is -inf, so NumericError names the first such sequence
    and model column.
    """
    raw = log_likelihood_matrix(ensemble, corpus)
    bad = np.argwhere(~np.isfinite(raw))
    if bad.size:
        i, j = bad[0].tolist()
        raise NumericError(f"sequence {i}: log-likelihood under model column {j} is not finite")
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    return raw / np.where(norms > 0, norms, 1.0)


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
    """Label 1 iff score >= threshold; non-finite scores are a ParameterError."""
    return (_finite_scores(scores) >= check_real("threshold", threshold)).astype(np.int64)
