"""Class-conditional HMM ensembles for binary sequence classification.

Train many small discrete-emission HMMs per class on random data subsets,
score sequences by counting pairwise likelihood matchups between the
positive and negative model groups, and optionally feed normalized
log-likelihood vectors to a small neural-network head.
"""

from .data import LabeledDataset, Provenance, load_csv, subsample_imbalance
from .diversity import SimilarityMatrix, similarity_matrix, stationary_distribution
from .ensemble import (
    EnsembleConfig,
    EnsembleModel,
    TrainingJob,
    choose_threshold,
    classify,
    expected_unsampled_fraction,
    feature_vectors,
    log_likelihood_matrix,
    make_training_jobs,
    matchup_count,
    score_corpus,
    train_ensemble,
    train_jobs,
)
from .errors import ConfigError, DataError, NumericError, ParameterError
from .hmm import (
    HmmParams,
    TokenSequence,
    TrainConfig,
    Vocabulary,
    baum_welch,
    init_random,
    log_likelihood,
    sample,
)
from .metrics import EvalReport, average_precision, confusion_at, roc_auc
from .mlp import MlpConfig, MlpModel, gradient_check, mlp_predict, mlp_train

__all__ = [
    "ConfigError",
    "DataError",
    "EnsembleConfig",
    "EnsembleModel",
    "EvalReport",
    "HmmParams",
    "LabeledDataset",
    "MlpConfig",
    "MlpModel",
    "NumericError",
    "ParameterError",
    "Provenance",
    "SimilarityMatrix",
    "TokenSequence",
    "TrainConfig",
    "TrainingJob",
    "Vocabulary",
    "average_precision",
    "baum_welch",
    "choose_threshold",
    "classify",
    "confusion_at",
    "expected_unsampled_fraction",
    "feature_vectors",
    "gradient_check",
    "init_random",
    "load_csv",
    "log_likelihood",
    "log_likelihood_matrix",
    "make_training_jobs",
    "matchup_count",
    "mlp_predict",
    "mlp_train",
    "roc_auc",
    "sample",
    "score_corpus",
    "similarity_matrix",
    "stationary_distribution",
    "subsample_imbalance",
    "train_ensemble",
    "train_jobs",
]
