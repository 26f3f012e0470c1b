"""Rational Speech Act model of metaphor interpretation.

A deterministic library and CLI: a literal listener over category
typicalities, a softmax pragmatic speaker with a learnable rationality
parameter, a relevance-weighted pragmatic listener, plus gradient-based
parameter fitting and an evaluation/ablation harness against human
interpretation data.
"""

from . import errors
from .engine import (
    Distribution,
    RsaConfig,
    interpret,
    interpret_fast,
    pragmatic_listener,
    pragmatic_speaker,
)
from .evaluation import (
    EvalReport,
    ablate_lambda_interpolation,
    ablate_relevance,
    evaluate,
    feature_correlation_matrix,
)
from .learn import (
    FitResult,
    TrainTestSplit,
    learn_lambda,
    learn_lambda_multistart,
    make_split,
    objective,
)
from .lexicon import (
    FeatureVocab,
    HumanResponseTable,
    MetaphorItem,
    TypicalityTable,
    ValidationReport,
    load_dataset,
    normalize_ratings,
    read_dataset,
    save_dataset,
    validate,
)
from .metrics import jsd, k_agreement, pearson

__version__ = "0.1.0"

__all__ = [
    "Distribution",
    "EvalReport",
    "FeatureVocab",
    "FitResult",
    "HumanResponseTable",
    "MetaphorItem",
    "RsaConfig",
    "TrainTestSplit",
    "TypicalityTable",
    "ValidationReport",
    "ablate_lambda_interpolation",
    "ablate_relevance",
    "errors",
    "evaluate",
    "feature_correlation_matrix",
    "interpret",
    "interpret_fast",
    "jsd",
    "k_agreement",
    "learn_lambda",
    "learn_lambda_multistart",
    "load_dataset",
    "make_split",
    "normalize_ratings",
    "objective",
    "pearson",
    "pragmatic_listener",
    "pragmatic_speaker",
    "read_dataset",
    "save_dataset",
    "validate",
    "__version__",
]
