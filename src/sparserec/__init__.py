"""Sparsity-augmented collaborative representation recognition toolkit."""

from .classifiers import (
    CrcOperator,
    Gallery,
    SacrcConfig,
)
from .core import (
    Dataset,
    Dictionary,
    build_dictionary,
    dataset_from_arrays,
)
from .evaluation import (
    EvalReport,
    Roc,
    ScoreSet,
    build_scoreset,
    compute_roc,
    evaluate_verification,
    generate_synthetic,
    rank1_identification,
)
from .pca import PcaModel, pca_fit, pca_sweep, transform_dataset

__version__ = "0.1.0"

__all__ = [
    "CrcOperator",
    "Dataset",
    "Dictionary",
    "EvalReport",
    "Gallery",
    "PcaModel",
    "Roc",
    "SacrcConfig",
    "ScoreSet",
    "build_dictionary",
    "build_scoreset",
    "compute_roc",
    "dataset_from_arrays",
    "evaluate_verification",
    "generate_synthetic",
    "pca_fit",
    "pca_sweep",
    "rank1_identification",
    "transform_dataset",
]
