"""Sparsity-augmented collaborative representation recognition toolkit."""

from .classifiers import (
    CrcOperator,
    SacrcConfig,
    crc_solve,
    omp_solve,
    sacrc_classify,
    score_matrix,
)
from .core import (
    Dataset,
    Dictionary,
    RepresentationResult,
    build_dictionary,
    dataset_from_arrays,
)
from .evaluation import (
    EvalReport,
    Roc,
    ScoreSet,
    build_scoreset,
    compute_eer,
    compute_gmr_at_far,
    compute_roc,
    evaluate_verification,
    generate_synthetic,
    rank1_identification,
)
from .features import (
    ActivationTensor,
    StandardizationModel,
    fit_standardizer,
    flatten_activations,
    fuse,
    l2_normalize,
    standardize,
)
from .pca import PcaModel, pca_fit, pca_sweep, transform_dataset

__version__ = "0.1.0"

__all__ = [
    "ActivationTensor",
    "CrcOperator",
    "Dataset",
    "Dictionary",
    "EvalReport",
    "PcaModel",
    "RepresentationResult",
    "Roc",
    "SacrcConfig",
    "ScoreSet",
    "StandardizationModel",
    "build_dictionary",
    "build_scoreset",
    "compute_eer",
    "compute_gmr_at_far",
    "compute_roc",
    "crc_solve",
    "dataset_from_arrays",
    "evaluate_verification",
    "fit_standardizer",
    "flatten_activations",
    "fuse",
    "generate_synthetic",
    "l2_normalize",
    "omp_solve",
    "pca_fit",
    "pca_sweep",
    "rank1_identification",
    "sacrc_classify",
    "score_matrix",
    "standardize",
    "transform_dataset",
]
