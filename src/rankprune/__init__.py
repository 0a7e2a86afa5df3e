"""Structured compression for LLaMA-style transformer weights.

Attention matrices are replaced by activation-weighted truncated-SVD
factors under a low-rank-degree-aware parameter budget; FFN sub-layers
are channel-pruned at the group level with a small least-important
retention slice.  Calibration, perplexity evaluation, spectral and mask
diagnostics, and a reproducible CLI pipeline round out the toolkit.
"""

from .config import ModelConfig
from .errors import (
    AllocationError,
    CalibrationError,
    CompressionError,
    ContainerFormatError,
    DataError,
    DecompositionError,
    InfeasibleRatioError,
    ManifestError,
    MissingTensorError,
    ShapeMismatchError,
)
from .linalg import weighted_frobenius_error
from .lowrank import FactorPair, allocate_mha, awsvd_factor, compress_mha
from .pipeline import CompressionPlan, compress_model, plan_from_ratio_s, write_outputs
from .pruning import (
    PruneDecision,
    apply_pruning,
    channel_scores,
    decide_pruning,
    energy_rank_ratio,
    group_scores,
    wanda_mask,
    weight_importance,
)
from .store import load_compressed, load_model, plan_ratio, write_compressed
from .transformer import (
    TransformerModel,
    collect_stats,
    count_params_macs,
    forward,
    perplexity,
    tokenize_bytes,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationError",
    "CalibrationError",
    "CompressionError",
    "CompressionPlan",
    "ContainerFormatError",
    "DataError",
    "DecompositionError",
    "FactorPair",
    "InfeasibleRatioError",
    "ManifestError",
    "MissingTensorError",
    "ModelConfig",
    "PruneDecision",
    "ShapeMismatchError",
    "TransformerModel",
    "allocate_mha",
    "apply_pruning",
    "awsvd_factor",
    "channel_scores",
    "collect_stats",
    "compress_mha",
    "compress_model",
    "count_params_macs",
    "decide_pruning",
    "energy_rank_ratio",
    "forward",
    "group_scores",
    "load_compressed",
    "load_model",
    "perplexity",
    "plan_from_ratio_s",
    "plan_ratio",
    "tokenize_bytes",
    "wanda_mask",
    "weight_importance",
    "weighted_frobenius_error",
    "write_compressed",
    "write_outputs",
]
