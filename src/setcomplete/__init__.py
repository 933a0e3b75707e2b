"""Set completion via conditional set transformation.

Given a query set of feature vectors and a list of category labels, the model
predicts all missing element features in one inference; completions are
materialized by nearest-neighbor retrieval over an item index. The package
bundles the model family, a frozen set-compatibility scorer used for
regularization and evaluation, a synthetic dataset generator with planted
style structure, training drivers, and an evaluation harness.
"""

__version__ = "0.1.0"

from .sets import FeatureSet
from .layers import AttentionParams, init_attention_params, mab, sab, slot_attention_layer
from .model import (
    CSTParams,
    ModelConfig,
    build_variant,
    complete_features,
    complete_ids,
    cst_forward,
    embed_conditions,
    st_sequential_complete,
)
from .matching import MatchConfig, MatchParams, match_score, pretrain_matching
from .losses import LossConfig, ce_inbatch, chamfer, sm_reg
from .data import (
    Catalog,
    GenConfig,
    Outfit,
    SplitTriple,
    generate_dataset,
    read_catalog_jsonl,
    read_jsonl,
    split_of,
    split_outfit,
    split_outfits,
    write_catalog_jsonl,
    write_jsonl,
)
from .retrieval import AnnConfig, RetrievalIndex, build_index
from .training import TrainConfig, train_cst, train_matching
from .evaluation import (
    ComplexityInputs,
    MetricsReport,
    category_accuracy,
    complexity_calc,
    finb_eval,
    recall_at_k,
    smd,
    timing_benchmark,
)

__all__ = [
    "FeatureSet",
    "AttentionParams",
    "init_attention_params",
    "mab",
    "sab",
    "slot_attention_layer",
    "CSTParams",
    "ModelConfig",
    "build_variant",
    "complete_features",
    "complete_ids",
    "cst_forward",
    "embed_conditions",
    "st_sequential_complete",
    "MatchConfig",
    "MatchParams",
    "match_score",
    "pretrain_matching",
    "LossConfig",
    "ce_inbatch",
    "chamfer",
    "sm_reg",
    "Catalog",
    "GenConfig",
    "Outfit",
    "SplitTriple",
    "generate_dataset",
    "read_catalog_jsonl",
    "read_jsonl",
    "split_of",
    "split_outfit",
    "split_outfits",
    "write_catalog_jsonl",
    "write_jsonl",
    "AnnConfig",
    "RetrievalIndex",
    "build_index",
    "TrainConfig",
    "train_cst",
    "train_matching",
    "ComplexityInputs",
    "MetricsReport",
    "category_accuracy",
    "complexity_calc",
    "finb_eval",
    "recall_at_k",
    "smd",
    "timing_benchmark",
]
