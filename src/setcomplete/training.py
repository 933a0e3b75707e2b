"""Training drivers: scorer pretraining and variant training with a frozen scorer.

Runs are deterministic: every random draw comes from generators seeded by
(config seed, epoch, batch), outfits are split into train/val/test by an
id hash, and checkpoints use a timestamp-free container, so identical
configs reproduce identical bytes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import evaluation
from .data import Catalog, Outfit, split_outfit, split_outfits, splitmix64, triples_for, items_in
from .losses import LossConfig, batch_loss_graph
from .matching import MatchConfig, MatchParams, init_match_params, pretrain_matching
from .model import CONDITIONED, REGULARIZED, CSTParams, ModelConfig, build_variant
from .retrieval import build_index
from .serialize import config_from_meta, load_arrays, reading, save_arrays

LOG_COLUMNS = ("epoch", "ce", "chamfer", "sm", "total", "val_recall", "val_accuracy", "val_smd", "best_epoch")
# Neighbors per output feature in the per-epoch validation recall.
EVAL_K = 32


@dataclass
class TrainConfig:
    variant: str = "CR"
    epochs: int = 15
    batch_size: int = 32
    learning_rate: float = 0.05
    momentum: float = 0.9
    alpha: float = 0.5
    temperature: float = 0.2
    seed: int = 0
    dim: int = 32
    heads: int = 4
    slot_layers: int = 3
    sab_layers: int = 2
    categories: int = 12

    def validate(self) -> "TrainConfig":
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.variant in CONDITIONED and self.batch_size < 2:
            raise ValueError("in-batch cross-entropy needs batch_size >= 2")
        return self

    def model_config(self) -> ModelConfig:
        return ModelConfig(self.dim, self.heads, self.slot_layers, self.sab_layers, self.categories)

    def loss_config(self) -> LossConfig:
        return LossConfig(alpha=self.alpha, temperature=self.temperature)


# -- checkpoints -------------------------------------------------------------------


def save_cst_checkpoint(path: str | Path, params: CSTParams, extra: dict | None = None) -> None:
    meta = {
        "kind": "cst-checkpoint",
        "variant": params.variant,
        "config": dataclasses.asdict(params.config),
        "extra": extra or {},
    }
    save_arrays(path, params.store.params, meta)


def _load_params(store: ad.ParamStore, arrays: dict[str, np.ndarray]) -> None:
    """Copy checkpoint arrays into `store`, which must hold exactly their names and shapes."""
    missing = sorted(set(store.params) - set(arrays))
    unknown = sorted(set(arrays) - set(store.params))
    if missing or unknown:
        raise ValueError(f"checkpoint parameters do not match the model: missing {missing}, unknown {unknown}")
    for name, arr in arrays.items():
        want = store.params[name].shape
        if arr.shape != want:
            raise ValueError(f"checkpoint shape mismatch for {name!r}: {arr.shape}, expected {want}")
        store.params[name][...] = arr


def load_cst_checkpoint(path: str | Path) -> tuple[CSTParams, dict]:
    """Read a model checkpoint; a malformed file raises a one-line ValueError naming it."""
    arrays, meta = load_arrays(path)
    with reading(path):
        if meta.get("kind") != "cst-checkpoint":
            raise ValueError("not a model checkpoint")
        params = build_variant(meta.get("variant"), config_from_meta(ModelConfig, meta.get("config"), "config"))
        _load_params(params.store, arrays)
    return params, meta


def save_match_checkpoint(path: str | Path, params: MatchParams, extra: dict | None = None) -> None:
    meta = {
        "kind": "match-checkpoint",
        "config": dataclasses.asdict(params.config),
        "frozen": params.frozen,
        "extra": extra or {},
    }
    save_arrays(path, params.store.params, meta)


def load_match_checkpoint(path: str | Path) -> tuple[MatchParams, dict]:
    """Read a scorer checkpoint; a malformed file raises a one-line ValueError naming it."""
    arrays, meta = load_arrays(path)
    with reading(path):
        if meta.get("kind") != "match-checkpoint":
            raise ValueError("not a scorer checkpoint")
        params = init_match_params(config_from_meta(MatchConfig, meta.get("config"), "config"))
        _load_params(params.store, arrays)
    if meta.get("frozen", True):
        params.freeze()
    return params, meta


# -- CST training -------------------------------------------------------------------


def train_cst(
    catalog: Catalog,
    outfits: list[Outfit],
    scorer: MatchParams | None,
    config: TrainConfig,
    log=None,
) -> tuple[CSTParams, list[dict]]:
    """Train one variant; returns best-validation params and the epoch log.

    The kept epoch is the one with the best val recall, or with the lowest
    total loss when there is no val split. Each log row names the epoch kept
    so far as ``best_epoch``.
    """
    config.validate()
    if config.variant in REGULARIZED:
        if scorer is None:
            raise ValueError(f"variant {config.variant} requires a pretrained scorer")
        if not scorer.frozen:
            raise ValueError("the scorer must be frozen before variant training")

    splits = split_outfits(outfits)
    train_outfits = [o for o in splits["train"] if len(o.item_ids) >= 2]
    if len(train_outfits) < config.batch_size:
        raise ValueError("dataset too small to form a single batch")
    val_outfits = [o for o in splits["val"] if len(o.item_ids) >= 2]
    val_triples = triples_for(val_outfits, catalog, seed=config.seed) if val_outfits else []
    val_index = (
        build_index(catalog, item_ids=items_in(val_outfits)) if val_outfits else None
    )

    params = build_variant(config.variant, config.model_config(), seed=config.seed)
    loss_cfg = config.loss_config()
    history: list[dict] = []
    best = {"metric": -np.inf, "values": None, "epoch": -1}

    for epoch in range(config.epochs):
        rng = np.random.default_rng([config.seed, 11, epoch])
        order = rng.permutation(len(train_outfits))
        sums = {"ce": 0.0, "sm": 0.0, "chamfer": 0.0, "total": 0.0}
        batches = 0
        for start in range(0, len(order) - config.batch_size + 1, config.batch_size):
            batch = [split_outfit(train_outfits[i], rng, catalog) for i in order[start : start + config.batch_size]]
            slot_seed = splitmix64((config.seed << 20) + (epoch << 10) + batches)
            try:
                loss_node, parts = batch_loss_graph(params, scorer, batch, loss_cfg, slot_seed=slot_seed, rng=rng)
                graph = ad.Graph(loss_node)
                loss, grads = ad.eval_and_grad(graph, params.store)
            except ad.GradientError as exc:
                raise ad.GradientError(
                    f"training aborted at epoch {epoch}, batch {batches}: {exc}"
                ) from exc
            ad.sgd_step(params.store, grads, config.learning_rate, config.momentum)
            for key, node in parts.items():
                sums[key] += float(node.values)
            sums["total"] += loss
            batches += 1
        row = {k: (sums[k] / batches if sums[k] else 0.0) for k in sums}
        row["epoch"] = epoch

        if val_triples:
            val = evaluation.quick_val_metrics(params, val_triples, val_index, scorer, k=EVAL_K, seed=config.seed)
            row.update(val)
            metric = val["val_recall"]
        else:
            row.update({"val_recall": 0.0, "val_accuracy": 0.0, "val_smd": 0.0})
            metric = -float(row["total"])
        if metric > best["metric"]:
            best = {"metric": metric, "values": {n: p.copy() for n, p in params.store.params.items()}, "epoch": epoch}
        row["best_epoch"] = best["epoch"]
        history.append(row)
        if log:
            log(row)

    if best["values"] is not None:
        for name, arr in best["values"].items():
            params.store.params[name][...] = arr
    return params, history


def train_matching(
    catalog: Catalog,
    outfits: list[Outfit],
    config: MatchConfig | None = None,
    log=None,
) -> tuple[MatchParams, list[dict], dict]:
    """Pretrain the scorer on the train split; report FINB on the val split."""
    config = config or MatchConfig()
    splits = split_outfits(outfits)
    train_outfits = [o for o in splits["train"] if len(o.item_ids) >= 2]
    params, history = pretrain_matching(catalog, train_outfits, config, log=log)
    finb = evaluation.finb_eval(
        params, splits["val"], catalog, seed=config.seed, selector="scorer"
    )
    return params, history, finb
