"""Attention building blocks over sets: MAB, SAB and the slot-attention layer.

A block is one tape op, :func:`autodiff.mab`: attention, residual, layer
norm and feed-forward run as one node with a hand-written backward.
:func:`mab_graph` adds that node for a padded batch, whose row-wise work
then runs on the valid rows only; SAB is the same block with queries and
key/values one tensor and one mask. The 12 weight nodes belong to the
block's :class:`AttentionParams`, built once and shared by every call, so a
graph holds them once however often it uses the block. The public
single-set functions lift a :class:`FeatureSet` to a batch of one and
evaluate the block without a tape.

Contracts: outputs are permutation-equivariant in the queries and
permutation-invariant in the key/value set, and masked key rows receive zero
attention weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .sets import FeatureSet, pad_stack


@dataclass
class AttentionParams:
    """Handle to one attention block's parameters inside a ParamStore.

    The 12 weight tensors are built once, in MAB_WEIGHTS order, when the
    handle is made. Each holds the store's own array, so updates made in
    place (an SGD step, a checkpoint load, the best-epoch restore) reach the
    next forward. Whether they take gradients follows ``store.frozen`` when
    a block is built, so freezing the store after the handle exists also
    stops their gradients.
    """

    store: ad.ParamStore
    prefix: str
    dim: int
    heads: int
    _weights: tuple = field(init=False, repr=False, compare=False)
    _frozen: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim % self.heads != 0:
            raise ValueError("dim must be divisible by heads")
        self._weights = tuple(ad.param(self.store, f"{self.prefix}.{name}") for name, _ in ad.MAB_WEIGHTS)
        self._frozen = self.store.frozen

    def weights(self) -> tuple[ad.Tensor, ...]:
        """The weight tensors in MAB_WEIGHTS order, taking gradients unless the store is frozen."""
        if self._frozen != self.store.frozen:
            self._frozen = self.store.frozen
            for w in self._weights:
                w.requires_grad = not self._frozen
        return self._weights


def init_attention_params(
    store: ad.ParamStore, prefix: str, dim: int, heads: int, rng: np.random.Generator
) -> AttentionParams:
    """Allocate one block's weights: scaled-normal matrices, identity norms."""
    sd = 1.0 / math.sqrt(dim)
    for name, ndim in ad.MAB_WEIGHTS:
        if name.startswith("ln"):
            init = np.ones(dim) if name.endswith("_g") else np.zeros(dim)
        elif ndim == 2:
            init = rng.normal(0.0, sd, size=(dim, dim))
        else:
            init = np.zeros(dim)
        store.add(f"{prefix}.{name}", init)
    return AttentionParams(store, prefix, dim, heads)


def mab_graph(
    q: ad.Tensor, kv: ad.Tensor, key_mask: np.ndarray, params: AttentionParams,
    query_mask: np.ndarray | None = None,
) -> ad.Tensor:
    """Multi-head attention block over padded batches, as one tape node.

    q: (B, M, D) queries, kv: (B, N, D) key/values, key_mask: (B, N) with 1.0
    marking valid kv rows, query_mask: (B, M) marking valid query rows (None:
    every row). Returns (B, M, D), with exact zeros in the padding query rows.
    """
    return ad.mab(q, kv, key_mask, params.weights(), params.heads, query_mask)


def _check_pair(queries: FeatureSet, keyvalues: FeatureSet, params: AttentionParams) -> None:
    if queries.dim != keyvalues.dim:
        raise ValueError("query and keyvalue feature dimensions differ")
    if queries.dim != params.dim:
        raise ValueError("feature dimension does not match params")


def mab(queries: FeatureSet, keyvalues: FeatureSet, params: AttentionParams) -> FeatureSet:
    """Queries attend to key/values; one attention + feed-forward block."""
    _check_pair(queries, keyvalues, params)
    q, _ = pad_stack([queries.features])
    kv, kv_mask = pad_stack([keyvalues.features])
    with ad.inference():
        out = mab_graph(ad.const(q), ad.const(kv), kv_mask, params)
    return FeatureSet(out.values[0], element_ids=queries.element_ids)


def sab(x: FeatureSet, params: AttentionParams) -> FeatureSet:
    """Self-attention block: the set attends to itself."""
    return mab(x, x, params)


def slot_attention_layer(slots: FeatureSet, x: FeatureSet, params: AttentionParams) -> FeatureSet:
    """One conditioning layer: slots attend to the input set."""
    return mab(slots, x, params)
