"""Attention building blocks over sets: MAB, SAB and the slot-attention layer.

All three are wrappers over one graph builder, :func:`mab_graph`, which works
on padded batches. The public single-set functions lift a :class:`FeatureSet`
to a batch of one and evaluate the graph immediately, without a tape.

Contracts: outputs are permutation-equivariant in the queries and
permutation-invariant in the key/value set, and masked key rows receive zero
attention weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .sets import FeatureSet


@dataclass
class AttentionParams:
    """Handle to one attention block's parameters inside a ParamStore."""

    store: ad.ParamStore
    prefix: str
    dim: int
    heads: int

    def __post_init__(self):
        if self.dim % self.heads != 0:
            raise ValueError("dim must be divisible by heads")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    def tensor(self, name: str) -> ad.Tensor:
        return ad.param(self.store, f"{self.prefix}.{name}")


PARAM_FIELDS = (
    ("wq", 2), ("wk", 2), ("wv", 2), ("wo", 2),
    ("ff_w1", 2), ("ff_b1", 1), ("ff_w2", 2), ("ff_b2", 1),
    ("ln1_g", 1), ("ln1_b", 1), ("ln2_g", 1), ("ln2_b", 1),
)


def init_attention_params(
    store: ad.ParamStore, prefix: str, dim: int, heads: int, rng: np.random.Generator
) -> AttentionParams:
    """Allocate one block's weights: scaled-normal matrices, identity norms."""
    sd = 1.0 / math.sqrt(dim)
    for name, ndim in PARAM_FIELDS:
        if name.startswith("ln"):
            init = np.ones(dim) if name.endswith("_g") else np.zeros(dim)
        elif ndim == 2:
            init = rng.normal(0.0, sd, size=(dim, dim))
        else:
            init = np.zeros(dim)
        store.add(f"{prefix}.{name}", init)
    return AttentionParams(store, prefix, dim, heads)


def mab_graph(
    q: ad.Tensor, kv: ad.Tensor, key_mask: np.ndarray, params: AttentionParams
) -> ad.Tensor:
    """Multi-head attention block over padded batches.

    q: (B, M, D) queries, kv: (B, N, D) key/values, key_mask: (B, N) with 1.0
    marking valid kv rows. Returns (B, M, D).
    """
    B, M, D = q.values.shape
    N = kv.values.shape[1]
    H, dh = params.heads, params.head_dim

    def split_heads(t: ad.Tensor, n: int) -> ad.Tensor:
        return ad.transpose(ad.reshape(t, (B, n, H, dh)), (0, 2, 1, 3))

    qp = split_heads(ad.matmul(q, params.tensor("wq")), M)
    kp = split_heads(ad.matmul(kv, params.tensor("wk")), N)
    vp = split_heads(ad.matmul(kv, params.tensor("wv")), N)

    ctx = ad.attention(qp, kp, vp, key_mask, 1.0 / math.sqrt(dh))
    merged = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (B, M, D))
    attended = ad.matmul(merged, params.tensor("wo"))

    h = ad.layernorm(ad.add(q, attended), params.tensor("ln1_g"), params.tensor("ln1_b"))
    ff = ad.add(
        ad.matmul(
            ad.relu(ad.add(ad.matmul(h, params.tensor("ff_w1")), params.tensor("ff_b1"))),
            params.tensor("ff_w2"),
        ),
        params.tensor("ff_b2"),
    )
    return ad.layernorm(ad.add(h, ff), params.tensor("ln2_g"), params.tensor("ln2_b"))


def _check_pair(queries: FeatureSet, keyvalues: FeatureSet, params: AttentionParams) -> None:
    if queries.dim != keyvalues.dim:
        raise ValueError("query and keyvalue feature dimensions differ")
    if queries.dim != params.dim:
        raise ValueError("feature dimension does not match params")
    if queries.cardinality == 0:
        raise ValueError("empty query set")
    if keyvalues.cardinality == 0:
        raise ValueError("keyvalue set has no valid rows")


def mab(queries: FeatureSet, keyvalues: FeatureSet, params: AttentionParams) -> FeatureSet:
    """Queries attend to key/values; one attention + feed-forward block."""
    _check_pair(queries, keyvalues, params)
    q = ad.const(queries.features[None])
    kv = ad.const(keyvalues.features[None])
    with ad.inference():
        out = mab_graph(q, kv, keyvalues.mask[None], params)
    return FeatureSet(out.values[0], queries.mask.copy(), queries.element_ids)


def sab(x: FeatureSet, params: AttentionParams) -> FeatureSet:
    """Self-attention block: the set attends to itself."""
    return mab(x, x, params)


def slot_attention_layer(slots: FeatureSet, x: FeatureSet, params: AttentionParams) -> FeatureSet:
    """One conditioning layer: slots attend to the input set."""
    return mab(slots, x, params)
