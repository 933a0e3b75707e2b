"""Conditional set transformation models.

The main map takes a query set X and a condition set Z and produces all
missing-element features in one inference: slots initialized from Z attend to
X through a slot-attention stack, a SAB stack mixes the slots, and rows are
unit-normalized. Six variants cover the ablation grid (condition lookup vs
gaussian slots, with/without the SAB stack, with/without score
regularization) plus a sequential baseline that generates one element per
step and retrieves after each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .layers import AttentionParams, init_attention_params, mab_graph
from .sets import FeatureSet, pad_stack

VARIANTS = ("CR", "Cx", "xR", "xx", "sa", "st")
CONDITIONED = ("CR", "Cx", "st")
REGULARIZED = ("CR", "xR")
CHAMFER_VARIANTS = ("xR", "xx", "sa")


@dataclass
class ModelConfig:
    dim: int = 32
    heads: int = 4
    slot_layers: int = 3
    sab_layers: int = 2
    categories: int = 12

    def validate(self) -> "ModelConfig":
        if self.dim % self.heads != 0:
            raise ValueError("dim must be divisible by heads")
        if min(self.dim, self.heads, self.slot_layers, self.categories) < 1:
            raise ValueError("all model sizes must be positive")
        return self


@dataclass
class CSTParams:
    variant: str
    config: ModelConfig
    store: ad.ParamStore
    slot_stack: list[AttentionParams] = field(default_factory=list)
    sab_stack: list[AttentionParams] = field(default_factory=list)
    # the conditioned variants' (categories, D) lookup table, the store's
    # "cond_table" array, so in-place updates reach it
    embedding: np.ndarray | None = None

    @property
    def conditioned(self) -> bool:
        return self.variant in CONDITIONED


def build_variant(tag: str, config: ModelConfig | None = None, seed: int = 0) -> CSTParams:
    """Allocate parameters for one ablation variant."""
    if tag not in VARIANTS:
        raise ValueError(f"unknown variant {tag!r}; expected one of {VARIANTS}")
    config = (config or ModelConfig()).validate()
    rng = np.random.default_rng([seed, VARIANTS.index(tag)])
    store = ad.ParamStore()
    params = CSTParams(variant=tag, config=config, store=store)

    if tag in CONDITIONED:
        sd = 1.0 / np.sqrt(config.dim)
        params.embedding = store.add("cond_table", rng.normal(0.0, sd, size=(config.categories, config.dim)))

    if tag == "st":
        for i in range(config.sab_layers):
            params.sab_stack.append(
                init_attention_params(store, f"enc{i}", config.dim, config.heads, rng)
            )
        sd = 1.0 / np.sqrt(config.dim)
        store.add("head_w1", rng.normal(0.0, sd, size=(config.dim, config.dim)))
        store.add("head_b1", np.zeros(config.dim))
        store.add("head_w2", rng.normal(0.0, sd, size=(config.dim, config.dim)))
        store.add("head_b2", np.zeros(config.dim))
        return params

    for i in range(config.slot_layers):
        params.slot_stack.append(
            init_attention_params(store, f"slot{i}", config.dim, config.heads, rng)
        )
    if tag != "sa":
        for i in range(config.sab_layers):
            params.sab_stack.append(
                init_attention_params(store, f"sab{i}", config.dim, config.heads, rng)
            )
    return params


def check_categories(labels, categories: int) -> None:
    """Refuse a category id outside a table of `categories` rows; `labels` is one int or an int array."""
    if isinstance(labels, int):  # one sequential step: no NumPy call
        low = high = labels
    else:
        low, high = np.min(labels, initial=0), np.max(labels, initial=-1)
    if low < 0 or high >= categories:
        raise ValueError("category id outside the embedding table")


def embed_conditions(labels, table: np.ndarray) -> FeatureSet:
    """Rows of the (categories, D) lookup table for the given category ids, order preserved."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("labels must be a nonempty 1-D list of category ids")
    check_categories(labels, table.shape[0])
    return FeatureSet(table[labels], element_ids=labels)


def slots_graph(params: CSTParams, labels_batch: list[np.ndarray], width: int, slot_seed: int = 0):
    """Initial slot tensor (B, width, D) plus mask for a batch of condition lists.

    Conditioned variants gather rows from the lookup table (differentiable);
    the rest draw standard-normal slots from a generator seeded by `slot_seed`.
    Padded slot rows hold lookup row 0 or noise: every block masks its padded
    query rows (`autodiff.mab`), so none reaches an output or a gradient.
    """
    B, dim = len(labels_batch), params.config.dim
    mask = (np.arange(width) < np.array([len(lab) for lab in labels_batch])[:, None]).astype(np.float64)
    if params.conditioned:
        labels = np.concatenate(labels_batch).astype(np.int64, copy=False)
        check_categories(labels, params.config.categories)
        flat = np.zeros(B * width, dtype=np.int64)
        flat[np.flatnonzero(mask)] = labels
        return ad.reshape(ad.gather_rows(ad.param(params.store, "cond_table"), flat), (B, width, dim)), mask
    return ad.const(np.random.default_rng(slot_seed).standard_normal((B, width, dim))), mask


def cst_graph(
    params: CSTParams,
    x_feats: np.ndarray,
    x_mask: np.ndarray,
    z0: ad.Tensor,
    z_mask: np.ndarray,
) -> ad.Tensor:
    """Batched forward graph: (B, M, D) unit-normalized output features."""
    if params.variant == "st":
        raise ValueError("the sequential baseline has no one-shot forward")
    if x_mask.sum(axis=1).min() <= 0:
        raise ValueError("empty query set")
    if z_mask.sum(axis=1).min() <= 0:
        raise ValueError("empty condition set")
    x = ad.const(x_feats)
    y = z0
    for layer in params.slot_stack:
        y = mab_graph(y, x, x_mask, layer, z_mask)
    for layer in params.sab_stack:
        y = mab_graph(y, y, z_mask, layer, z_mask)
    return ad.l2_normalize(y)


_FORWARD_COUNT = {"n": 0}


def reset_forward_count() -> None:
    _FORWARD_COUNT["n"] = 0


def get_forward_count() -> int:
    return _FORWARD_COUNT["n"]


def cst_forward(x: FeatureSet, z: FeatureSet, params: CSTParams) -> FeatureSet:
    """One inference: all |Z| output features at once, rows unit-normalized."""
    if x.dim != params.config.dim:
        raise ValueError("query feature dimension does not match the model")
    if z.dim != params.config.dim:
        raise ValueError("condition feature dimension does not match the model")
    x_pad, x_mask = pad_stack([x.features])
    z_pad, z_mask = pad_stack([z.features])
    with ad.inference():
        out = cst_graph(params, x_pad, x_mask, ad.const(z_pad), z_mask)
    _FORWARD_COUNT["n"] += 1
    return FeatureSet(out.values[0], element_ids=z.element_ids)


def complete_batch(
    xs: list[FeatureSet], labels_list, params: CSTParams, slot_seed: int = 0
) -> list[np.ndarray]:
    """One inference for a batch of queries: a (len(labels), D) array of unit
    rows per query, in order.

    Queries are padded to one width and slots are seeded by `slots_graph`
    (gaussian variants draw one (B, width, D) block from `slot_seed`), then
    `cst_graph` runs once without a tape.
    """
    if len(xs) != len(labels_list) or not xs:
        raise ValueError("need one nonempty label list per query set")
    labels = [np.asarray(lab, dtype=np.int64) for lab in labels_list]
    if any(lab.ndim != 1 or lab.size == 0 for lab in labels):
        raise ValueError("labels must be a nonempty 1-D list of category ids")
    if any(x.dim != params.config.dim for x in xs):
        raise ValueError("query feature dimension does not match the model")
    x_pad, x_mask = pad_stack([x.features for x in xs])
    with ad.inference():
        z0, z_mask = slots_graph(params, labels, max(lab.size for lab in labels), slot_seed)
        out = cst_graph(params, x_pad, x_mask, z0, z_mask).values
    _FORWARD_COUNT["n"] += 1
    return [out[i, : lab.size].copy() for i, lab in enumerate(labels)]


def complete_features(x: FeatureSet, labels, params: CSTParams, slot_seed: int = 0) -> FeatureSet:
    """Complete one query: `complete_batch` with a batch of one."""
    labels = np.asarray(labels, dtype=np.int64)
    (rows,) = complete_batch([x], [labels], params, slot_seed)
    return FeatureSet(rows, element_ids=labels)


# -- sequential set-transformer baseline ----------------------------------------


def st_encode_graph(params: CSTParams, feats, mask: np.ndarray) -> ad.Tensor:
    """Encode a padded batch with the SAB stack, pool, project to unit rows."""
    x = ad.as_tensor(feats)
    for layer in params.sab_stack:
        x = mab_graph(x, x, mask, layer, mask)
    pooled = ad.masked_mean(x, mask)
    h = ad.relu(ad.add(ad.matmul(pooled, ad.param(params.store, "head_w1")), ad.param(params.store, "head_b1")))
    out = ad.add(ad.matmul(h, ad.param(params.store, "head_w2")), ad.param(params.store, "head_b2"))
    return ad.l2_normalize(out)


def st_encode(x: FeatureSet, label: int, params: CSTParams) -> np.ndarray:
    """One sequential step: encode the condition token for `label` followed
    by x's rows, the order training uses."""
    if params.variant != "st":
        raise ValueError("st_encode requires the sequential baseline variant")
    label = int(label)
    check_categories(label, params.config.categories)
    feats = np.concatenate([params.embedding[label][None], x.features], axis=0)
    mask = np.ones(feats.shape[0], dtype=np.float64)
    with ad.inference():
        out = st_encode_graph(params, feats[None], mask[None])
    _FORWARD_COUNT["n"] += 1
    return out.values[0]


def st_sequential_complete(x: FeatureSet, labels, params: CSTParams, index) -> list[int]:
    """Generate one element per step, retrieving and re-appending each time."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("labels must be nonempty")
    current = x.features
    chosen: list[int] = []
    for label in labels:
        feature = st_encode(FeatureSet(current), int(label), params)
        item_id = int(index.query_knn(feature, k=1, category_filter=int(label))[0][0])
        chosen.append(item_id)
        row = int(index.ids.searchsorted(item_id))  # a hit of the index's own search, so present
        current = np.concatenate([current, index.features[row : row + 1]], axis=0)
    return chosen


def complete_ids(x: FeatureSet, labels, params: CSTParams, index, slot_seed: int = 0) -> list[int]:
    """Complete a query with one indexed item per label, in label order.

    The sequential baseline runs `st_sequential_complete`; the one-shot
    variants run one `complete_batch` inference and take each output row's
    nearest item within its label, from one ``ranked_ids`` call.
    """
    if params.variant == "st":
        return st_sequential_complete(x, labels, params, index)
    (rows,) = complete_batch([x], [labels], params, slot_seed)
    return [ids[0] for ids in index.ranked_ids(rows, 1, category_filters=[int(label) for label in labels])]
