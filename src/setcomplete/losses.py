"""Training objectives: Chamfer, in-batch cross-entropy, score regularization.

Public functions score single triples; the `*_graph` builders are batched and
differentiable, and `batch_loss_graph` wires them per variant:

  CR  cross-entropy + alpha * score regularization
  Cx  cross-entropy
  xR  chamfer + alpha * score regularization
  xx  chamfer
  sa  chamfer (no SAB stack in the model)
  st  cross-entropy on one sampled sequential step per outfit
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .matching import MatchParams, encode_graph, symmetric_score
from .model import CHAMFER_VARIANTS, REGULARIZED, CSTParams, check_categories, cst_graph, slots_graph, st_encode_graph
from .sets import FeatureSet, pad_stack


@dataclass
class LossConfig:
    alpha: float = 1.0
    temperature: float = 1.0

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


# -- chamfer -------------------------------------------------------------------


def chamfer(x: FeatureSet, y: FeatureSet) -> float:
    """Symmetric sum of nearest-neighbor squared Euclidean distances."""
    a, mask_a = pad_stack([x.features])
    b, mask_b = pad_stack([y.features])
    node = ad.chamfer_cost(ad.const(a), ad.const(b), mask_a, mask_b, np.ones(1))
    return float(node.values)


# -- in-batch cross-entropy ------------------------------------------------------


def _label_indices(ytrue: FeatureSet, universe: FeatureSet) -> np.ndarray:
    labels = np.empty(ytrue.features.shape[0], dtype=np.int64)
    if ytrue.element_ids is not None and universe.element_ids is not None:
        lookup = {int(e): i for i, e in enumerate(universe.element_ids)}
        for m, e in enumerate(ytrue.element_ids):
            if int(e) not in lookup:
                raise ValueError(f"target element {int(e)} missing from universe")
            labels[m] = lookup[int(e)]
        return labels
    for m, row in enumerate(ytrue.features):
        hits = np.where(np.all(universe.features == row, axis=1))[0]
        if hits.size == 0:
            raise ValueError(f"target row {m} missing from universe")
        labels[m] = hits[0]
    return labels


def ce_graph(yhat: ad.Tensor, universe: np.ndarray, labels, weights, temperature: float = 1.0) -> ad.Tensor:
    """Weighted in-batch softmax cross-entropy over dot-product logits
    against the rows of the constant `universe`."""
    logits = ad.scale(ad.matmul(yhat, ad.const(np.ascontiguousarray(universe.T))), 1.0 / temperature)
    return ad.cross_entropy(logits, labels, weights)


def ce_inbatch(yhat: FeatureSet, ytrue: FeatureSet, universe: FeatureSet, config: LossConfig | None = None) -> float:
    """Mean negative log-probability of each true element among the universe."""
    config = config or LossConfig()
    m = yhat.features.shape[0]
    if m != ytrue.features.shape[0]:
        raise ValueError("prediction and target cardinalities differ")
    labels = _label_indices(ytrue, universe)
    node = ce_graph(
        ad.const(yhat.features), universe.features, labels,
        np.full(m, 1.0 / m), config.temperature,
    )
    return float(node.values)


# -- score-difference regularization ------------------------------------------------


def sm_graph(
    scorer: MatchParams,
    x_pad: np.ndarray, x_mask: np.ndarray,
    yhat: ad.Tensor, y_mask: np.ndarray,
    ytrue_pad: np.ndarray, ytrue_mask: np.ndarray,
) -> ad.Tensor:
    """Mean softplus(g(X, Y) - g(X, Yhat)) over a padded batch.

    The query encoding is shared between the two score terms.
    """
    if not scorer.frozen:
        raise ValueError("the compatibility scorer must be frozen")
    ex = encode_graph(scorer, x_pad, x_mask)
    et = encode_graph(scorer, ytrue_pad, ytrue_mask)
    eh = encode_graph(scorer, yhat, y_mask)
    s_true = symmetric_score(scorer, ex, x_mask, et, ytrue_mask)
    s_hat = symmetric_score(scorer, ex, x_mask, eh, y_mask)
    return ad.tmean(ad.softplus(ad.sub(s_true, s_hat)))


def sm_reg(yhat: FeatureSet, x: FeatureSet, ytrue: FeatureSet, scorer: MatchParams) -> float:
    """Penalty that is large when the completion under-scores the truth."""
    x_pad, x_mask = pad_stack([x.features])
    y_pad, y_mask = pad_stack([yhat.features])
    t_pad, t_mask = pad_stack([ytrue.features])
    node = sm_graph(scorer, x_pad, x_mask, ad.const(y_pad), y_mask, t_pad, t_mask)
    return float(node.values)


# -- per-variant wiring -----------------------------------------------------------


def batch_loss_graph(
    params: CSTParams,
    scorer: MatchParams | None,
    triples: list,
    config: LossConfig | None = None,
    slot_seed: int = 0,
    rng: np.random.Generator | None = None,
) -> tuple[ad.Tensor, dict[str, ad.Tensor]]:
    """Build the training loss for one batch of split triples.

    Returns the scalar loss node and the component nodes for logging. The
    component dict holds whichever of "ce", "chamfer", "sm" the variant uses.
    """
    config = config or LossConfig()
    variant = params.variant
    if variant in REGULARIZED and (scorer is None or not scorer.frozen):
        raise ValueError(f"variant {variant} requires a frozen compatibility scorer")

    if variant == "st":
        return _st_step_loss(params, triples, config, rng)

    x_pad, x_mask = pad_stack([t.x.features for t in triples])
    y_list = [t.y.features for t in triples]
    y_pad, y_mask = pad_stack(y_list)
    labels_batch = [np.asarray(t.z, dtype=np.int64) for t in triples]
    width = y_mask.shape[1]
    z0, z_mask = slots_graph(params, labels_batch, width, slot_seed)
    yhat = cst_graph(params, x_pad, x_mask, z0, z_mask)

    parts: dict[str, ad.Tensor] = {}
    B = len(triples)
    if variant in CHAMFER_VARIANTS:
        parts["chamfer"] = ad.chamfer_cost(yhat, ad.const(y_pad), z_mask, y_mask, np.full(B, 1.0 / B))
        loss = parts["chamfer"]
    else:
        # the valid slots in row-major order are the universe rows in order
        flat_idx = np.flatnonzero(z_mask)
        sizes = np.count_nonzero(z_mask, axis=1)
        yhat_flat = ad.gather_rows(ad.reshape(yhat, (B * width, params.config.dim)), flat_idx)
        parts["ce"] = ce_graph(
            yhat_flat, np.concatenate(y_list, axis=0), np.arange(flat_idx.size),
            np.repeat(1.0 / (B * sizes), sizes), config.temperature,
        )
        loss = parts["ce"]

    if variant in REGULARIZED:
        parts["sm"] = sm_graph(scorer, x_pad, x_mask, yhat, z_mask, y_pad, y_mask)
        loss = ad.add(loss, ad.scale(parts["sm"], config.alpha))
    return loss, parts


def _st_step_loss(params: CSTParams, triples: list, config: LossConfig, rng: np.random.Generator | None):
    """One sampled teacher-forced sequential step per outfit."""
    rng = rng or np.random.default_rng(0)
    check_categories(np.concatenate([t.z for t in triples]), params.config.categories)
    inputs, tokens, steps = [], [], []
    for t in triples:
        m = int(rng.integers(len(t.z)))
        prefix = t.y.features[:m]
        inputs.append(np.concatenate([t.x.features, prefix], axis=0))
        tokens.append(int(t.z[m]))
        steps.append(m)
    x_pad, x_mask = pad_stack(inputs)
    B, dim = len(triples), params.config.dim
    token_rows = ad.reshape(ad.gather_rows(ad.param(params.store, "cond_table"), np.array(tokens, dtype=np.int64)), (B, 1, dim))
    feats = ad.concat([token_rows, ad.const(x_pad)], axis=1)
    mask = np.concatenate([np.ones((B, 1)), x_mask], axis=1)
    yhat = st_encode_graph(params, feats, mask)
    universe = np.concatenate([t.y.features for t in triples], axis=0)
    sizes = [t.y.features.shape[0] for t in triples]
    offsets = np.cumsum([0] + sizes[:-1])
    labels = np.array([offsets[b] + steps[b] for b in range(B)], dtype=np.int64)
    parts = {"ce": ce_graph(yhat, universe, labels, np.full(B, 1.0 / B), config.temperature)}
    return parts["ce"], parts
