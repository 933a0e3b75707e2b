"""Exchangeable set-compatibility scorer.

Scores how well two sets go together: each set is encoded by a shared SAB
stack, the encodings interact through a cross-attention block in both
directions, each direction is pooled and scored by a small head, and the two
directional scores are added. The addition makes g(X, Y) = g(Y, X) hold
bitwise for any parameter values. The scorer is pretrained on true
outfit splits versus per-item category-matched replacements with a logistic
loss and then frozen; downstream training and evaluation only read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .data import integers_below, split_outfit
from .layers import AttentionParams, init_attention_params, mab_graph
from .sets import FeatureSet, pad_stack


@dataclass
class MatchConfig:
    dim: int = 32
    heads: int = 4
    encoder_layers: int = 2
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 0.05
    momentum: float = 0.9
    seed: int = 0

    def validate(self) -> "MatchConfig":
        if self.dim % self.heads != 0:
            raise ValueError("dim must be divisible by heads")
        if min(self.dim, self.heads, self.encoder_layers, self.epochs, self.batch_size) < 1:
            raise ValueError("all scorer sizes must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        return self


@dataclass
class MatchParams:
    config: MatchConfig
    store: ad.ParamStore
    encoder: list[AttentionParams] = field(default_factory=list)
    cross: AttentionParams | None = None

    @property
    def frozen(self) -> bool:
        return self.store.frozen

    def freeze(self) -> "MatchParams":
        self.store.freeze()
        return self

    def checksum(self) -> str:
        return self.store.checksum()


def init_match_params(config: MatchConfig | None = None, seed: int | None = None) -> MatchParams:
    config = (config or MatchConfig()).validate()
    rng = np.random.default_rng(config.seed if seed is None else seed)
    store = ad.ParamStore()
    params = MatchParams(config=config, store=store)
    for i in range(config.encoder_layers):
        params.encoder.append(init_attention_params(store, f"enc{i}", config.dim, config.heads, rng))
    params.cross = init_attention_params(store, "cross", config.dim, config.heads, rng)
    sd = 1.0 / np.sqrt(config.dim)
    store.add("head_w1", rng.normal(0.0, sd, size=(config.dim, config.dim)))
    store.add("head_b1", np.zeros(config.dim))
    # zero readout: an untrained scorer scores every pair 0.0, so it has no
    # preference among candidates until trained
    store.add("head_w2", np.zeros((config.dim, 1)))
    store.add("head_b2", np.zeros(1))
    return params


def encode_graph(params: MatchParams, feats, mask: np.ndarray) -> ad.Tensor:
    x = ad.as_tensor(feats)
    for layer in params.encoder:
        x = mab_graph(x, x, mask, layer, mask)
    return x


def direction_graph(params: MatchParams, a: ad.Tensor, mask_a, b: ad.Tensor, mask_b) -> ad.Tensor:
    crossed = mab_graph(a, b, mask_b, params.cross, mask_a)
    pooled = ad.masked_mean(crossed, mask_a)
    h = ad.relu(ad.add(ad.matmul(pooled, ad.param(params.store, "head_w1")), ad.param(params.store, "head_b1")))
    out = ad.add(ad.matmul(h, ad.param(params.store, "head_w2")), ad.param(params.store, "head_b2"))
    return ad.reshape(out, (out.values.shape[0],))


def symmetric_score(params: MatchParams, ea: ad.Tensor, mask_a, eb: ad.Tensor, mask_b) -> ad.Tensor:
    """(B,) scores of two encoded sets: the sum of both directions, so swapping
    the sets gives bitwise the same score."""
    return ad.add(
        direction_graph(params, ea, mask_a, eb, mask_b),
        direction_graph(params, eb, mask_b, ea, mask_a),
    )


def match_score(x: FeatureSet, y: FeatureSet, params: MatchParams) -> float:
    """Symmetric compatibility score of two sets."""
    if x.dim != params.config.dim or y.dim != params.config.dim:
        raise ValueError("feature dimension does not match the scorer")
    return float(match_scores(params, [x.features], [[y.features]])[0][0])


def match_scores(params: MatchParams, xs: list[np.ndarray], ys_lists, x_of=None) -> list[np.ndarray]:
    """Scores of each list of raw feature matrices in `ys_lists` against the
    query sets `xs`: entry i of a list against xs[x_of[i]], or against xs[i]
    when x_of is None.

    Each X is encoded once, however many sets it is scored against. Each list
    is encoded as a batch of its own, so two equal lists score bitwise equal.
    """
    xa, mask_a = pad_stack(xs)
    out = []
    with ad.inference():
        ex = encode_graph(params, xa, mask_a)
        if x_of is not None:
            ex, mask_a = ad.gather_rows(ex, x_of), mask_a[x_of]
        for ys in ys_lists:
            xb, mask_b = pad_stack(ys)
            out.append(symmetric_score(params, ex, mask_a, encode_graph(params, xb, mask_b), mask_b).values)
    return out


def category_matched_negative(y_ids: np.ndarray, categories: np.ndarray, by_category: dict[int, np.ndarray], rng: np.random.Generator) -> np.ndarray:
    """Replace each item with a random item of the same category.

    Draws the picks of `rng.integers(len(pool))`, redraws included, through
    `integers_below`: the same values and the same generator state.
    """
    below = integers_below(rng)
    out = np.empty_like(y_ids)
    for i, (item, cat) in enumerate(zip(y_ids, categories)):
        pool = by_category[int(cat)]
        pick = int(pool[below(len(pool))])
        if len(pool) > 1:
            while pick == int(item):
                pick = int(pool[below(len(pool))])
        out[i] = pick
    return out


def pretrain_matching(catalog, outfits, config: MatchConfig | None = None, log=None) -> tuple[MatchParams, list[dict]]:
    """Train the scorer with binary logistic loss, then freeze it.

    Positives are true outfit splits (X, Y); each negative keeps X and
    replaces every element of Y with a random same-category item. Returns the
    frozen params and a per-epoch log of the training loss.
    """
    config = (config or MatchConfig()).validate()
    if len(catalog.by_category) < 2:
        raise ValueError("need at least 2 categories to form negatives")
    if len(outfits) < config.batch_size:
        raise ValueError("dataset too small to form a single batch")
    params = init_match_params(config)
    history: list[dict] = []
    n = len(outfits)
    for epoch in range(config.epochs):
        rng = np.random.default_rng([config.seed, 7, epoch])
        order = rng.permutation(n)
        total, batches = 0.0, 0
        for start in range(0, n - config.batch_size + 1, config.batch_size):
            batch = [outfits[i] for i in order[start : start + config.batch_size]]
            xs, ys_pos, ys_neg = [], [], []
            for outfit in batch:
                t = split_outfit(outfit, rng, catalog)
                xs.append(t.x.features)
                ys_pos.append(t.y.features)
                ys_neg.append(catalog.features_of(category_matched_negative(t.y.element_ids, t.z, catalog.by_category, rng)))
            xa, mask_a = pad_stack(xs)
            xb, mask_b = pad_stack(ys_pos + ys_neg)
            ex = encode_graph(params, xa, mask_a)  # once, for the positive and the negative half
            ex2, mask_a2 = ad.concat([ex, ex], axis=0), np.concatenate([mask_a, mask_a])
            scores = symmetric_score(params, ex2, mask_a2, encode_graph(params, xb, mask_b), mask_b)
            sign = np.concatenate([-np.ones(len(xs)), np.ones(len(xs))])
            loss_node = ad.tmean(ad.softplus(ad.mul(scores, ad.const(sign))))
            graph = ad.Graph(loss_node)
            loss, grads = ad.eval_and_grad(graph, params.store)
            ad.sgd_step(params.store, grads, config.learning_rate, config.momentum)
            total += loss
            batches += 1
        row = {"epoch": epoch, "loss": total / max(batches, 1)}
        history.append(row)
        if log:
            log(row)
    params.freeze()
    return params, history
