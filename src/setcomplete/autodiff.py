"""Reverse-mode automatic differentiation over dense float64 arrays.

The graph is built dynamically: calling an op evaluates it immediately and
records a node. A :class:`Graph` snapshots the nodes reachable from a root in
topological order and can re-run the forward pass against the current
contents of the parameter stores, which makes central finite differences
cheap (no retracing). Gradients are exact reverse-mode; the SGD step and a
finite-difference checker live here too.

Inside :func:`inference` ops evaluate through the same forward functions but
record nothing: a node keeps its values and drops its parents, so the result
is bitwise the same while the tape bookkeeping is skipped. Such a node cannot
be differentiated or re-run.

Only the ops the models need are implemented. The attention block of the
models is one op, :func:`mab`: its forward runs the whole block (projections,
masked attention, residuals, layer norms, feed-forward) in plain numpy and its
backward is written by hand, so a block is one node rather than a chain of
small ones. At the set sizes served (a few rows a set) its cost is numpy's
per-call overhead more than arithmetic, so the forward makes as few numpy
calls as it can: weights come as one checked tuple, a mask with every key
valid skips its pass, and residual and bias adds run in place. On a padded
batch, about half of whose rows are padding in training, the block runs its
row-wise work on the valid query and key rows alone, gathered once; only the
attention kernel reads the padded layout, with keys laid out (B, H, dh, N) so
its logits product reads contiguous operands. A batch without padding rows
skips the gather and keeps the dense work. Everything is float64 and every op
output is checked for NaN/Inf.
"""

from __future__ import annotations

import functools
import hashlib
import math
import threading
from contextlib import contextmanager
from typing import Callable, Iterable

import numpy as np

from . import kernels

LN_EPS = 1e-5
NORM_FLOOR = 1e-12


class GradientError(RuntimeError):
    """Raised when a forward or backward pass produces a non-finite value."""


class ParamStore:
    """Named learnable parameters plus their SGD momentum buffers.

    The parameters of a frozen store behave as constants inside graphs.
    """

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.frozen = False
        self.velocities: dict[str, np.ndarray] = {}

    def add(self, name: str, values: np.ndarray) -> np.ndarray:
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        arr = np.array(values, dtype=np.float64)
        self.params[name] = arr
        return arr

    def freeze(self) -> "ParamStore":
        self.frozen = True
        self.velocities = {}
        return self

    def checksum(self) -> str:
        digest = hashlib.sha256()
        for name in sorted(self.params):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(self.params[name]).tobytes())
        return digest.hexdigest()


class Tensor:
    """A graph node: op kind, parent nodes and the last computed values."""

    __slots__ = ("op", "parents", "values", "aux", "payload", "store", "name", "requires_grad")

    def __init__(self, op: str, parents: tuple["Tensor", ...] = (), payload=None):
        self.op = op
        # None marks a node evaluated under inference(): it has no tape
        self.parents: tuple["Tensor", ...] | None = parents
        self.values: np.ndarray | None = None
        self.aux = None
        self.payload = payload
        self.store: ParamStore | None = None
        self.name: str | None = None
        self.requires_grad = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.values.shape})"


def const(values) -> Tensor:
    t = Tensor("const")
    t.values = np.asarray(values, dtype=np.float64)
    return t


def param(store: ParamStore, name: str) -> Tensor:
    if name not in store.params:
        raise KeyError(f"unknown parameter {name!r}")
    t = Tensor("param")
    t.store = store
    t.name = name
    t.values = store.params[name]
    t.requires_grad = not store.frozen
    return t


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else const(x)


_FORWARD: dict[str, Callable] = {}
_BACKWARD: dict[str, Callable] = {}


class _Mode(threading.local):
    inference = False


_MODE = _Mode()


@contextmanager
def inference():
    """Evaluate ops without recording a tape, for forward-only callers.

    Ops inside the block run the same forward functions, so values are
    bitwise those of a recorded graph, and a non-finite output still raises
    :class:`GradientError` naming the op. Nodes made here keep no parents:
    building a :class:`Graph` over one raises. The mode is per thread and is
    restored on exit, also when the block raises.
    """
    previous = _MODE.inference
    _MODE.inference = True
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            yield
    finally:
        _MODE.inference = previous


def _finite(values: np.ndarray) -> bool:
    # A finite sum proves every value finite; only a sum that met a NaN or
    # Inf, or overflowed, needs the elementwise test. Call under np.errstate.
    return math.isfinite(np.add.reduce(values, axis=None)) or bool(np.isfinite(values).all())


def _check_finite(op: str, values: np.ndarray) -> None:
    if not _finite(values):
        raise GradientError(f"non-finite values in forward of op {op!r}")


def _op(op: str, parents: Iterable[Tensor], payload=None) -> Tensor:
    t = Tensor(op, tuple(parents), payload)
    if _MODE.inference:
        values, _ = _FORWARD[op](t)
        _check_finite(op, values)
        t.values = values
        t.parents = None
        return t
    t.requires_grad = any(p.requires_grad for p in t.parents)
    _refresh(t)
    return t


def _refresh(t: Tensor) -> None:
    if t.op == "const":
        return
    if t.op == "param":
        t.values = t.store.params[t.name]
        return
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values, aux = _FORWARD[t.op](t)
        _check_finite(t.op, values)
    t.values = values
    t.aux = aux


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise arithmetic --------------------------------------------------

_FORWARD["add"] = lambda t: (t.parents[0].values + t.parents[1].values, None)
_BACKWARD["add"] = lambda t, g: (
    _unbroadcast(g, t.parents[0].shape),
    _unbroadcast(g, t.parents[1].shape),
)

_FORWARD["sub"] = lambda t: (t.parents[0].values - t.parents[1].values, None)
_BACKWARD["sub"] = lambda t, g: (
    _unbroadcast(g, t.parents[0].shape),
    _unbroadcast(-g, t.parents[1].shape),
)

_FORWARD["mul"] = lambda t: (t.parents[0].values * t.parents[1].values, None)
_BACKWARD["mul"] = lambda t, g: (
    _unbroadcast(g * t.parents[1].values, t.parents[0].shape),
    _unbroadcast(g * t.parents[0].values, t.parents[1].shape),
)

_FORWARD["scale"] = lambda t: (t.parents[0].values * t.payload, None)
_BACKWARD["scale"] = lambda t, g: (g * t.payload,)

_FORWARD["relu"] = lambda t: (np.maximum(t.parents[0].values, 0.0), None)
_BACKWARD["relu"] = lambda t, g: (g * (t.parents[0].values > 0.0),)


def add(a, b) -> Tensor:
    return _op("add", (as_tensor(a), as_tensor(b)))


def sub(a, b) -> Tensor:
    return _op("sub", (as_tensor(a), as_tensor(b)))


def mul(a, b) -> Tensor:
    return _op("mul", (as_tensor(a), as_tensor(b)))


def scale(a, c: float) -> Tensor:
    return _op("scale", (as_tensor(a),), float(c))


def relu(a) -> Tensor:
    return _op("relu", (as_tensor(a),))


# -- matmul / shape ops -------------------------------------------------------


def _matmul_fwd(t):
    a, b = t.parents
    return np.matmul(a.values, b.values), None


def _matmul_bwd(t, g):
    a, b = t.parents
    ga = np.matmul(g, b.values.swapaxes(-1, -2))
    gb = np.matmul(a.values.swapaxes(-1, -2), g)
    return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)


_FORWARD["matmul"] = _matmul_fwd
_BACKWARD["matmul"] = _matmul_bwd


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.values.ndim < 2 or b.values.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D")
    return _op("matmul", (a, b))


_FORWARD["reshape"] = lambda t: (t.parents[0].values.reshape(t.payload), None)
_BACKWARD["reshape"] = lambda t, g: (g.reshape(t.parents[0].shape),)


def reshape(a, shape) -> Tensor:
    return _op("reshape", (as_tensor(a),), tuple(shape))


def _concat_fwd(t):
    axis = t.payload
    return np.concatenate([p.values for p in t.parents], axis=axis), None


def _concat_bwd(t, g):
    axis = t.payload
    sizes = [p.shape[axis] for p in t.parents]
    cuts = np.cumsum(sizes)[:-1]
    return tuple(np.ascontiguousarray(piece) for piece in np.split(g, cuts, axis=axis))


_FORWARD["concat"] = _concat_fwd
_BACKWARD["concat"] = _concat_bwd


def concat(tensors, axis: int) -> Tensor:
    return _op("concat", tuple(as_tensor(x) for x in tensors), int(axis))


def _gather_fwd(t):
    return t.parents[0].values[t.payload], None


def _gather_bwd(t, g):
    out = np.zeros_like(t.parents[0].values)
    np.add.at(out, t.payload, g)
    return (out,)


_FORWARD["gather_rows"] = _gather_fwd
_BACKWARD["gather_rows"] = _gather_bwd


def gather_rows(a, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64)
    return _op("gather_rows", (as_tensor(a),), idx)


# -- reductions ---------------------------------------------------------------

_FORWARD["sum"] = lambda t: (np.asarray(t.parents[0].values.sum()), None)
_BACKWARD["sum"] = lambda t, g: (np.broadcast_to(g, t.parents[0].shape).copy(),)

_FORWARD["mean"] = lambda t: (np.asarray(t.parents[0].values.mean()), None)
_BACKWARD["mean"] = lambda t, g: (
    np.broadcast_to(g / t.parents[0].values.size, t.parents[0].shape).copy(),
)


def tsum(a) -> Tensor:
    return _op("sum", (as_tensor(a),))


def tmean(a) -> Tensor:
    return _op("mean", (as_tensor(a),))


def _masked_mean_fwd(t):
    x = t.parents[0].values
    mask = t.payload
    count = mask.sum(axis=1)
    out = (x * mask[:, :, None]).sum(axis=1) / count[:, None]
    return out, count


def _masked_mean_bwd(t, g):
    mask = t.payload
    count = t.aux
    return (g[:, None, :] * (mask / count[:, None])[:, :, None],)


_FORWARD["masked_mean"] = _masked_mean_fwd
_BACKWARD["masked_mean"] = _masked_mean_bwd


def masked_mean(a, mask: np.ndarray) -> Tensor:
    """Mean over axis 1 of (B, N, D), counting only rows with mask 1."""
    mask = np.asarray(mask, dtype=np.float64)
    if mask.sum(axis=1).min() <= 0:
        raise ValueError("masked_mean needs at least one valid row per batch entry")
    return _op("masked_mean", (as_tensor(a),), mask)


# -- losses --------------------------------------------------------------------


def _softplus_fwd(t):
    return np.logaddexp(0.0, t.parents[0].values), None


def _softplus_bwd(t, g):
    x = t.parents[0].values
    sig = np.empty_like(x)
    pos = x >= 0
    sig[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    sig[~pos] = ex / (1.0 + ex)
    return (g * sig,)


_FORWARD["softplus"] = _softplus_fwd
_BACKWARD["softplus"] = _softplus_bwd


def softplus(a) -> Tensor:
    return _op("softplus", (as_tensor(a),))


def _ce_fwd(t):
    logits = t.parents[0].values
    labels, weights = t.payload
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    denom = e.sum(axis=1)
    lse = m[:, 0] + np.log(denom)
    picked = logits[np.arange(logits.shape[0]), labels]
    loss = np.asarray((weights * (lse - picked)).sum())
    probs = e / denom[:, None]
    return loss, probs


def _ce_bwd(t, g):
    labels, weights = t.payload
    probs = t.aux
    d = probs.copy()
    d[np.arange(d.shape[0]), labels] -= 1.0
    d *= (weights * g)[:, None]
    return (d,)


_FORWARD["cross_entropy"] = _ce_fwd
_BACKWARD["cross_entropy"] = _ce_bwd


def cross_entropy(logits, labels, weights) -> Tensor:
    """Weighted sum of -log softmax(logits)[label] rows; returns a scalar."""
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    return _op("cross_entropy", (as_tensor(logits),), (labels, weights))


# -- row normalization ----------------------------------------------------------


def _l2norm_fwd(t):
    x = t.parents[0].values
    n = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    n_eff = np.maximum(n, NORM_FLOOR)
    y = x / n_eff
    return y, (y, n_eff, n > NORM_FLOOR)


def _l2norm_bwd(t, g):
    y, n_eff, live = t.aux
    gy = (g * y).sum(axis=-1, keepdims=True)
    dx = (g - np.where(live, y * gy, 0.0)) / n_eff
    return (dx,)


_FORWARD["l2norm"] = _l2norm_fwd
_BACKWARD["l2norm"] = _l2norm_bwd


def l2_normalize(a) -> Tensor:
    """Scale the last axis to unit L2 norm (rows below the floor map to ~0)."""
    return _op("l2norm", (as_tensor(a),))


# -- attention block (fused, kernel-backed) ------------------------------------------
#
# One Set Transformer MAB per node: multi-head attention of q over kv, a
# residual and layer norm, then a ReLU feed-forward with a second residual
# and layer norm. Parents are q, kv and the weights in MAB_WEIGHTS order.
# Rows are flattened to 2-D for every product; only attention works per head.
# A 2-D product is written a.dot(b): it calls the same BLAS routine as a @ b,
# so the bits are the same, at a third of the call cost on a block's small
# arrays (0.6 against 2.0 us for (3, 32) by (32, 32)).
#
# On a padded batch the row-wise work (projections, residuals, layer norms,
# feed-forward) runs on the valid rows only, gathered once into a packed
# (rows, D) array. Only the attention kernel reads the padded layout: queries
# and values as (B, H, n, dh) and keys as (B, H, dh, N), so that the logits
# product reads contiguous operands. A packed array is rounded up to a multiple
# of 4 rows with copies of a padding row, so OpenBLAS computes every valid row
# in its main kernel, as it does in a dense batch of a multiple of 4 rows (the
# row grouping of RetrievalIndex._rescore). Those extra rows take a zero
# gradient, so they add exactly zero to every weight gradient, and they are
# never written to an output.

# The block's weights by name, with their number of axes: (D, D) or (D,).
MAB_WEIGHTS = (
    ("wq", 2), ("wk", 2), ("wv", 2), ("wo", 2),
    ("ff_w1", 2), ("ff_b1", 1), ("ff_w2", 2), ("ff_b2", 1),
    ("ln1_g", 1), ("ln1_b", 1), ("ln2_g", 1), ("ln2_b", 1),
)


def _packing(mask: np.ndarray):
    """(rows, batch, position, count) of a (B, n) mask's valid rows, or None
    when every row is valid.

    ``rows`` are flat positions in the (B * n, D) layout, ``batch`` and
    ``position`` the same rows in the (B, n) layout; ``count`` is the number of
    valid rows, which come first. The rest repeat the first padding row.
    The blocks of one forward share a few masks, so the last few packings are
    kept by content: building a CR training step's loss packs 30 masks of 2
    contents, and at B=32 a kept one took 0.8 us against 5.6 us to pack (one
    thread, numpy 2.4.6).
    """
    return _packing_of(mask.shape, mask.tobytes())


@functools.lru_cache(maxsize=16)
def _packing_of(shape, data):
    mask = np.frombuffer(data).reshape(shape)
    rows = np.flatnonzero(mask)
    count = len(rows)
    if count == mask.size:
        return None
    extra = -count % 4
    if extra:
        rows = np.concatenate([rows, np.full(extra, np.argmin(mask))])
    batch, position = np.divmod(rows, shape[1])
    for a in (rows, batch, position):
        a.flags.writeable = False
    return rows, batch, position, count


def _gather(x, pack):
    """(B, n, D) rows as one (rows, D) array: the packed rows when `pack` is given."""
    x2 = x.reshape(-1, x.shape[-1])
    return x2 if pack is None else x2[pack[0]]


def _heads(x2, pack, B, n, heads, keys=False):
    """(rows, D) projections as (B, H, n, dh), or as (B, H, dh, n) for keys;
    with `pack`, the rows it does not fill are zero."""
    dh = x2.shape[1] // heads
    axes = (0, 2, 3, 1) if keys else (0, 2, 1, 3)  # from (B, n, H, dh)
    if pack is None:
        return np.ascontiguousarray(x2.reshape(B, n, heads, dh).transpose(axes))
    out = np.zeros((B, heads, dh, n) if keys else (B, heads, n, dh))
    out.transpose((0, 3, 1, 2) if keys else axes)[pack[1], pack[2]] = x2.reshape(-1, heads, dh)
    return out


def _merge(x, pack):
    """(B, H, n, dh) per-head rows as one (rows, D) array: the packed rows
    when `pack` is given, else every row."""
    rows = x.transpose(0, 2, 1, 3)
    rows = rows if pack is None else rows[pack[1], pack[2]]
    return rows.reshape(-1, x.shape[1] * x.shape[3])


def _unpack(x2, pack, B, n):
    """Packed (rows, D) values as (B, n, D) with exact zeros in the padding rows."""
    if pack is None:
        return x2.reshape(B, n, x2.shape[1])
    rows, _, _, count = pack
    out = np.zeros((B * n, x2.shape[1]))
    out[rows[:count]] = x2[:count]
    return out.reshape(B, n, x2.shape[1])


def _mab_fwd(t):
    q, kv = t.parents[0].values, t.parents[1].values
    wq, wk, wv, wo, w1, b1, w2, b2, g1, c1, g2, c2 = (p.values for p in t.parents[2:])
    key_mask, heads, qpack, kpack = t.payload
    (B, M, D), N = q.shape, kv.shape[1]
    q2 = _gather(q, qpack)
    # a self-attention block gathers its rows once (equal masks share a cached packing)
    kv2 = q2 if kv is q and kpack is qpack else _gather(kv, kpack)
    qp = _heads(q2.dot(wq), qpack, B, M, heads)
    kt = _heads(kv2.dot(wk), kpack, B, N, heads, keys=True)
    vp = _heads(kv2.dot(wv), kpack, B, N, heads)
    ctx, attn = kernels.attn_forward(qp, kt, vp, key_mask, 1.0 / math.sqrt(D // heads))
    merged = _merge(ctx, qpack)
    r1 = merged.dot(wo)
    r1 += q2
    h, xhat1, rstd1 = kernels.layernorm_forward(r1, g1, c1, LN_EPS)
    act = h.dot(w1)
    act += b1
    np.maximum(act, 0.0, out=act)
    r2 = act.dot(w2)
    r2 += b2
    r2 += h
    y, xhat2, rstd2 = kernels.layernorm_forward(r2, g2, c2, LN_EPS)
    return _unpack(y, qpack, B, M), (q2, kv2, qp, kt, vp, attn, merged, h, act, xhat1, rstd1, xhat2, rstd2)


def _mab_bwd(t, g):
    qt, kvt = t.parents[0], t.parents[1]
    wq, wk, wv, wo, w1, _, w2, _, g1, _, g2, _ = (p.values for p in t.parents[2:])
    _, heads, qpack, kpack = t.payload
    q2, kv2, qp, kt, vp, attn, merged, h, act, xhat1, rstd1, xhat2, rstd2 = t.aux
    (B, M, D), N = qt.shape, kvt.shape[1]
    g2d = _gather(g, qpack)
    if qpack is not None:  # padding rows of the output are constants: the extra rows take no gradient
        g2d[qpack[3]:] = 0.0
    dr2, dg2, dc2 = kernels.layernorm_backward(g2d, xhat2, rstd2, g2)
    dpre = dr2.dot(w2.T)
    dpre *= act > 0.0
    dln1 = dpre.dot(w1.T)
    dln1 += dr2
    dr1, dg1, dc1 = kernels.layernorm_backward(dln1, xhat1, rstd1, g1)
    dctx = _heads(dr1.dot(wo.T), qpack, B, M, heads)
    dqp, dkp, dvp = kernels.attn_backward(dctx, qp, kt, vp, attn, 1.0 / math.sqrt(D // heads))
    dqp, dkp, dvp = _merge(dqp, qpack), _merge(dkp, kpack), _merge(dvp, kpack)
    dq = _unpack(dr1 + dqp.dot(wq.T), qpack, B, M) if qt.requires_grad else None
    dkv = _unpack(dkp.dot(wk.T) + dvp.dot(wv.T), kpack, B, N) if kvt.requires_grad else None
    if not any(p.requires_grad for p in t.parents[2:]):
        return (dq, dkv) + (None,) * len(MAB_WEIGHTS)  # frozen weights: skip their products
    return (
        dq, dkv, q2.T.dot(dqp), kv2.T.dot(dkp), kv2.T.dot(dvp), merged.T.dot(dr1),
        h.T.dot(dpre), np.add.reduce(dpre, axis=0), act.T.dot(dr2), np.add.reduce(dr2, axis=0),
        dg1, dc1, dg2, dc2,
    )


_FORWARD["mab"] = _mab_fwd
_BACKWARD["mab"] = _mab_bwd


def mab(q, kv, key_mask: np.ndarray, weights, heads: int, query_mask: np.ndarray | None = None) -> Tensor:
    """One attention block: (B, M, D) queries attend to (B, N, D) key/values.

    key_mask (B, N) marks valid kv rows with 1.0; masked rows get exactly zero
    attention weight. query_mask (B, M) marks valid query rows the same way;
    the output's padding rows are exact zeros and pass no gradient back. A
    self-attention block passes its one mask as both. `weights` is a tuple of
    the block's weight tensors in MAB_WEIGHTS order, which a caller can build
    once and pass to every call.
    """
    if len(weights) != len(MAB_WEIGHTS):
        raise ValueError(f"an attention block takes {len(MAB_WEIGHTS)} weights, got {len(weights)}")
    q, kv = as_tensor(q), as_tensor(kv)
    key_mask = np.asarray(key_mask, dtype=np.float64)
    query_mask = None if query_mask is None else np.asarray(query_mask, dtype=np.float64)
    if key_mask.shape != kv.shape[:2] or (query_mask is not None and query_mask.shape != q.shape[:2]):
        raise ValueError("an attention mask must have one entry per row of its set")
    kpack = _packing(key_mask)
    if kpack is None:
        key_mask = None  # every key valid: the kernel skips the mask pass
    elif key_mask.sum(axis=1).min() <= 0:
        raise ValueError("attention needs at least one valid key per batch entry")
    qpack = None if query_mask is None else _packing(query_mask)
    return _op("mab", (q, kv, *weights), (key_mask, int(heads), qpack, kpack))


# -- chamfer (fused, masked, batched) ------------------------------------------------


def _chamfer_fwd(t):
    a, b = (p.values for p in t.parents)
    mask_a, mask_b, weights = t.payload
    diff = a[:, :, None, :] - b[:, None, :, :]
    d2 = (diff * diff).sum(axis=-1)  # (B, M, N)
    pair_ok = (mask_a[:, :, None] > 0) & (mask_b[:, None, :] > 0)
    guarded = np.where(pair_ok, d2, np.inf)
    row_arg = guarded.argmin(axis=2)
    col_arg = guarded.argmin(axis=1)
    row_min = np.take_along_axis(guarded, row_arg[:, :, None], axis=2)[:, :, 0]
    col_min = np.take_along_axis(guarded, col_arg[:, None, :], axis=1)[:, 0, :]
    per_b = (np.where(mask_a > 0, row_min, 0.0)).sum(axis=1) + (
        np.where(mask_b > 0, col_min, 0.0)
    ).sum(axis=1)
    return np.asarray((weights * per_b).sum()), (row_arg, col_arg)


def _chamfer_bwd(t, g):
    a, b = (p.values for p in t.parents)
    mask_a, mask_b, weights = t.payload
    row_arg, col_arg = t.aux
    w = 2.0 * (float(g) * weights)
    rb, rm = np.nonzero(mask_a > 0)  # valid rows of a, each with its nearest b row
    rj = row_arg[rb, rm]
    d_row = w[rb, None] * (a[rb, rm] - b[rb, rj])
    cb, cn = np.nonzero(mask_b > 0)  # valid rows of b, each with its nearest a row
    ci = col_arg[cb, cn]
    d_col = w[cb, None] * (a[cb, ci] - b[cb, cn])
    # Each gradient row gets its row terms, then its column terms, each in
    # ascending (batch, row) order, so the sums round the same on every run.
    da = np.zeros_like(a)
    db = np.zeros_like(b)
    np.add.at(da, (rb, rm), d_row)
    np.subtract.at(db, (rb, rj), d_row)
    np.add.at(da, (cb, ci), d_col)
    np.subtract.at(db, (cb, cn), d_col)
    return da, db


_FORWARD["chamfer"] = _chamfer_fwd
_BACKWARD["chamfer"] = _chamfer_bwd


def chamfer_cost(a, b, mask_a: np.ndarray, mask_b: np.ndarray, weights: np.ndarray) -> Tensor:
    """Weighted batch sum of symmetric nearest-neighbor squared distances."""
    mask_a = np.asarray(mask_a, dtype=np.float64)
    mask_b = np.asarray(mask_b, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if mask_a.sum(axis=1).min() <= 0 or mask_b.sum(axis=1).min() <= 0:
        raise ValueError("chamfer needs nonempty sets on both sides")
    return _op("chamfer", (as_tensor(a), as_tensor(b)), (mask_a, mask_b, weights))


# -- graph evaluation -----------------------------------------------------------


class Graph:
    """Topologically ordered snapshot of the nodes reachable from a root."""

    def __init__(self, root: Tensor):
        self.root = root
        self.nodes = self._topo(root)

    @staticmethod
    def _topo(root: Tensor) -> list[Tensor]:
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node.parents is None:
                raise GradientError(
                    f"op {node.op!r} was evaluated under inference() and has no tape; "
                    "wrap its values in const() to use them in a recorded graph"
                )
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
        return order

    def forward(self) -> np.ndarray:
        for node in self.nodes:
            _refresh(node)
        return self.root.values


def backward(root: Tensor, graph: Graph | None = None) -> dict[int, np.ndarray]:
    """Reverse-mode pass from a scalar root; returns grads keyed by node id."""
    if root.values.shape != ():
        raise ValueError("backward requires a scalar root node")
    graph = graph or Graph(root)
    grads: dict[int, np.ndarray] = {id(root): np.ones(())}
    leaf_grads: dict[int, np.ndarray] = {}
    for node in reversed(graph.nodes):
        g = grads.pop(id(node), None)
        if g is None or not node.requires_grad:
            continue
        if node.op == "param":
            leaf_grads[id(node)] = leaf_grads.get(id(node), 0.0) + g
            continue
        if node.op == "const":
            continue
        parent_grads = _BACKWARD[node.op](node, g)
        for p, pg in zip(node.parents, parent_grads):
            if pg is None or not p.requires_grad:
                continue
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            else:
                grads[id(p)] = pg
    return leaf_grads


def eval_and_grad(graph: Graph, params: ParamStore):
    """Loss value plus dLoss/dParam for every parameter in `params`.

    Parameters not reachable from the loss get zero gradients.
    """
    loss = graph.root.values
    if loss.shape != ():
        raise ValueError("loss node must be scalar")
    by_id = backward(graph.root, graph)
    grads = {name: np.zeros_like(arr) for name, arr in params.params.items()}
    for node in graph.nodes:
        if node.op == "param" and node.store is params and id(node) in by_id:
            grads[node.name] = grads[node.name] + by_id[id(node)]
    with np.errstate(over="ignore", invalid="ignore"):
        for name, g in grads.items():
            if not _finite(g):
                raise GradientError(f"non-finite gradient for parameter {name!r}")
    return float(loss), grads


def sgd_step(params: ParamStore, grads: dict[str, np.ndarray], learning_rate: float, momentum: float = 0.0) -> ParamStore:
    """p <- p - lr * v with v <- momentum * v + grad, updated in place."""
    if learning_rate <= 0:
        raise ValueError("learning_rate must be positive")
    if not 0.0 <= momentum < 1.0:
        raise ValueError("momentum must be in [0, 1)")
    if params.frozen:
        raise ValueError("cannot update a frozen ParamStore")
    for name, p in params.params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape mismatch for {name!r}")
        v = params.velocities.get(name)
        if v is None:
            v = np.zeros_like(p)
            params.velocities[name] = v
        v *= momentum
        v += g
        p -= learning_rate * v
    return params


def finite_diff_check(graph: Graph, params: ParamStore, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients."""
    if step <= 0:
        raise ValueError("step must be positive")
    graph.forward()
    _, grads = eval_and_grad(graph, params)
    max_err = 0.0
    any_change = False
    for name, arr in params.params.items():
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = float(graph.forward())
            flat[i] = keep - step
            down = float(graph.forward())
            flat[i] = keep
            if up != down:
                any_change = True
            numeric = (up - down) / (2.0 * step)
            err = abs(gflat[i] - numeric) / max(1.0, abs(gflat[i]))
            if err > max_err:
                max_err = err
    graph.forward()
    if not any_change and any(np.abs(g).max() > 0 for g in grads.values() if g.size):
        raise ValueError("finite-difference step too small: loss never changed")
    return max_err
