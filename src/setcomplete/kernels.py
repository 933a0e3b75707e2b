"""Low-level numeric kernels in numpy.

The hot inner loops of the package live here: masked multi-head attention
(forward and backward), layer normalization (forward and backward), top-k
selection with deterministic tie-breaking, and nearest-centroid assignment.

All kernels are deterministic: no threading, no reduction reordering.
"""

from __future__ import annotations

import numpy as np


def _c(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64)


# ---------------------------------------------------------------------------
# masked scaled-dot-product multi-head attention
#
# q: (B, H, M, dh), k/v: (B, H, N, dh), key_mask: (B, N) with 1.0 = valid.
# Rows with mask 0 receive exactly zero attention weight, so appending a
# masked key/value row cannot change the output. Every (b, m) query row must
# see at least one valid key; callers enforce that.
# ---------------------------------------------------------------------------


def attn_forward(q, k, v, key_mask, scale):
    """Masked multi-head attention; returns (context, attention weights)."""
    q, k, v, key_mask = _c(q), _c(k), _c(v), _c(key_mask)
    logits = np.matmul(q, k.swapaxes(-1, -2)) * float(scale)  # (B, H, M, N)
    valid = key_mask[:, None, None, :] > 0.0
    bounded = np.where(valid, logits, -np.inf)
    rowmax = bounded.max(axis=-1, keepdims=True)
    weights = np.exp(np.where(valid, logits - rowmax, -np.inf))
    weights /= weights.sum(axis=-1, keepdims=True)
    ctx = np.matmul(weights, v)
    return ctx, weights


def attn_backward(g_ctx, q, k, v, weights, key_mask, scale):
    g_ctx, q, k, v, weights = _c(g_ctx), _c(q), _c(k), _c(v), _c(weights)
    dv = np.matmul(weights.swapaxes(-1, -2), g_ctx)
    dw = np.matmul(g_ctx, v.swapaxes(-1, -2))
    dlogits = weights * (dw - (dw * weights).sum(axis=-1, keepdims=True))
    dlogits *= float(scale)
    dq = np.matmul(dlogits, k)
    dk = np.matmul(dlogits.swapaxes(-1, -2), q)
    return dq, dk, dv


# ---------------------------------------------------------------------------
# layer normalization over the last axis, 2-D kernels (rows, dim)
# ---------------------------------------------------------------------------


def layernorm_forward(x, gamma, beta, eps):
    """Normalize rows of a 2-D array; returns (y, xhat, rstd)."""
    x, gamma, beta = _c(x), _c(gamma), _c(beta)
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    rstd = 1.0 / np.sqrt(var + float(eps))
    xhat = xc * rstd
    return xhat * gamma + beta, xhat, rstd[:, 0]


def layernorm_backward(g, xhat, rstd, gamma):
    g, xhat, rstd, gamma = _c(g), _c(xhat), _c(rstd), _c(gamma)
    gx = g * gamma
    m1 = gx.mean(axis=1, keepdims=True)
    m2 = (gx * xhat).mean(axis=1, keepdims=True)
    dx = (gx - m1 - xhat * m2) * rstd[:, None]
    dgamma = (g * xhat).sum(axis=0)
    dbeta = g.sum(axis=0)
    return dx, dgamma, dbeta


# ---------------------------------------------------------------------------
# top-k selection by (score desc, id asc); returns positions into `scores`
# ---------------------------------------------------------------------------


def topk_select(scores: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k best entries, scores descending, ids break ties.

    The result is ``np.lexsort((ids, -scores))[:k]``, NaN scores last. A
    partition finds the k-th best score; every position scoring at least
    that much (all ties at the cut included) is then lexsorted, so only that
    slice is sorted, not all n scores.
    """
    scores = _c(scores)
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    k = int(k)
    if 0 < k < scores.shape[0]:
        cut = scores[np.argpartition(-scores, k - 1)[:k]].min()
        pool = np.flatnonzero(scores >= cut)
        # fewer than k pass only when NaN scores fill the partition (cut is NaN)
        if len(pool) >= k:
            return pool[np.lexsort((ids[pool], -scores[pool]))[:k]]
    return np.lexsort((ids, -scores))[:k]


# ---------------------------------------------------------------------------
# nearest-centroid assignment (squared euclidean, expanded form)
# ---------------------------------------------------------------------------


def assign_nearest(feats: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the closest centroid per row (ties to the lowest index)."""
    feats, centroids = _c(feats), _c(centroids)
    fn = (feats * feats).sum(axis=1)
    cn = (centroids * centroids).sum(axis=1)
    d2 = fn[:, None] + cn[None, :] - 2.0 * feats @ centroids.T
    return d2.argmin(axis=1).astype(np.int64)
