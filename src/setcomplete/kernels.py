"""Low-level numeric kernels in numpy.

The hot inner loops of the package live here: masked multi-head attention
(forward and backward), layer normalization (forward and backward), top-k
selection with deterministic tie-breaking, the screen of reduced-precision
retrieval scores, and nearest-centroid assignment.

All kernels are deterministic: no threading, and the form of every
reduction follows only the shape of its input, so one shape always rounds
the same way. Row reductions over short axes take whichever form is faster
at that size (see ROW_REDUCE_MAX); layer-norm row means are matrix-vector
products.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def _c(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64)


# ---------------------------------------------------------------------------
# masked scaled-dot-product multi-head attention
#
# q: (B, H, M, dh), k: (B, H, dh, N), v: (B, H, N, dh), key_mask: (B, N) with
# 1.0 = valid. Keys come transposed, so the logits product q @ k reads two
# contiguous operands: at (32, 4, 7, 8) it took 7 us against 20 us for
# q @ k.swapaxes(-1, -2) over (B, H, N, dh) keys, with the same bits (one
# thread, numpy 2.4.6). Rows with mask 0 receive exactly zero attention
# weight, so appending a masked key/value row cannot change the output. Every
# (b, m) query row must see at least one valid key; callers enforce that.
# ---------------------------------------------------------------------------


# Below this many elements a numpy reduce over the short last axis is the
# faster form of a row max or sum; from it up, one elementwise call per column
# is. Measured (one thread, numpy 2.4.6): the max of (1, 4, 3, 4) takes 2.1 us
# reduced against 4.8 us by columns, of (8, 4, 4, 6) 12.3 against 11.2 us, of
# (32, 4, 8, 8) 90 against 24 us; the sums cross later, at a few thousand.
ROW_REDUCE_MAX = 640


def _rows(ufunc, x):
    """Reduce the short last axis of `x` by `ufunc`, keeping the axis.

    The form follows the array size only, so one shape always takes one
    form. A max is exact either way; a sum over 8 or more columns may round
    differently in the two forms.
    """
    if x.size < ROW_REDUCE_MAX:
        return ufunc.reduce(x, axis=-1, keepdims=True)
    out = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        ufunc(out, x[..., j], out=out)
    return out[..., None]


def attn_forward(q, k, v, key_mask, scale):
    """Masked multi-head attention; returns (context, attention weights).

    k is laid out (B, H, dh, N), one column per key. A key_mask of None marks
    every key valid and skips the mask pass, which would add only zeros.
    """
    q, k, v = _c(q), _c(k), _c(v)
    logits = np.matmul(q, k)  # (B, H, M, N)
    logits *= float(scale)
    if key_mask is not None:  # masked keys: weight exactly 0
        logits += np.where(_c(key_mask) > 0.0, 0.0, -np.inf)[:, None, None, :]
    logits -= _rows(np.maximum, logits)
    weights = np.exp(logits, out=logits)
    weights /= _rows(np.add, weights)
    return np.matmul(weights, v), weights


def attn_backward(g_ctx, q, k, v, weights, scale):
    """Gradients (dq, dk, dv) of attn_forward, all three shaped (B, H, n, dh);
    k is attn_forward's (B, H, dh, N) operand, and dq comes as a transposed view.

    No product takes a transposed view as its second operand: at
    (32, 4, 7, 8) numpy's stacked product over such a view took 20 us,
    against 7 us for a contiguous copy and 7 us for the product over it (one
    thread, numpy 2.4.6). Both key-side products read one copy of the logits
    gradient's transpose.
    """
    g_ctx, q, k, v, weights = _c(g_ctx), _c(q), _c(k), _c(v), _c(weights)
    dv = np.matmul(weights.swapaxes(-1, -2), g_ctx)
    dw = np.matmul(g_ctx, np.ascontiguousarray(v.swapaxes(-1, -2)))
    dw -= _rows(np.add, dw * weights)
    dw *= weights
    dw *= float(scale)
    dw_t = np.ascontiguousarray(dw.swapaxes(-1, -2))
    return np.matmul(k, dw_t).swapaxes(-1, -2), np.matmul(dw_t, q), dv


# ---------------------------------------------------------------------------
# layer normalization over the last axis, 2-D kernels (rows, dim)
#
# Row means are matrix-vector products with a vector of 1/dim: at 256 rows of
# 32 the product takes 3.6 us against 10.4 us for a numpy reduce. OpenBLAS
# sums the last rows % 4 of such a product in a tail kernel, so a row's mean
# may differ in the last bit with its position in the batch.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _mean_weights(d: int) -> np.ndarray:
    w = np.full(d, 1.0 / d)
    w.flags.writeable = False
    return w


def layernorm_forward(x, gamma, beta, eps):
    """Normalize rows of a 2-D array; returns (y, xhat, rstd)."""
    x, gamma, beta = _c(x), _c(gamma), _c(beta)
    mean_w = _mean_weights(x.shape[1])
    xc = x - x.dot(mean_w)[:, None]
    rstd = (xc * xc).dot(mean_w)
    rstd += float(eps)
    rstd = np.divide(1.0, np.sqrt(rstd, out=rstd), out=rstd)
    xhat = np.multiply(xc, rstd[:, None], out=xc)
    y = xhat * gamma
    y += beta
    return y, xhat, rstd


def layernorm_backward(g, xhat, rstd, gamma):
    g, xhat, rstd, gamma = _c(g), _c(xhat), _c(rstd), _c(gamma)
    mean_w = _mean_weights(g.shape[1])
    gx = g * gamma
    m1 = gx.dot(mean_w)
    m2 = (gx * xhat).dot(mean_w)
    gx -= m1[:, None]
    gx -= xhat * m2[:, None]
    gx *= rstd[:, None]
    return gx, np.add.reduce(g * xhat, axis=0), np.add.reduce(g, axis=0)


# ---------------------------------------------------------------------------
# top-k selection by (score desc, id asc); returns positions into `scores`
# ---------------------------------------------------------------------------


def topk_select(scores: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k best entries, scores descending, ids break ties:
    ``np.lexsort((ids, -scores))[:k]``, NaN scores last.

    One full sort: retrieval ranks only the rows its float32 screen keeps,
    usually k plus a few near-ties.
    """
    return np.lexsort((ids, -scores))[:k]


# From this many scores up, screen cuts a sample first. The measured crossover
# (random float32 scores, one thread) lies between 7,400 and 20,000 scores
# for k = 1 and 32: at 2,500, 14 us direct against 26 us sampled; at 50,000,
# 107 against 53 us.
SCREEN_SAMPLE_MIN = 8192


def screen(scores: np.ndarray, k: int, margin: float) -> np.ndarray:
    """Ascending positions of the float32 scores at least the k-th best minus `margin`.

    The cut is a Python float, which NumPy rounds to the nearest float32
    for the comparison. Rounding it up skips no score at or above it (no
    float32 lies in between); rounding it down also keeps the scores equal
    to the float32 just below it, one more tie level. From SCREEN_SAMPLE_MIN
    scores up, every int(sqrt(n / k))-th score is sampled. The sample's k-th
    best is at or below the k-th best of all (a subset's cannot be higher),
    so it is a first cut, and only the scores above it are partitioned. The
    scores must not be NaN. Needs 0 < k < len(scores).
    """
    pool, vals = None, scores
    step = int(math.sqrt(scores.shape[0] / k))
    if scores.shape[0] >= SCREEN_SAMPLE_MIN and step > 1:
        sample = scores[::step]
        cut = float(np.partition(sample, len(sample) - k)[len(sample) - k])
        pool = (scores >= cut - margin).nonzero()[0]
        vals = scores[pool]
    cut = float(vals.max() if k == 1 else np.partition(vals, len(vals) - k)[len(vals) - k])
    keep = (vals >= cut - margin).nonzero()[0]
    return keep if pool is None else pool[keep]


def screen_rows(scores: np.ndarray, k: int, margins: list[float]) -> tuple[list[int], np.ndarray]:
    """How many scores each row of an (R, L) float32 block keeps, and their
    ascending positions, row after row.

    Row r keeps what ``screen(scores[r], k, margins[r])`` keeps: every score
    if its margin is infinite. At k = 1 a block of several rows goes through
    in one pass: each row's cut is its maximum minus its margin, rounded to
    the nearest float32 as ``screen`` rounds it. Otherwise rows are screened
    one by one.
    """
    if k == 1 and len(scores) > 1:
        cuts = np.subtract(scores.max(axis=1), margins, dtype=np.float64).astype(np.float32)
        row, col = np.divmod(np.flatnonzero(scores >= cuts[:, None]), scores.shape[1])
        return np.bincount(row, minlength=len(scores)).tolist(), col
    cols = [screen(scores[r], k, margins[r]) for r in range(len(margins))]  # zip over an array's rows costs more
    return [len(c) for c in cols], np.concatenate(cols) if len(cols) > 1 else cols[0]


# ---------------------------------------------------------------------------
# nearest-centroid assignment (squared euclidean, expanded form)
# ---------------------------------------------------------------------------


# Rows per block of assign_nearest: each block holds two (block, clusters)
# temporaries, 2 MB each at 64 clusters, instead of three (N, clusters) ones.
ASSIGN_BLOCK = 4096


def assign_nearest(feats: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the closest centroid per row (ties to the lowest index).

    Each block of rows runs the float operations of the one-product formula
    ``fn + cn - 2.0 * feats @ centroids.T`` in the same order. BLAS can round
    a short final block's products differently in the last bit, which moves
    a label only between centroids tied to within that bit.
    """
    feats, centroids = _c(feats), _c(centroids)
    fn = (feats * feats).sum(axis=1)
    cn = (centroids * centroids).sum(axis=1)
    labels = np.empty(feats.shape[0], dtype=np.int64)
    for s in range(0, feats.shape[0], ASSIGN_BLOCK):
        e = s + ASSIGN_BLOCK
        g = feats[s:e] @ centroids.T
        g *= 2.0
        d2 = np.add.outer(fn[s:e], cn)
        d2 -= g
        labels[s:e] = d2.argmin(axis=1)
    return labels
