from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from setcomplete import kernels


def _attention_inputs(rng, b=3, h=2, m=4, n=6, dh=8):
    # keys come transposed, (B, H, dh, N)
    q = rng.standard_normal((b, h, m, dh))
    k = rng.standard_normal((b, h, dh, n))
    v = rng.standard_normal((b, h, n, dh))
    mask = (rng.random((b, n)) > 0.3).astype(np.float64)
    mask[:, 0] = 1.0
    return q, k, v, mask


def test_attention_weights_rows_sum_to_one(rng):
    q, k, v, mask = _attention_inputs(rng)
    _, w = kernels.attn_forward(q, k, v, mask, 0.3)
    assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-12)


def test_attention_masked_keys_get_exact_zero_weight(rng):
    q, k, v, mask = _attention_inputs(rng)
    _, w = kernels.attn_forward(q, k, v, mask, 0.3)
    masked = w * (1.0 - mask[:, None, None, :])
    assert masked.max() == 0.0


def test_attention_reads_keys_transposed(rng):
    q, k, v, mask = _attention_inputs(rng)
    ctx, w = kernels.attn_forward(q, k, v, mask, 0.3)
    logits = np.einsum("bhmd,bhdn->bhmn", q, k) * 0.3 + np.where(mask > 0, 0.0, -np.inf)[:, None, None, :]
    expected = np.exp(logits - logits.max(axis=-1, keepdims=True))
    expected /= expected.sum(axis=-1, keepdims=True)
    assert np.max(np.abs(w - expected)) < 1e-12
    assert np.max(np.abs(ctx - expected @ v)) < 1e-12


def test_attention_backward_matches_finite_differences(rng):
    # dq, dk and dv come back in the (B, H, n, dh) row layout; dk is the
    # gradient of the transposed key operand, transposed back
    q, k, v, mask = _attention_inputs(rng, b=2, h=2, m=3, n=4, dh=3)
    c = rng.standard_normal((2, 2, 3, 3))
    _, w = kernels.attn_forward(q, k, v, mask, 0.7)
    dq, dk, dv = kernels.attn_backward(c, q, k, v, w, 0.7)
    assert dq.shape == q.shape and dk.shape == k.swapaxes(-1, -2).shape and dv.shape == v.shape
    for arr, grad in ((q, dq), (k, dk.swapaxes(-1, -2)), (v, dv)):
        flat, step = arr.reshape(-1), 1e-6
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = (kernels.attn_forward(q, k, v, mask, 0.7)[0] * c).sum()
            flat[i] = keep - step
            down = (kernels.attn_forward(q, k, v, mask, 0.7)[0] * c).sum()
            flat[i] = keep
            gi = np.ascontiguousarray(grad).reshape(-1)[i]
            assert abs(gi - (up - down) / (2.0 * step)) / max(1.0, abs(gi)) < 1e-5


def test_topk_orders_by_score_then_id():
    scores = np.array([0.5, 0.9, 0.5, 0.1, 0.9])
    ids = np.array([40, 30, 2, 1, 10], dtype=np.int64)
    pos = kernels.topk_select(scores, ids, 4)
    # 0.9 ties: id 10 before 30; 0.5 ties: id 2 before 40
    assert list(ids[pos]) == [10, 30, 2, 40]


def test_topk_k_larger_than_pool():
    scores = np.array([0.3, 0.1])
    ids = np.array([7, 5], dtype=np.int64)
    pos = kernels.topk_select(scores, ids, 10)
    assert list(ids[pos]) == [7, 5]


TOPK_VALUES = [0.5, 0.25, 0.0, -0.0, -1.0, -np.inf, np.nan]


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.sampled_from(TOPK_VALUES), min_size=1, max_size=80),
    k=st.integers(1, 90),
    seed=st.integers(0, 2**32 - 1),
)
def test_topk_equals_full_lexsort_under_ties(values, k, seed):
    scores = np.array(values)
    ids = np.random.default_rng(seed).permutation(3 * len(scores))[: len(scores)]
    expected = np.lexsort((ids, -scores))[:k]
    assert np.array_equal(kernels.topk_select(scores, ids, k), expected)


@settings(max_examples=150, deadline=None)
@given(
    palette=st.lists(st.sampled_from(TOPK_VALUES), min_size=1, max_size=7),
    n=st.integers(1, 1400),
    k=st.integers(1, 1410),
    seed=st.integers(0, 2**32 - 1),
)
def test_topk_equals_full_lexsort_up_to_1400_scores(palette, n, k, seed):
    # a palette repeating a value weights it
    rng = np.random.default_rng(seed)
    scores = rng.choice(np.array(palette), size=n)
    ids = rng.permutation(3 * n)[:n]
    pos = kernels.topk_select(scores, ids, k)
    assert np.array_equal(pos, np.lexsort((ids, -scores))[:k])


def test_assign_nearest_breaks_ties_toward_lowest_centroid():
    feats = np.array([[1.0, 0.0]])
    cents = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert kernels.assign_nearest(feats, cents)[0] == 0


def one_product_labels(feats, centroids):
    fn = (feats * feats).sum(axis=1)
    cn = (centroids * centroids).sum(axis=1)
    return (fn[:, None] + cn[None, :] - 2.0 * feats @ centroids.T).argmin(axis=1)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_blocked_assign_nearest_equals_one_product(extra):
    block = 8
    rng = np.random.default_rng(40 + extra)
    n = block + extra
    feats, cents = rng.standard_normal((n, 5)), rng.standard_normal((6, 5))
    # integer-valued rows make every product exact, so each centroid and its copy tie exactly
    grid = rng.integers(-3, 4, size=(n, 4)).astype(np.float64)
    copies = np.vstack([grid[:3], grid[:3]])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "ASSIGN_BLOCK", block)
        assert np.array_equal(kernels.assign_nearest(feats, cents), one_product_labels(feats, cents))
        tied = kernels.assign_nearest(grid, copies)
    assert np.array_equal(tied, one_product_labels(grid, copies))
    assert np.all(tied < 3)


def test_attention_op_rejects_all_masked_entry():
    from setcomplete import autodiff as ad
    from setcomplete.layers import init_attention_params, mab_graph

    rng = np.random.default_rng(0)
    params = init_attention_params(ad.ParamStore(), "blk", 8, 2, rng)
    mask = np.ones((3, 6))
    mask[1, :] = 0.0
    with pytest.raises(ValueError):
        mab_graph(ad.const(rng.standard_normal((3, 4, 8))), ad.const(rng.standard_normal((3, 6, 8))), mask, params)


@settings(max_examples=150, deadline=None)
@given(
    palette=st.lists(st.floats(-4.0, 4.0, width=32), min_size=1, max_size=6),
    n=st.integers(2, 400),
    k=st.integers(1, 60),
    margin=st.sampled_from([0.0, 2.0**-30, 1e-6, 1e-3, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
@example(palette=[0.0], n=15, k=1, margin=0.5, seed=0)  # the sample's cut ties the k-th best
def test_screen_keeps_every_score_within_the_margin_of_the_kth_best(palette, n, k, margin, seed):
    # palette values repeat, so ties sit at and around the k-th best
    rng = np.random.default_rng(seed)
    k = min(k, n - 1)
    mixed = np.where(rng.random(n) < 0.5, rng.choice(np.array(palette), size=n), rng.standard_normal(n))
    scores = mixed.astype(np.float32)
    cut = Fraction(float(np.sort(scores)[::-1][k - 1])) - Fraction(margin)
    must = {p for p in range(n) if Fraction(float(scores[p])) >= cut}
    floor = np.float32(float(cut))  # the largest float32 at or below the cut
    if Fraction(float(floor)) > cut:
        floor = np.nextafter(floor, np.float32(-np.inf))
    for sample_min in (kernels.SCREEN_SAMPLE_MIN, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "SCREEN_SAMPLE_MIN", sample_min)
            kept = kernels.screen(scores, k, margin)
        assert np.all(np.diff(kept) > 0)
        assert must <= set(kept.tolist())
        assert np.all(scores[kept] >= floor)


@settings(max_examples=100, deadline=None)
@given(
    palette=st.lists(st.floats(-4.0, 4.0, width=32), min_size=1, max_size=6),
    rows=st.integers(1, 6),
    n=st.integers(2, 300),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_screen_rows_keeps_what_screen_keeps_in_each_row(palette, rows, n, k, seed):
    # k = 1 over several rows takes the one-pass path; an infinite margin keeps the row
    rng = np.random.default_rng(seed)
    k = min(k, n - 1)
    mixed = np.where(rng.random((rows, n)) < 0.5, rng.choice(np.array(palette), size=(rows, n)),
                     rng.standard_normal((rows, n)))
    scores = mixed.astype(np.float32)
    margins = rng.choice([0.0, 2.0**-30, 1e-6, 1e-3, 0.5, np.inf], size=rows).tolist()
    counts, cols = kernels.screen_rows(scores, k, margins)
    want = [kernels.screen(row, k, m) for row, m in zip(scores, margins)]
    assert counts == [len(c) for c in want]
    assert cols.tolist() == np.concatenate(want).tolist()
    assert all(len(c) == n for c, m in zip(want, margins) if m == np.inf)
