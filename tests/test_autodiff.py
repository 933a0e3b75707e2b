import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setcomplete import autodiff as ad
from setcomplete import kernels, serialize


def scalar_graph(store):
    return ad.Graph(ad.tsum(ad.param(store, "w")))


def test_sum_loss_and_unit_gradient():
    store = ad.ParamStore()
    store.add("w", np.array([1.0, 2.0, 3.0]))
    loss, grads = ad.eval_and_grad(scalar_graph(store), store)
    assert loss == 6.0
    assert np.array_equal(grads["w"], np.ones(3))


def test_quadratic_gradient():
    store = ad.ParamStore()
    store.add("w", np.array([[3.0]]))
    w = ad.param(store, "w")
    loss, grads = ad.eval_and_grad(ad.Graph(ad.tsum(ad.mul(w, w))), store)
    assert loss == 9.0
    assert grads["w"][0, 0] == 6.0


def test_softmax_cross_entropy_matches_finite_differences(rng):
    store = ad.ParamStore()
    store.add("logits", rng.standard_normal((1, 4)))
    node = ad.cross_entropy(ad.param(store, "logits"), np.array([2]), np.array([1.0]))
    err = ad.finite_diff_check(ad.Graph(node), store, step=1e-5)
    assert err < 1e-4


def test_unreachable_parameter_gets_zero_gradient():
    store = ad.ParamStore()
    store.add("used", np.array([2.0]))
    store.add("unused", np.array([5.0, 5.0]))
    node = ad.tsum(ad.param(store, "used"))
    _, grads = ad.eval_and_grad(ad.Graph(node), store)
    assert np.array_equal(grads["unused"], np.zeros(2))


def test_non_scalar_loss_rejected():
    store = ad.ParamStore()
    store.add("w", np.ones(3))
    node = ad.relu(ad.param(store, "w"))
    with pytest.raises(ValueError):
        ad.eval_and_grad(ad.Graph(node), store)


def test_gradient_check_passes_a_finite_sum_overflow_and_names_a_non_finite_parameter():
    # w's gradient is c, or c + c when w is used twice: finite values whose
    # sum overflows, then values that overflow themselves
    store = ad.ParamStore()
    store.add("w", np.full(2, 1e-10))
    c = np.full(2, 1e308)
    term = ad.tsum(ad.mul(ad.param(store, "w"), ad.const(c)))
    _, grads = ad.eval_and_grad(ad.Graph(term), store)
    assert np.array_equal(grads["w"], c)
    with np.errstate(over="ignore"), pytest.raises(ad.GradientError, match="^non-finite gradient for parameter 'w'$"):
        ad.eval_and_grad(ad.Graph(ad.add(term, ad.tsum(ad.mul(ad.param(store, "w"), ad.const(c))))), store)


def test_nan_in_forward_raises():
    with pytest.raises(ad.GradientError):
        ad.scale(ad.const(np.array([1e308])), 1e308)


def test_inference_values_match_the_tape_bitwise(rng):
    # B=1 with every key valid skips the mask pass and reduces its rows with
    # numpy reduces; B=48 with masked keys reduces them column by column
    for batch, masked in ((2, True), (1, False), (48, True)):
        store = _mab_store(rng, dim=4)
        store.add("q", rng.standard_normal((batch, 3, 4)))
        store.add("kv", rng.standard_normal((batch, 5, 4)))
        mask = np.ones((batch, 5))
        if masked:
            mask[-1, 2:] = 0.0
        weights = _mab_weights(store)

        def build():
            q, kv = ad.param(store, "q"), ad.param(store, "kv")
            ctx = ad.mab(q, kv, mask, weights, 2)
            normed = ad.mab(ad.relu(ctx), ctx, np.ones((batch, 3)), _mab_weights(store), 2)
            return ad.l2_normalize(ad.matmul(normed, ad.param(store, "wq")))

        taped = build()
        with ad.inference():
            untaped = build()
        assert np.array_equal(untaped.values, taped.values)
        assert taped.parents and untaped.parents is None


def test_inference_non_finite_forward_names_the_op():
    with ad.inference():
        with pytest.raises(ad.GradientError, match="'scale'"):
            ad.scale(ad.const(np.array([1e308])), 1e308)


def test_backward_through_an_inference_node_raises():
    store = ad.ParamStore()
    store.add("w", np.array([1.0, 2.0]))
    with ad.inference():
        node = ad.tsum(ad.mul(ad.param(store, "w"), ad.param(store, "w")))
    with pytest.raises(ad.GradientError, match="inference"):
        ad.backward(node)
    with pytest.raises(ad.GradientError, match="inference"):
        ad.eval_and_grad(ad.Graph(ad.add(node, ad.param(store, "w"))), store)


def test_inference_mode_is_restored_after_an_exception():
    store = ad.ParamStore()
    store.add("w", np.array([3.0]))
    with pytest.raises(ad.GradientError):
        with ad.inference():
            with ad.inference():
                ad.scale(ad.const(np.array([np.inf])), 2.0)
    loss, grads = ad.eval_and_grad(ad.Graph(ad.tsum(ad.mul(ad.param(store, "w"), ad.param(store, "w")))), store)
    assert loss == 9.0 and grads["w"][0] == 6.0


def test_eval_and_grad_bitwise_deterministic(rng):
    store = ad.ParamStore()
    store.add("w", rng.standard_normal((4, 4)))
    x = rng.standard_normal((3, 4))

    def build():
        h = ad.matmul(ad.const(x), ad.param(store, "w"))
        return ad.Graph(ad.tmean(ad.relu(h)))

    l1, g1 = ad.eval_and_grad(build(), store)
    l2, g2 = ad.eval_and_grad(build(), store)
    assert l1 == l2
    assert np.array_equal(g1["w"], g2["w"])


def test_graph_reevaluates_after_inplace_update(rng):
    store = ad.ParamStore()
    store.add("w", np.array([2.0]))
    graph = scalar_graph(store)
    assert graph.forward() == 2.0
    store.params["w"][0] = 7.0
    assert graph.forward() == 7.0


# -- the fused attention block -----------------------------------------------------


def _mab_store(rng, dim):
    store = ad.ParamStore()
    for name, ndim in ad.MAB_WEIGHTS:
        shape = (dim, dim) if ndim == 2 else (dim,)
        store.add(name, (1.0 if name.endswith("_g") else 0.0) + 0.5 * rng.standard_normal(shape))
    return store


def _mab_weights(store):
    return tuple(ad.param(store, name) for name, _ in ad.MAB_WEIGHTS)


def _mab_reference(q, kv, mask, w, heads):
    """The Set Transformer block in plain numpy, one head at a time."""
    B, M, D = q.shape
    dh = D // heads

    def layer_norm(x, g, b):
        return (x - x.mean(axis=-1, keepdims=True)) / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5) * g + b

    qp, kp, vp = q @ w["wq"], kv @ w["wk"], kv @ w["wv"]
    ctx = np.zeros((B, M, D))
    for b in range(B):
        valid = mask[b] > 0
        for h in range(heads):
            cols = slice(h * dh, (h + 1) * dh)
            logits = qp[b, :, cols] @ kp[b][valid][:, cols].T / np.sqrt(dh)
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            ctx[b, :, cols] = (e / e.sum(axis=1, keepdims=True)) @ vp[b][valid][:, cols]
    h1 = layer_norm(q + ctx @ w["wo"], w["ln1_g"], w["ln1_b"])
    ff = np.maximum(h1 @ w["ff_w1"] + w["ff_b1"], 0.0) @ w["ff_w2"] + w["ff_b2"]
    return layer_norm(h1 + ff, w["ln2_g"], w["ln2_b"])


# -- finite differences over every composite op -------------------------------------


def _fd(builder, store, step=1e-6, tol=1e-5):
    err = ad.finite_diff_check(ad.Graph(builder()), store, step=step)
    assert err < tol, f"finite-difference mismatch: {err}"


def test_fd_matmul_add_relu(rng):
    store = ad.ParamStore()
    store.add("a", rng.standard_normal((3, 4)) + 0.1)
    store.add("b", rng.standard_normal((4, 2)))
    store.add("bias", rng.standard_normal(2))
    _fd(lambda: ad.tsum(ad.relu(ad.add(ad.matmul(ad.param(store, "a"), ad.param(store, "b")), ad.param(store, "bias")))), store)


def test_fd_batched_matmul(rng):
    store = ad.ParamStore()
    store.add("a", rng.standard_normal((2, 3, 4)))
    store.add("b", rng.standard_normal((4, 5)))
    _fd(lambda: ad.tmean(ad.matmul(ad.param(store, "a"), ad.param(store, "b"))), store)


def test_fd_layernorm(rng):
    # the layer-norm kernels: analytic backward against central differences
    x = rng.standard_normal((3, 6))
    g = 1.0 + 0.1 * rng.standard_normal(6)
    b = rng.standard_normal(6)
    c = rng.standard_normal((3, 6))
    _, xhat, rstd = kernels.layernorm_forward(x, g, b, ad.LN_EPS)
    analytic = kernels.layernorm_backward(c, xhat, rstd, g)
    for arr, grad in zip((x, g, b), analytic):
        flat, step = arr.reshape(-1), 1e-6
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = (kernels.layernorm_forward(x, g, b, ad.LN_EPS)[0] * c).sum()
            flat[i] = keep - step
            down = (kernels.layernorm_forward(x, g, b, ad.LN_EPS)[0] * c).sum()
            flat[i] = keep
            numeric = (up - down) / (2.0 * step)
            gi = grad.reshape(-1)[i]
            assert abs(gi - numeric) / max(1.0, abs(gi)) < 1e-5


def test_fd_reshape_concat_gather(rng):
    store = ad.ParamStore()
    store.add("x", rng.standard_normal((4, 6)))

    def build():
        x = ad.param(store, "x")
        t = ad.reshape(x, (2, 2, 6))
        c = ad.concat([t, t], axis=2)
        g = ad.gather_rows(ad.reshape(c, (4, 12)), np.array([0, 0, 3, 1]))
        return ad.tmean(g)

    _fd(build, store)


def test_fd_masked_mean_l2norm_softplus(rng):
    store = ad.ParamStore()
    store.add("x", rng.standard_normal((2, 4, 5)))
    mask = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])

    def build():
        x = ad.param(store, "x")
        pooled = ad.masked_mean(x, mask)
        return ad.tsum(ad.softplus(ad.l2_normalize(pooled)))

    _fd(build, store)


def test_fd_attention(rng):
    # all 14 parents of the fused block: q, kv and the 12 weights, with masked keys
    store = _mab_store(rng, dim=4)
    store.add("q", rng.standard_normal((2, 3, 4)))
    store.add("kv", rng.standard_normal((2, 5, 4)))
    mask = np.ones((2, 5))
    mask[0, 3:] = 0.0

    def build():
        out = ad.mab(ad.param(store, "q"), ad.param(store, "kv"), mask, _mab_weights(store), 2)
        return ad.tmean(ad.mul(out, ad.const(rng.standard_normal((2, 3, 4)))))

    _fd(build, store)


def test_fd_attention_block_as_sab(rng):
    store = _mab_store(rng, dim=4)
    store.add("x", rng.standard_normal((2, 4, 4)))
    mask = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
    weights = rng.standard_normal((2, 4, 4))

    def build():
        x = ad.param(store, "x")
        return ad.tsum(ad.mul(ad.mab(x, x, mask, _mab_weights(store), 2), ad.const(weights)))

    _fd(build, store)


def test_attention_block_with_frozen_weights_differentiates_inputs_only(rng):
    trainable = _mab_store(rng, dim=4)
    frozen = ad.ParamStore()
    for name, values in trainable.params.items():
        frozen.add(name, values)
    frozen.freeze()
    inputs = ad.ParamStore()
    inputs.add("q", rng.standard_normal((2, 3, 4)))
    inputs.add("kv", rng.standard_normal((2, 5, 4)))
    mask = np.ones((2, 5))
    mask[1, 1:] = 0.0
    c = rng.standard_normal((2, 3, 4))

    def build(store):
        out = ad.mab(ad.param(inputs, "q"), ad.param(inputs, "kv"), mask, _mab_weights(store), 2)
        return ad.Graph(ad.tsum(ad.mul(out, ad.const(c))))

    graph = build(frozen)
    assert all(not p.requires_grad for p in graph.root.parents[0].parents[0].parents[2:])
    loss, grads = ad.eval_and_grad(graph, inputs)
    loss_t, grads_t = ad.eval_and_grad(build(trainable), inputs)
    assert loss == loss_t and frozen.frozen
    for name in ("q", "kv"):
        assert np.array_equal(grads[name], grads_t[name])
    assert np.all(grads["kv"][1, 1:] == 0.0)
    assert ad.finite_diff_check(graph, inputs, step=1e-6) < 1e-5


def test_attention_block_matches_numpy_reference(rng):
    store = _mab_store(rng, dim=8)
    # both sides of kernels.ROW_REDUCE_MAX, with and without masked keys
    for batch, m, n, masked in ((3, 4, 6, True), (1, 3, 4, False), (1, 3, 9, True), (40, 4, 6, True), (64, 5, 9, False)):
        q = rng.standard_normal((batch, m, 8))
        kv = rng.standard_normal((batch, n, 8))
        mask = (rng.random((batch, n)) > 0.4).astype(np.float64) if masked else np.ones((batch, n))
        mask[:, 2] = 1.0
        got = ad.mab(ad.const(q), ad.const(kv), mask, _mab_weights(store), 2).values
        expected = _mab_reference(q, kv, mask, store.params, 2)
        assert np.max(np.abs(got - expected)) < 1e-12


def _ragged_mask(rng, batch, n, low):
    sizes = rng.integers(low, n + 1, size=batch)
    return (np.arange(n)[None, :] < sizes[:, None]).astype(np.float64)


@settings(max_examples=60, deadline=None)
@given(
    batch=st.integers(1, 12), m=st.integers(1, 6), n=st.integers(1, 6), dim=st.sampled_from([4, 8]),
    self_attention=st.booleans(), frozen=st.booleans(), full=st.booleans(), seed=st.integers(0, 2**32 - 1),
)
def test_query_mask_runs_the_block_on_the_valid_rows_only(batch, m, n, dim, self_attention, frozen, full, seed):
    # with a query mask the block gathers the valid rows, works on them alone
    # and scatters back: the valid output rows and every gradient agree with
    # the call without one, and the padding rows are exact zeros
    rng = np.random.default_rng(seed)
    store = _mab_store(rng, dim)
    if frozen:
        store.freeze()
    inputs = ad.ParamStore()
    n = m if self_attention else n
    inputs.add("q", rng.standard_normal((batch, m, dim)))
    inputs.add("kv", rng.standard_normal((batch, n, dim)))
    kmask = np.ones((batch, n)) if full else _ragged_mask(rng, batch, n, 1)
    qmask = kmask if self_attention else np.ones((batch, m)) if full else _ragged_mask(rng, batch, m, 0)
    # the packed output's padding rows are constants, so the gradient that
    # reaches them must not flow back; the dense call masks it instead
    c = rng.standard_normal((batch, m, dim))

    def build(query_mask, weights):
        q = ad.param(inputs, "q")
        kv = q if self_attention else ad.param(inputs, "kv")
        out = ad.mab(q, kv, kmask, _mab_weights(store), 2, query_mask)
        return out, ad.Graph(ad.tsum(ad.mul(out, ad.const(weights))))

    packed, packed_graph = build(qmask, c)
    dense, dense_graph = build(None, c * qmask[:, :, None])
    pad = qmask == 0.0
    assert np.all(packed.values[pad] == 0.0)
    assert np.max(np.abs(packed.values - dense.values)[~pad], initial=0.0) < 1e-12
    for grads_of in (inputs, store):
        loss, grads = ad.eval_and_grad(packed_graph, grads_of)
        loss_dense, grads_dense = ad.eval_and_grad(dense_graph, grads_of)
        assert abs(loss - loss_dense) < 1e-12
        for name in grads:
            assert np.max(np.abs(grads[name] - grads_dense[name])) < 1e-12, name
    _, grads = ad.eval_and_grad(packed_graph, inputs)
    assert np.all(grads["q"][qmask == 0.0] == 0.0)
    assert np.all(grads["kv"][kmask == 0.0] == 0.0)
    block = packed_graph.root.parents[0].parents[0]
    dq, dkv = ad._BACKWARD["mab"](block, rng.standard_normal(block.shape))[:2]
    assert np.all(dq[qmask == 0.0] == 0.0) and np.all(dkv[kmask == 0.0] == 0.0)


def test_fd_attention_with_ragged_query_and_key_masks(rng):
    # every parent of the block, as a cross block and as a self-attention
    # block, with padding rows on both sides; 3 + 2 valid queries make a
    # packed array of 5 rows, rounded up to 8 with copies of a padding row
    store = _mab_store(rng, dim=4)
    store.add("q", rng.standard_normal((2, 4, 4)))
    store.add("kv", rng.standard_normal((2, 5, 4)))
    qmask = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
    kmask = np.array([[1.0, 1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0, 0.0]])
    c = rng.standard_normal((2, 4, 4))

    def cross():
        out = ad.mab(ad.param(store, "q"), ad.param(store, "kv"), kmask, _mab_weights(store), 2, qmask)
        return ad.tmean(ad.mul(out, ad.const(c)))

    def self_attention():
        q = ad.param(store, "q")
        out = ad.mab(q, q, qmask, _mab_weights(store), 2, qmask)
        return ad.tsum(ad.mul(out, ad.const(c)))

    _fd(cross, store)
    _fd(self_attention, store)


def test_attention_block_non_finite_output_names_the_op(rng):
    store = _mab_store(rng, dim=4)
    q = np.full((1, 2, 4), 1e308)
    q[0, :, 0] = -1e308
    with pytest.raises(ad.GradientError, match="'mab'"):
        ad.mab(ad.const(q), ad.const(np.ones((1, 3, 4))), np.ones((1, 3)), _mab_weights(store), 2)
    with ad.inference():
        with pytest.raises(ad.GradientError, match="'mab'"):
            ad.mab(ad.const(q), ad.const(np.ones((1, 3, 4))), np.ones((1, 3)), _mab_weights(store), 2)


def test_attention_block_rejects_missing_or_stray_weights(rng):
    store = _mab_store(rng, dim=4)
    x = ad.const(rng.standard_normal((1, 2, 4)))
    missing = _mab_weights(store)[:-1]
    stray = _mab_weights(store) + (ad.param(store, "wq"),)
    for weights in (missing, stray):
        with pytest.raises(ValueError, match="weights"):
            ad.mab(x, x, np.ones((1, 2)), weights, 2)


def test_attention_block_rejects_a_mask_of_the_wrong_shape(rng):
    store = _mab_store(rng, dim=4)
    q, kv = ad.const(rng.standard_normal((2, 3, 4))), ad.const(rng.standard_normal((2, 5, 4)))
    for key_mask, query_mask in ((np.ones((2, 3)), None), (np.ones(5), None), (np.ones((2, 5)), np.ones((2, 5)))):
        with pytest.raises(ValueError, match="one entry per row"):
            ad.mab(q, kv, key_mask, _mab_weights(store), 2, query_mask)


def test_every_op_has_a_forward_and_a_backward():
    assert set(ad._FORWARD) == set(ad._BACKWARD)


def test_fd_chamfer_and_cross_entropy(rng):
    store = ad.ParamStore()
    store.add("a", rng.standard_normal((2, 3, 4)))
    store.add("b", rng.standard_normal((2, 2, 4)))
    ma = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    mb = np.ones((2, 2))
    _fd(lambda: ad.chamfer_cost(ad.param(store, "a"), ad.param(store, "b"), ma, mb, np.array([0.5, 0.5])), store)

    store2 = ad.ParamStore()
    store2.add("logits", rng.standard_normal((3, 7)))
    _fd(lambda: ad.cross_entropy(ad.param(store2, "logits"), np.array([1, 0, 6]), np.full(3, 1 / 3)), store2)


def _chamfer_bwd_loop(a, b, mask_a, mask_b, weights, row_arg, col_arg, g):
    """Reference chamfer backward: one (batch, row) pair at a time."""
    da = np.zeros_like(a)
    db = np.zeros_like(b)
    for bi in range(a.shape[0]):
        w = g * weights[bi]
        for m in range(a.shape[1]):
            if mask_a[bi, m] <= 0:
                continue
            j = row_arg[bi, m]
            d = 2.0 * w * (a[bi, m] - b[bi, j])
            da[bi, m] += d
            db[bi, j] -= d
        for n in range(b.shape[1]):
            if mask_b[bi, n] <= 0:
                continue
            i = col_arg[bi, n]
            d = 2.0 * w * (a[bi, i] - b[bi, n])
            da[bi, i] += d
            db[bi, n] -= d
    return da, db


def test_chamfer_backward_matches_the_loop_bitwise():
    rng = np.random.default_rng(8)
    for trial in range(300):
        B, M, N, D = (int(v) for v in rng.integers(1, [6, 7, 7, 9]))
        a, b = rng.standard_normal((B, M, D)), rng.standard_normal((B, N, D))
        if trial % 3 == 0:  # few distinct values, so nearest rows tie
            a, b = np.round(a), np.round(b)
        mask_a = (rng.random((B, M)) < 0.7).astype(float)
        mask_b = (rng.random((B, N)) < 0.7).astype(float)
        mask_a[:, 0] = mask_b[:, 0] = 1.0
        weights = rng.random(B)
        node = ad.chamfer_cost(ad.const(a), ad.const(b), mask_a, mask_b, weights)
        g = float(rng.random() + 0.5)
        got = ad._BACKWARD["chamfer"](node, np.asarray(g))
        want = _chamfer_bwd_loop(a, b, mask_a, mask_b, weights, *node.aux, g)
        for x, y in zip(got, want):
            assert x.tobytes() == y.tobytes()


def test_fd_linear_loss_is_machine_exact(rng):
    store = ad.ParamStore()
    store.add("w", rng.standard_normal(5))
    err = ad.finite_diff_check(ad.Graph(ad.tsum(ad.scale(ad.param(store, "w"), 3.0))), store, step=1e-3)
    assert err < 1e-9


def test_fd_step_must_move_the_loss():
    store = ad.ParamStore()
    store.add("w", np.array([1.0]))
    graph = ad.Graph(ad.tsum(ad.param(store, "w")))
    with pytest.raises(ValueError):
        ad.finite_diff_check(graph, store, step=1e-300)


# -- optimizer ------------------------------------------------------------------------


def test_sgd_single_step():
    store = ad.ParamStore()
    store.add("p", np.array([1.0]))
    ad.sgd_step(store, {"p": np.array([1.0])}, learning_rate=0.1, momentum=0.0)
    assert store.params["p"][0] == pytest.approx(0.9)


def test_sgd_zero_gradient_is_fixed_point():
    store = ad.ParamStore()
    store.add("p", np.array([3.0, -2.0]))
    before = store.params["p"].copy()
    ad.sgd_step(store, {"p": np.zeros(2)}, learning_rate=0.5, momentum=0.9)
    assert np.array_equal(store.params["p"], before)


def test_sgd_momentum_two_step_recurrence():
    store = ad.ParamStore()
    store.add("p", np.array([0.0]))
    g = {"p": np.array([1.0])}
    ad.sgd_step(store, g, learning_rate=0.1, momentum=0.9)
    assert store.params["p"][0] == pytest.approx(-0.1)
    ad.sgd_step(store, g, learning_rate=0.1, momentum=0.9)
    assert store.params["p"][0] == pytest.approx(-0.29)


def test_sgd_validations():
    store = ad.ParamStore()
    store.add("p", np.zeros(2))
    with pytest.raises(ValueError):
        ad.sgd_step(store, {"p": np.zeros(2)}, learning_rate=0.0)
    with pytest.raises(ValueError):
        ad.sgd_step(store, {"p": np.zeros(2)}, learning_rate=0.1, momentum=1.0)
    with pytest.raises(ValueError):
        ad.sgd_step(store, {"p": np.zeros(3)}, learning_rate=0.1)


# -- ParamStore ------------------------------------------------------------------------


def test_param_store_rejects_duplicates():
    store = ad.ParamStore()
    store.add("w", np.zeros(2))
    with pytest.raises(ValueError):
        store.add("w", np.zeros(2))


def test_frozen_store_has_no_grad_slots_and_rejects_updates():
    store = ad.ParamStore()
    store.add("w", np.ones(2))
    store.freeze()
    t = ad.param(store, "w")
    assert not t.requires_grad
    with pytest.raises(ValueError):
        ad.sgd_step(store, {"w": np.ones(2)}, learning_rate=0.1)


def test_checksum_tracks_values():
    store = ad.ParamStore()
    store.add("w", np.ones(3))
    before = store.checksum()
    assert store.checksum() == before
    store.params["w"][0] = 2.0
    assert store.checksum() != before


# -- binary array container ---------------------------------------------------------------


def test_container_roundtrip_bitwise(rng, tmp_path):
    arrays = {
        "a": rng.standard_normal((3, 4)),
        "b": np.arange(5, dtype=np.int64),
        "scalar": np.array(2.5),
    }
    path = tmp_path / "arrays.bin"
    serialize.save_arrays(path, arrays, {"note": "x"})
    loaded, meta = serialize.load_arrays(path)
    assert meta == {"note": "x"}
    for name, arr in arrays.items():
        assert loaded[name].dtype == arr.dtype
        assert np.array_equal(loaded[name], arr)
    # identical content => identical bytes
    again = serialize.pack_arrays(arrays, {"note": "x"})
    assert again == path.read_bytes()


@settings(max_examples=25, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    seed=st.integers(0, 2**32 - 1),
)
def test_container_roundtrip_property(shape, seed):
    arr = np.random.default_rng(seed).standard_normal(shape)
    data = serialize.pack_arrays({"x": arr})
    loaded, _ = serialize.unpack_arrays(data)
    assert np.array_equal(loaded["x"], arr)


def test_container_rejects_garbage(tmp_path):
    with pytest.raises(ValueError):
        serialize.unpack_arrays(b'{"magic":"other"}\n')
    good = serialize.pack_arrays({"x": np.ones(2)})
    with pytest.raises(ValueError):
        serialize.unpack_arrays(good[:-3])
    with pytest.raises(ValueError):
        serialize.unpack_arrays(good + b"xx")
    with pytest.raises(ValueError):
        serialize.pack_arrays({"x": np.ones(2, dtype=np.float32)})
