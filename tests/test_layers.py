import numpy as np
import pytest

from setcomplete import autodiff as ad
from setcomplete.layers import AttentionParams, init_attention_params, mab, mab_graph, sab, slot_attention_layer
from setcomplete.sets import FeatureSet, pad_stack


def make_params(dim=8, heads=2, seed=0, prefix="blk"):
    store = ad.ParamStore()
    return init_attention_params(store, prefix, dim, heads, np.random.default_rng(seed))


def random_set(rng, n, dim=8):
    return FeatureSet(rng.standard_normal((n, dim)))


def test_block_shapes_and_element_ids_passthrough(rng):
    params = make_params()
    q = FeatureSet(rng.standard_normal((3, 8)), element_ids=[7, 3, 9])
    kv = random_set(rng, 5)
    out = mab(q, kv, params)
    assert out.features.shape == (3, 8)
    assert np.array_equal(out.element_ids, q.element_ids)


def test_query_permutation_equivariance():
    params = make_params()
    for seed in range(5):
        rng = np.random.default_rng(seed)
        for n in range(1, 9):
            q = random_set(rng, n)
            kv = random_set(rng, 4)
            perm = rng.permutation(n)
            direct = mab(q.permuted(perm), kv, params).features
            permuted = mab(q, kv, params).features[perm]
            assert np.max(np.abs(direct - permuted)) < 1e-10


def test_keyvalue_permutation_invariance():
    params = make_params()
    for seed in range(5):
        rng = np.random.default_rng(seed)
        for n in range(1, 9):
            q = random_set(rng, 3)
            kv = random_set(rng, n)
            perm = rng.permutation(n)
            a = mab(q, kv, params).features
            b = mab(q, kv.permuted(perm), params).features
            assert np.max(np.abs(a - b)) < 1e-10


def test_sab_permutation_equivariance(rng):
    params = make_params()
    x = random_set(rng, 6)
    perm = rng.permutation(6)
    a = sab(x.permuted(perm), params).features
    b = sab(x, params).features[perm]
    assert np.max(np.abs(a - b)) < 1e-10


def test_masked_key_row_is_ignored(rng):
    params = make_params()
    q = random_set(rng, 3)
    feats = rng.standard_normal((4, 8))
    base = mab(q, FeatureSet(feats), params).features
    padded = np.vstack([feats, 1e6 * np.ones((1, 8))])
    mask = np.array([[1.0, 1.0, 1.0, 1.0, 0.0]])
    out = _block_output(params, q.features[None], padded[None], mask)[0]
    assert np.max(np.abs(out - base)) < 1e-12


def test_duplicate_key_rows_change_attention(rng):
    params = make_params()
    q = random_set(rng, 2)
    feats = rng.standard_normal((3, 8))
    a = mab(q, FeatureSet(feats), params).features
    b = mab(q, FeatureSet(np.vstack([feats, feats[:1]])), params).features
    assert np.max(np.abs(a - b)) > 1e-6


def test_single_head_block_matches_hand_rolled(rng):
    dim = 4
    params = make_params(dim=dim, heads=1, seed=7)
    store = params.store
    q = rng.standard_normal((3, dim))
    kv = rng.standard_normal((5, dim))

    def p(name):
        return store.params[f"blk.{name}"]

    logits = (q @ p("wq")) @ (kv @ p("wk")).T / np.sqrt(dim)
    weights = np.exp(logits - logits.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    attended = (weights @ (kv @ p("wv"))) @ p("wo")

    def layer_norm(x, g, b):
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-5) * g + b

    h = layer_norm(q + attended, p("ln1_g"), p("ln1_b"))
    ff = np.maximum(h @ p("ff_w1") + p("ff_b1"), 0.0) @ p("ff_w2") + p("ff_b2")
    expected = layer_norm(h + ff, p("ln2_g"), p("ln2_b"))

    got = mab(FeatureSet(q), FeatureSet(kv), params).features
    assert np.max(np.abs(got - expected)) < 1e-12


def test_three_layer_stack_keeps_both_laws(rng):
    store = ad.ParamStore()
    blocks = [init_attention_params(store, f"l{i}", 8, 2, np.random.default_rng(i)) for i in range(3)]

    def stack(slots, x):
        for blk in blocks:
            slots = slot_attention_layer(slots, x, blk)
        return slots.features

    slots = random_set(rng, 4)
    x = random_set(rng, 6)
    perm_x = rng.permutation(6)
    perm_s = rng.permutation(4)
    assert np.max(np.abs(stack(slots, x) - stack(slots, x.permuted(perm_x)))) < 1e-10
    assert np.max(np.abs(stack(slots.permuted(perm_s), x) - stack(slots, x)[perm_s])) < 1e-10


def test_dim_must_divide_heads():
    store = ad.ParamStore()
    with pytest.raises(ValueError):
        AttentionParams(store, "blk", 6, 4)


def test_rejects_mismatched_and_empty_inputs(rng):
    params = make_params()
    q = random_set(rng, 2)
    with pytest.raises(ValueError):
        mab(q, FeatureSet(rng.standard_normal((3, 4))), params)
    with pytest.raises(ValueError):
        mab(q, FeatureSet(np.zeros((0, 8))), params)
    with pytest.raises(ValueError):
        mab(FeatureSet(np.zeros((0, 8))), q, params)


def test_a_set_without_rows_is_rejected_on_construction():
    with pytest.raises(ValueError, match="at least one element"):
        FeatureSet(np.zeros((0, 8)))
    with pytest.raises(ValueError, match="at least one element"):
        FeatureSet(np.zeros((0, 8)), element_ids=np.zeros(0, dtype=np.int64))


def test_element_ids_are_keyword_only(rng):
    x = rng.standard_normal((2, 8))
    with pytest.raises(TypeError):
        FeatureSet(x, np.ones(2))
    assert np.array_equal(FeatureSet(x, element_ids=[4, 5]).element_ids, [4, 5])


def _block_output(params, q, kv, mask):
    with ad.inference():
        return mab_graph(ad.const(q), ad.const(kv), mask, params).values


def test_freezing_after_the_handles_exist_stops_weight_gradients(rng):
    params = make_params()
    inputs = ad.ParamStore()
    inputs.add("q", rng.standard_normal((2, 3, 8)))
    inputs.add("kv", rng.standard_normal((2, 4, 8)))
    mask = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0]])

    def loss():
        out = mab_graph(ad.param(inputs, "q"), ad.param(inputs, "kv"), mask, params)
        return ad.Graph(ad.tsum(ad.mul(out, out)))

    graph = loss()
    _, trainable = ad.eval_and_grad(graph, params.store)
    assert all(np.abs(g).max() > 0 for g in trainable.values())
    params.store.freeze()
    graph = loss()
    block = graph.root.parents[0].parents[0]
    assert all(not w.requires_grad for w in block.parents[2:])
    _, grads = ad.eval_and_grad(graph, params.store)
    assert all(not g.any() for g in grads.values())
    # the backward returns no weight products, only the input gradients
    parts = ad._BACKWARD["mab"](block, np.ones(block.shape))
    assert all(p is None for p in parts[2:])
    assert parts[0].shape == (2, 3, 8) and parts[1].shape == (2, 4, 8)


def test_in_place_updates_reach_the_next_forward(rng):
    from setcomplete.training import _load_params

    params = make_params(seed=1)
    q, kv, mask = rng.standard_normal((1, 3, 8)), rng.standard_normal((1, 4, 8)), np.ones((1, 4))
    before = _block_output(params, q, kv, mask)
    grads = {name: rng.standard_normal(arr.shape) for name, arr in params.store.params.items()}
    ad.sgd_step(params.store, grads, 0.1)
    stepped = _block_output(params, q, kv, mask)
    fresh = AttentionParams(params.store, params.prefix, params.dim, params.heads)
    assert not np.array_equal(stepped, before)
    assert np.array_equal(stepped, _block_output(fresh, q, kv, mask))
    other = make_params(seed=2)
    _load_params(params.store, other.store.params)
    assert np.array_equal(_block_output(params, q, kv, mask), _block_output(other, q, kv, mask))


@pytest.mark.parametrize("self_attention", [False, True])
def test_ragged_batch_rows_equal_each_sets_own_block(rng, self_attention):
    # a padded batch with its query mask runs each set's rows as the
    # single-set block does; its padding rows are exact zeros
    params = make_params()
    qs = [rng.standard_normal((m, 8)) for m in (1, 3, 2, 3, 1)]
    kvs = qs if self_attention else [rng.standard_normal((n, 8)) for n in (2, 1, 4, 4, 3)]
    q, q_mask = pad_stack(qs)
    kv, kv_mask = pad_stack(kvs)
    with ad.inference():
        out = mab_graph(ad.const(q), ad.const(kv), kv_mask, params, q_mask).values
    assert np.all(out[q_mask == 0.0] == 0.0)
    for i, (qi, kvi) in enumerate(zip(qs, kvs)):
        single = sab(FeatureSet(qi), params) if self_attention else mab(FeatureSet(qi), FeatureSet(kvi), params)
        assert np.max(np.abs(out[i, : len(qi)] - single.features)) < 1e-12
