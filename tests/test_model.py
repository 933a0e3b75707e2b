import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

import setcomplete.autodiff as ad
import setcomplete.model as sm
from setcomplete.data import Catalog
from setcomplete.evaluation import top1_ids
from setcomplete.model import (
    ModelConfig,
    build_variant,
    complete_batch,
    complete_features,
    complete_ids,
    cst_forward,
    cst_graph,
    embed_conditions,
    get_forward_count,
    reset_forward_count,
    slots_graph,
    st_encode,
    st_encode_graph,
    st_sequential_complete,
)
from setcomplete.retrieval import AnnConfig, build_index
from setcomplete.sets import FeatureSet, pad_stack

CONFIG = ModelConfig(dim=16, heads=4, slot_layers=2, sab_layers=1, categories=6)


def random_set(rng, n, dim=16):
    return FeatureSet(rng.standard_normal((n, dim)))


def test_embed_conditions_lookup_order():
    params = build_variant("CR", CONFIG, seed=0)
    table = params.embedding
    out = embed_conditions([2, 0], params.embedding)
    assert np.array_equal(out.features, table[[2, 0]])
    rep = embed_conditions([3, 3], params.embedding)
    assert np.array_equal(rep.features[0], rep.features[1])
    a = embed_conditions([1, 4, 2], params.embedding).features
    b = embed_conditions([2, 1, 4], params.embedding).features
    assert np.array_equal(a[[2, 0, 1]], b)
    with pytest.raises(ValueError):
        embed_conditions([6], params.embedding)


@pytest.mark.parametrize("tag", ["CR", "Cx"])
def test_forward_permutation_laws(tag):
    params = build_variant(tag, CONFIG, seed=1)
    for trial in range(20):
        rng = np.random.default_rng(trial)
        x = random_set(rng, 6)
        z = embed_conditions(list(rng.integers(0, 6, size=3)), params.embedding)
        base = cst_forward(x, z, params).features
        px = rng.permutation(6)
        assert np.max(np.abs(cst_forward(x.permuted(px), z, params).features - base)) < 1e-10
        pz = rng.permutation(3)
        assert np.max(np.abs(cst_forward(x, z.permuted(pz), params).features - base[pz])) < 1e-10


def test_output_cardinality_and_unit_norm(rng):
    params = build_variant("CR", CONFIG, seed=2)
    x = random_set(rng, 4)
    z = embed_conditions([0, 1, 2, 3, 4], params.embedding)
    out = cst_forward(x, z, params)
    assert out.cardinality == 5
    assert np.max(np.abs(np.linalg.norm(out.features, axis=1) - 1.0)) < 1e-12


def test_variant_wiring():
    cr = build_variant("CR", CONFIG, seed=0)
    assert cr.embedding is cr.store.params["cond_table"] and cr.sab_stack and cr.conditioned
    sa = build_variant("sa", CONFIG, seed=0)
    assert sa.embedding is None and sa.sab_stack == [] and not sa.conditioned
    xx = build_variant("xx", CONFIG, seed=0)
    assert xx.embedding is None and len(xx.sab_stack) == CONFIG.sab_layers
    xx_names = {n.split(".", 1)[0] for n in xx.store.params}
    sa_names = {n.split(".", 1)[0] for n in sa.store.params}
    assert {n for n in xx_names if not n.startswith("sab")} == sa_names
    st = build_variant("st", CONFIG, seed=0)
    assert st.conditioned and any(n.startswith("head") for n in st.store.params)
    with pytest.raises(ValueError):
        build_variant("zz", CONFIG, seed=0)


def test_gaussian_slot_init_is_seed_deterministic(rng):
    params = build_variant("xR", CONFIG, seed=3)
    x = random_set(rng, 5)
    a = complete_features(x, [0, 0, 0], params, slot_seed=9).features
    b = complete_features(x, [0, 0, 0], params, slot_seed=9).features
    assert np.array_equal(a, b)
    c = complete_features(x, [0, 0, 0], params, slot_seed=10).features
    assert np.max(np.abs(a - c)) > 1e-8


def test_st_forward_counts_and_growth(rng):
    cfg = ModelConfig(dim=16, heads=4, slot_layers=2, sab_layers=2, categories=6)
    st = build_variant("st", cfg, seed=4)
    catalog_feats = rng.standard_normal((30, 16))
    catalog_feats /= np.linalg.norm(catalog_feats, axis=1, keepdims=True)
    index = build_index_from_rows(catalog_feats, np.arange(30) % 6)

    x = random_set(rng, 3)
    reset_forward_count()
    ids1 = st_sequential_complete(x, [1], st, index)
    assert get_forward_count() == 1
    assert len(ids1) == 1

    reset_forward_count()
    ids3 = st_sequential_complete(x, [1, 2, 0], st, index)
    assert get_forward_count() == 3
    assert len(ids3) == 3
    cats = dict(zip(np.arange(30), np.arange(30) % 6))
    assert [cats[i] for i in ids3] == [1, 2, 0]


def test_st_appends_the_feature_of_each_item_it_retrieves(rng):
    st = build_variant("st", CONFIG, seed=4)
    features = rng.standard_normal((30, 16))
    ids = rng.permutation(30) * 7 + 100  # an item's id is not its row, so a misread row shows
    index = build_index(Catalog(ids, np.arange(30) % 6, features))
    x, labels = random_set(rng, 3), [1, 2, 0, 2, 1, 5]
    current, expected = x.features, []
    for label in labels:
        item = index.query_knn(st_encode(FeatureSet(current), label, st), k=1, category_filter=label)[0][0]
        expected.append(item)
        current = np.concatenate([current, index.features_of([item])])
    assert st_sequential_complete(x, labels, st, index) == expected


def build_index_from_rows(features, categories):
    return build_index(Catalog(np.arange(len(features)), categories, features))


def test_st_rejects_dense_forward(rng):
    st = build_variant("st", CONFIG, seed=5)
    x = random_set(rng, 3)
    z = FeatureSet(rng.standard_normal((2, 16)))
    with pytest.raises(ValueError):
        cst_forward(x, z, st)


def test_cst_rejects_empty_inputs(rng):
    params = build_variant("CR", CONFIG, seed=6)
    x = random_set(rng, 3)
    z = embed_conditions([0, 1], params.embedding)
    with pytest.raises(ValueError):
        cst_forward(FeatureSet(np.zeros((0, 16))), z, params)
    with pytest.raises(ValueError):
        cst_forward(x, FeatureSet(np.zeros((0, 16))), params)


def test_st_encode_puts_the_condition_token_first_as_training_does(rng):
    st = build_variant("st", CONFIG, seed=7)
    x = random_set(rng, 4)
    feats = np.concatenate([st.embedding[3][None], x.features])[None]
    taped = st_encode_graph(st, feats, np.ones((1, 5)))
    assert taped.parents is not None
    assert np.array_equal(st_encode(x, 3, st), taped.values[0])


def test_st_encoder_is_order_insensitive(rng):
    st = build_variant("st", CONFIG, seed=7)
    x = random_set(rng, 5)
    a = st_encode(x, 2, st)
    b = st_encode(x.permuted(rng.permutation(5)), 2, st)
    assert np.max(np.abs(a - b)) < 1e-10


def test_forward_counter_tracks_cst(rng):
    params = build_variant("CR", CONFIG, seed=8)
    x = random_set(rng, 4)
    reset_forward_count()
    for m in (1, 2, 5):
        complete_features(x, [0] * m, params)
    assert get_forward_count() == 3


def test_build_variant_is_seed_deterministic():
    a = build_variant("CR", CONFIG, seed=11)
    b = build_variant("CR", CONFIG, seed=11)
    assert a.store.checksum() == b.store.checksum()
    c = build_variant("CR", CONFIG, seed=12)
    assert a.store.checksum() != c.store.checksum()


@pytest.mark.parametrize("tag", ["CR", "xR"])
def test_complete_features_equals_tape_forward_and_batch_of_one(tag):
    params = build_variant(tag, CONFIG, seed=12)
    rng = np.random.default_rng(12)
    for m in (1, 3, 5):
        x = random_set(rng, 4)
        labels = np.array(rng.integers(0, 6, size=m))
        got = complete_features(x, labels, params, slot_seed=m).features
        z0, z_mask = slots_graph(params, [labels], m, slot_seed=m)
        taped = cst_graph(params, *pad_stack([x.features]), z0, z_mask)
        assert taped.parents is not None
        assert np.array_equal(got, taped.values[0])
        assert np.array_equal(got, complete_batch([x], [labels], params, slot_seed=m)[0])
        if params.conditioned:  # the lookup rows as an explicit condition set
            assert np.array_equal(got, cst_forward(x, embed_conditions(labels, params.embedding), params).features)


def test_complete_batch_rejects_bad_inputs(rng):
    params = build_variant("CR", CONFIG, seed=13)
    x = random_set(rng, 3)
    with pytest.raises(ValueError):
        complete_batch([x], [[]], params)
    with pytest.raises(ValueError):
        complete_batch([x, x], [[0]], params)
    with pytest.raises(ValueError):
        complete_batch([random_set(rng, 3, dim=8)], [[0]], params)
    with pytest.raises(ValueError):
        complete_batch([x], [[6]], params)


BATCH_PARAMS = {tag: build_variant(tag, CONFIG, seed=14) for tag in ("CR", "Cx")}
_ROWS = np.random.default_rng(14).standard_normal((60, 16))
BATCH_INDEX = build_index_from_rows(_ROWS / np.linalg.norm(_ROWS, axis=1, keepdims=True), np.arange(60) % 6)


@settings(max_examples=30, deadline=None)
@given(
    tag=hst.sampled_from(["CR", "Cx"]),
    shapes=hst.lists(hst.tuples(hst.integers(1, 7), hst.integers(1, 5)), min_size=1, max_size=6),
    seed=hst.integers(0, 2**32 - 1),
)
def test_complete_batch_matches_per_query_calls(tag, shapes, seed):
    """Padding a query into a batch may move the last bit, never the top-1 item."""
    params = BATCH_PARAMS[tag]
    rng = np.random.default_rng(seed)
    xs = [random_set(rng, n) for n, _ in shapes]
    labels = [rng.integers(0, 6, size=m) for _, m in shapes]
    batched = complete_batch(xs, labels, params)
    for x, lab, rows in zip(xs, labels, batched):
        single = complete_features(x, lab, params).features
        assert rows.shape == single.shape
        assert np.max(np.abs(rows - single)) <= 1e-12
        assert np.array_equal(top1_ids(BATCH_INDEX, rows), top1_ids(BATCH_INDEX, single))


PAD_PARAMS = {tag: build_variant(tag, CONFIG, seed=15) for tag in ("CR", "Cx", "xx")}


@settings(max_examples=40, deadline=None)
@given(
    tag=hst.sampled_from(["CR", "Cx", "xx"]),
    shapes=hst.lists(hst.tuples(hst.integers(1, 6), hst.integers(1, 5)), min_size=1, max_size=5),
    extra=hst.integers(0, 2),
    log_scale=hst.integers(-3, 3),
    seed=hst.integers(0, 2**32 - 1),
)
def test_padded_slot_rows_reach_no_output_and_no_gradient(tag, shapes, extra, log_scale, seed):
    """Whatever finite values the padded slot rows hold, slots_graph's own
    (lookup row 0 or noise) among them, cst_graph's output and every
    parameter gradient equal those with zeroed padding rows."""
    params = PAD_PARAMS[tag]
    rng = np.random.default_rng(seed)
    x_pad, x_mask = pad_stack([rng.standard_normal((n, 16)) for n, _ in shapes])
    labels = [rng.integers(0, 6, size=m) for _, m in shapes]
    width = max(m for _, m in shapes) + extra
    weights = rng.standard_normal((len(shapes), width, 16))
    fill = 10.0**log_scale * rng.standard_normal(weights.shape)

    def run(padding):
        z0, z_mask = slots_graph(params, labels, width, slot_seed=seed)
        if padding is not None:
            valid = z_mask[:, :, None]
            z0 = ad.add(ad.mul(z0, ad.const(valid)), ad.const(padding * (1.0 - valid)))
        out = cst_graph(params, x_pad, x_mask, z0, z_mask)
        _, grads = ad.eval_and_grad(ad.Graph(ad.tsum(ad.mul(out, ad.const(weights)))), params.store)
        return out.values, grads

    zeroed_out, zeroed_grads = run(np.zeros_like(fill))
    for out, grads in (run(fill), run(None)):
        assert np.array_equal(out, zeroed_out)
        assert all(np.array_equal(grads[name], g) for name, g in zeroed_grads.items())


def test_complete_ids_takes_each_row_nearest_item_within_its_label(rng):
    x = random_set(rng, 3)
    labels = [4, 1, 1, 0]
    for params in (BATCH_PARAMS["CR"], build_variant("xR", CONFIG, seed=14)):
        (rows,) = complete_batch([x], [labels], params, slot_seed=2)
        ids = complete_ids(x, labels, params, BATCH_INDEX, slot_seed=2)
        assert ids == [BATCH_INDEX.query_knn(r, 1, category_filter=c)[0][0] for r, c in zip(rows, labels)]
        assert BATCH_INDEX.categories_of(ids).tolist() == labels
    st = build_variant("st", CONFIG, seed=14)
    assert complete_ids(x, labels, st, BATCH_INDEX) == st_sequential_complete(x, labels, st, BATCH_INDEX)


def test_every_variant_refuses_a_label_outside_the_embedding_table(rng):
    # the index holds items of categories -1 and 6, so only the table's range can refuse them
    cats = BATCH_INDEX.categories.copy()
    cats[cats == 0], cats[cats == 5] = -1, CONFIG.categories
    index = build_index(Catalog(BATCH_INDEX.ids, cats, BATCH_INDEX.features))
    x = random_set(rng, 3)
    st = build_variant("st", CONFIG, seed=14)
    for params in (BATCH_PARAMS["CR"], st):
        for label in (-1, CONFIG.categories):
            with pytest.raises(ValueError, match="^category id outside the embedding table$"):
                complete_ids(x, [1, label], params, index)
    for label in (-1, CONFIG.categories, np.int64(-1)):
        with pytest.raises(ValueError, match="^category id outside the embedding table$"):
            st_encode(x, label, st)


def test_complete_ids_names_the_label_no_indexed_item_has(rng):
    # without clustering the label has no list; a clustered index reads it through its category order
    keep = BATCH_INDEX.categories != 5
    catalog = Catalog(BATCH_INDEX.ids[keep], BATCH_INDEX.categories[keep], BATCH_INDEX.features[keep])
    x = random_set(rng, 3)
    for index in (build_index(catalog), build_index(catalog, AnnConfig(clusters=4, probes=2))):
        for params in (BATCH_PARAMS["CR"], build_variant("st", CONFIG, seed=14)):
            with pytest.raises(ValueError, match="^no indexed item has category 5$"):
                complete_ids(x, [1, np.int64(5), 0], params, index)
