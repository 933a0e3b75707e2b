import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from setcomplete import evaluation, kernels, retrieval
from setcomplete.data import Catalog, GenConfig, SplitTriple, generate_dataset
from setcomplete.serialize import load_arrays, save_arrays
from setcomplete.retrieval import (
    GROUP_ROWS, MAX_POINTS_PER_CENTROID, AnnConfig, RetrievalIndex, build_index,
)
from setcomplete.sets import FeatureSet, l2_rows


def make_catalog(rng, n=100, dim=8, categories=5):
    feats = l2_rows(rng.standard_normal((n, dim)))
    return Catalog(np.arange(n), np.arange(n) % categories, feats)


def brute_force(index, query, k):
    sims = index.features @ query
    order = np.lexsort((index.ids, -sims))[:k]
    return [(int(index.ids[i]), float(sims[i])) for i in order]


def test_self_retrieval(rng):
    index = build_index(make_catalog(rng))
    row = 17
    out = index.query_knn(index.features[row], k=1)
    assert out[0][0] == int(index.ids[row])


def test_exact_matches_linear_scan_on_200_queries(rng):
    index = build_index(make_catalog(rng, n=400))
    queries = l2_rows(rng.standard_normal((200, 8)))
    for q in queries:
        assert index.query_knn(q, k=10) == brute_force(index, q, 10)


def test_duplicate_features_tie_break_ascending_id(rng):
    feat = l2_rows(rng.standard_normal((1, 4)))[0]
    index = build_index(Catalog([9, 3, 27, 1], [0, 0, 0, 0], np.tile(feat, (4, 1))))
    out = index.query_knn(feat, k=4)
    assert [i for i, _ in out] == [1, 3, 9, 27]


def test_category_filter_restricts_pool(rng):
    index = build_index(make_catalog(rng))
    q = l2_rows(rng.standard_normal((1, 8)))[0]
    out = index.query_knn(q, k=50, category_filter=2)
    ids = [i for i, _ in out]
    assert all(i % 5 == 2 for i in ids)
    assert len(out) == 20


def test_k_larger_than_pool_truncates(rng):
    index = build_index(make_catalog(rng, n=30))
    q = l2_rows(rng.standard_normal((1, 8)))[0]
    assert len(index.query_knn(q, k=1000)) == 30


def test_empty_pool_is_an_error(rng):
    index = build_index(make_catalog(rng))
    q = l2_rows(rng.standard_normal((1, 8)))[0]
    # a fractional or string filter is rejected, not truncated to category 2
    for category_filter in (99, 2.7, np.float64(2.0), "2"):
        with pytest.raises(ValueError, match="category") as err:
            index.query_knn(q, k=1, category_filter=category_filter)
        assert "\n" not in str(err.value)
        with pytest.raises(ValueError, match="category") as err:
            index.ranked_ids(np.stack([q, q]), 1, category_filters=[2, category_filter])
        assert "\n" not in str(err.value)
    with pytest.raises(ValueError, match="^1 category filters for 2 query rows$"):
        index.ranked_ids(np.stack([q, q]), 1, category_filters=[2])
    assert index.query_knn(q, k=1, category_filter=np.int32(2)) == index.query_knn(q, k=1, category_filter=2)


def test_invalid_k_rejected(rng):
    index = build_index(make_catalog(rng))
    for k in (0, -3, 2.5, "3", None):
        with pytest.raises(ValueError, match="^k ") as err:
            index.query_knn(index.features[0], k=k)
        assert "\n" not in str(err.value)
        with pytest.raises(ValueError, match="^k ") as err:
            index.ranked_ids(index.features[:2], k=k)
        assert "\n" not in str(err.value)
    assert index.query_knn(index.features[0], k=np.int64(3)) == index.query_knn(index.features[0], k=3)


def test_singleton_clusters_equal_exact(rng):
    catalog = make_catalog(rng, n=60)
    index = build_index(catalog, AnnConfig(clusters=60, probes=60, iters=4, seed=0))
    queries = l2_rows(rng.standard_normal((40, 8)))
    for q in queries:
        assert index.query_knn(q, k=8, mode="approx") == index.query_knn(q, k=8, mode="exact")


def test_more_clusters_than_items_rejected(rng):
    with pytest.raises(ValueError):
        build_index(make_catalog(rng, n=10), AnnConfig(clusters=64))


def test_approx_recall_monotone_in_probes():
    catalog, _ = generate_dataset(GenConfig(categories=6, styles=4, catalog_size=600, outfits=10, dim=16, min_size=3, max_size=5, seed=2))
    rng = np.random.default_rng(5)
    queries = l2_rows(rng.standard_normal((50, 16)))
    exact = build_index(catalog)
    recalls = []
    for probes in (1, 4, 16):
        index = build_index(catalog, AnnConfig(clusters=16, probes=probes, iters=10, seed=0))
        hits = 0
        for q in queries:
            want = {i for i, _ in exact.query_knn(q, k=16)}
            got = {i for i, _ in index.query_knn(q, k=16, mode="approx")}
            hits += len(want & got)
        recalls.append(hits / (50 * 16))
    assert recalls[0] <= recalls[1] <= recalls[2]
    assert recalls[2] > 0.99


def test_save_load_roundtrip_bitwise(rng, tmp_path):
    catalog = make_catalog(rng, n=80)
    index = build_index(catalog, AnnConfig(clusters=8, probes=4, iters=5, seed=3))
    path = tmp_path / "index.bin"
    index.save(path)
    loaded = RetrievalIndex.load(path)
    assert np.array_equal(loaded.ids, index.ids)
    assert np.array_equal(loaded.features, index.features)
    assert np.array_equal(loaded.categories, index.categories)
    assert np.array_equal(loaded.centroids, index.centroids)
    assert np.array_equal(loaded.assignments, index.assignments)
    assert loaded.ann.probes == 4
    q = l2_rows(rng.standard_normal((1, 8)))[0]
    assert loaded.query_knn(q, k=5, mode="approx") == index.query_knn(q, k=5, mode="approx")
    index.save(path)
    again = path.read_bytes()
    index.save(path)
    assert path.read_bytes() == again


def test_features_of_returns_aligned_rows(rng):
    index = build_index(make_catalog(rng, n=50))
    ids = [int(index.ids[7]), int(index.ids[3])]
    rows = index.features_of(ids)
    assert np.array_equal(rows[0], index.features[7])
    assert np.array_equal(rows[1], index.features[3])


def test_feature_of_unknown_id_raises_key_error(rng):
    index = build_index(make_catalog(rng, n=50))
    for missing in (-1, 50, 10**9):
        with pytest.raises(KeyError):
            index.features_of(missing)
        with pytest.raises(KeyError):
            index.features_of([3, missing])
    assert np.array_equal(index.features_of(49), index.features[49])
    assert index.features_of([]).shape == (0, 8)


def test_duplicate_ids_rejected(rng):
    feats = l2_rows(rng.standard_normal((2, 4)))
    with pytest.raises(ValueError):
        RetrievalIndex(np.array([1, 1]), feats, np.array([0, 0]))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 120),
    distinct=st.integers(1, 4),
    k=st.integers(1, 130),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_matches_linear_scan_with_duplicate_rows(n, distinct, k, seed):
    rng = np.random.default_rng(seed)
    pool = l2_rows(rng.standard_normal((distinct, 6)))
    feats = pool[rng.integers(0, distinct, size=n)]
    ids = rng.permutation(5 * n)[:n]
    index = RetrievalIndex(ids, feats, ids % 3)
    for q in np.vstack([pool, l2_rows(rng.standard_normal((2, 6)))]):
        assert index.query_knn(q, k=k) == brute_force(index, q, k)


@settings(max_examples=15, deadline=None)
@given(
    clusters=st.integers(1, 12),
    probes=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_save_load_keeps_approx_results(tmp_path_factory, clusters, probes, seed):
    rng = np.random.default_rng(seed)
    index = build_index(make_catalog(rng, n=60), AnnConfig(clusters=clusters, probes=probes, iters=3, seed=seed % 97))
    path = tmp_path_factory.mktemp("ivf") / "index.bin"
    index.save(path)
    loaded = RetrievalIndex.load(path)
    for q in l2_rows(rng.standard_normal((5, 8))):
        assert loaded.query_knn(q, k=7, mode="approx") == index.query_knn(q, k=7, mode="approx")


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 150),
    categories=st.integers(1, 8),
    clusters=st.integers(1, 12),
    probes=st.integers(1, 12),
    k=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_filtered_approx_returns_min_k_hits_of_the_category(n, categories, clusters, probes, k, seed):
    rng = np.random.default_rng(seed)
    clusters = min(clusters, n)
    feats = l2_rows(rng.standard_normal((n, 6)))
    ids = rng.permutation(4 * n)[:n]
    cats = rng.integers(0, categories, size=n)
    index = RetrievalIndex(ids, feats, cats, ann=AnnConfig(clusters=clusters, probes=probes, iters=3, seed=seed % 97))
    every = RetrievalIndex(index.ids, index.features, index.categories,
                           ann=AnnConfig(clusters=clusters, probes=clusters),
                           centroids=index.centroids, assignments=index.assignments)
    category_of = dict(zip(ids.tolist(), cats.tolist()))
    for q in l2_rows(rng.standard_normal((3, 6))):
        for cat in np.unique(cats):
            hits = index.query_knn(q, k, category_filter=cat, mode="approx")
            assert all(category_of[i] == cat for i, _ in hits)
            assert len(hits) == min(k, int((cats == cat).sum()))
            full = every.query_knn(q, k, category_filter=cat, mode="approx")
            exact = index.query_knn(q, k, category_filter=cat, mode="exact")
            # both rescore the same rows through _rescore: the same ids and bits
            assert full == exact


def _drop(name):
    return lambda arrays, meta: arrays.pop(name)


def _cut_assignments(arrays, meta):
    arrays["assignments"] = arrays["assignments"][:150]


def _stray_cluster(arrays, meta):
    arrays["assignments"][0] = 99


def _narrow_centroids(arrays, meta):
    arrays["centroids"] = arrays["centroids"][:, :4].copy()


def _unknown_ann_key(arrays, meta):
    meta["ann"]["depth"] = 3


def _fractional_ids(arrays, meta):
    arrays["ids"] = arrays["ids"] + 0.5


def _huge_id(arrays, meta):
    arrays["ids"] = arrays["ids"].astype(np.float64)
    arrays["ids"][-1] = 1e30


def _float_categories(arrays, meta):
    arrays["categories"] = arrays["categories"].astype(np.float64)


@pytest.mark.parametrize("edit, field", [
    (_cut_assignments, "assignments"),
    (_stray_cluster, "assignments"),
    (_drop("centroids"), "centroids"),
    (_narrow_centroids, "centroids"),
    (_drop("features"), "features"),
    (_unknown_ann_key, "depth"),
    (_fractional_ids, "ids"),
    (_huge_id, "ids"),
    (_float_categories, "categories"),
], ids=["assignments-cut", "assignments-out-of-range", "centroids-missing", "centroids-width",
        "features-missing", "ann-unknown-key", "ids-fractional", "ids-huge", "categories-float"])
def test_load_rejects_malformed_index(rng, tmp_path, edit, field):
    path = tmp_path / "index.bin"
    build_index(make_catalog(rng, n=200), AnnConfig(clusters=8, probes=2, iters=2, seed=0)).save(path)
    arrays, meta = load_arrays(path)
    edit(arrays, meta)
    save_arrays(path, arrays, meta)
    with pytest.raises(ValueError, match=field) as err:
        RetrievalIndex.load(path)
    assert str(path) in str(err.value)
    assert "\n" not in str(err.value)


TOGETHER = "centroids and assignments come together, with an AnnConfig"
ASSIGNMENTS = "field 'assignments' must hold one cluster id in [0, 2) per item"


@pytest.mark.parametrize("change, message", [
    ({"assignments": None}, TOGETHER),
    ({"centroids": None}, TOGETHER),
    ({"ann": None}, TOGETHER),
    ({"ann": None, "assignments": None}, TOGETHER),
    ({"ann": None, "centroids": None}, TOGETHER),
    ({"centroids": np.eye(4)[:3]}, "field 'centroids' has shape (3, 4), expected (2, 4)"),
    ({"centroids": np.eye(3)[:2]}, "field 'centroids' has shape (2, 3), expected (2, 4)"),
    ({"assignments": [0, 1, 0, 1, 0, 2]}, ASSIGNMENTS),
    ({"assignments": [0, 1, 0, 1, 0, -1]}, ASSIGNMENTS),
    ({"assignments": [0, 1, 0, 1, 0]}, ASSIGNMENTS),
], ids=["centroids-alone", "assignments-alone", "no-ann", "centroids-without-ann", "assignments-without-ann",
        "centroids-three", "centroids-width", "assignments-out-of-range", "assignments-negative", "assignments-cut"])
def test_constructor_rejects_a_bad_clustering(rng, change, message):
    # each used to be accepted, ignored, or to fail later inside a query
    feats = l2_rows(rng.standard_normal((6, 4)))
    args = {"ann": AnnConfig(clusters=2, probes=1), "centroids": np.eye(4)[:2], "assignments": [0, 1, 0, 1, 0, 1]}
    index = RetrievalIndex(np.arange(6), feats, np.arange(6) % 3, **args)
    assert len(index.query_knn(feats[0], 6, mode="approx")) == 6
    with pytest.raises(ValueError) as err:
        RetrievalIndex(np.arange(6), feats, np.arange(6) % 3, **{**args, **change})
    assert str(err.value) == message


def probed_reference(index, query, k, category_filter=None):
    """Approximate hits recomputed from the id-ordered rows and the assignments."""
    full = index.features @ query
    centroid_sims = index.centroids @ query
    order = np.lexsort((np.arange(len(centroid_sims)), -centroid_sims))
    wanted = np.ones(len(index.ids), dtype=bool) if category_filter is None else index.categories == category_filter
    found = np.cumsum([np.sum(wanted & (index.assignments == c)) for c in order])
    probes = max(index.ann.probes, int(np.searchsorted(found, min(k, found[-1]))) + 1)
    rows = np.flatnonzero(wanted & np.isin(index.assignments, order[:probes]))
    pick = np.lexsort((index.ids[rows], -full[rows]))[:k]
    return [(int(index.ids[rows[p]]), float(full[rows[p]])) for p in pick]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 150),
    dim=st.sampled_from([3, 8, 32]),
    clusters=st.integers(1, 12),
    probes=st.integers(1, 12),
    k=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_approx_hits_score_bitwise_as_a_full_scan(n, dim, clusters, probes, k, seed):
    # random assignments give odd cluster sizes and, with few items, empty clusters;
    # category 3 lives in cluster 0 only
    rng = np.random.default_rng(seed)
    ids = rng.permutation(3 * n)[:n]
    assignments = rng.integers(0, clusters, size=n)
    cats = rng.integers(0, 3, size=n)
    cats[assignments == 0] = rng.choice([0, 1, 3], size=int(np.sum(assignments == 0)))
    index = RetrievalIndex(ids, l2_rows(rng.standard_normal((n, dim))), cats,
                           ann=AnnConfig(clusters=clusters, probes=probes),
                           centroids=l2_rows(rng.standard_normal((clusters, dim))), assignments=assignments)
    for q in l2_rows(rng.standard_normal((3, dim))):
        full = dict(zip(index.ids.tolist(), (index.features @ q).tolist()))
        hits = index.query_knn(q, k, mode="approx")
        assert hits == probed_reference(index, q, k)
        for cat in np.unique(cats):
            filtered = index.query_knn(q, k, category_filter=cat, mode="approx")
            assert filtered == probed_reference(index, q, k, cat)
            hits = hits + filtered
        assert all(s == full[i] for i, s in hits)


def test_empty_cluster_is_probed_as_an_empty_list(rng):
    feats = l2_rows(rng.standard_normal((41, 8)))
    assignments = np.arange(41) % 4  # cluster 4 is left empty
    query = l2_rows(rng.standard_normal((1, 8)))[0]
    centroids = l2_rows(rng.standard_normal((5, 8)))
    centroids[4] = query  # the empty cluster is the nearest
    index = RetrievalIndex(np.arange(41), feats, np.arange(41) % 3, ann=AnnConfig(clusters=5, probes=2),
                           centroids=centroids, assignments=assignments)
    hits = index.query_knn(query, 10, mode="approx")
    assert hits == probed_reference(index, query, 10)
    assert len({int(a) for a in assignments[[i for i, _ in hits]]}) == 1
    assert index.query_knn(query, 10, category_filter=1, mode="approx") == probed_reference(index, query, 10, 1)


def test_load_after_save_derives_identical_inverted_lists(rng, tmp_path):
    ids = rng.permutation(300)[:97]
    index = RetrievalIndex(ids, l2_rows(rng.standard_normal((97, 8))), ids % 4,
                           ann=AnnConfig(clusters=6, probes=2, iters=3, seed=1))
    index.save(tmp_path / "index.bin")
    loaded = RetrievalIndex.load(tmp_path / "index.bin")
    for name in ("_bounds", "_list_rows", "_list_f32"):
        assert np.array_equal(getattr(loaded, name), getattr(index, name)), name


def scan_reference(index, query, k, category_filter=None):
    """Exact hits by a lexsort over ``features @ query`` restricted to the category."""
    rows = np.arange(len(index.ids)) if category_filter is None else np.flatnonzero(index.categories == category_filter)
    full = index.features @ query
    pick = np.lexsort((index.ids[rows], -full[rows]))[:k]
    return [(int(index.ids[rows[p]]), float(full[rows[p]])) for p in pick]


def assert_same_hits(got, want):
    """Same ids in the same order and bitwise the same similarities (NaN matches NaN)."""
    assert [i for i, _ in got] == [i for i, _ in want]
    g, w = np.array([s for _, s in got], dtype=np.float64), np.array([s for _, s in want], dtype=np.float64)
    assert np.array_equal(np.isnan(g), np.isnan(w))
    assert np.array_equal(g[~np.isnan(g)].view(np.uint64), w[~np.isnan(w)].view(np.uint64))


def adversarial_rows(rng, n, dim, scale):
    """Rows with exact duplicates, neighbours 1 ulp apart and norms spread over `scale`."""
    pool = l2_rows(rng.standard_normal((max(1, n // 3), dim))) * scale ** rng.uniform(-1.0, 1.0, size=(max(1, n // 3), 1))
    feats = pool[rng.integers(0, len(pool), size=n)]
    nudge = rng.random(n) < 0.3
    feats[nudge] = np.nextafter(feats[nudge], np.inf)
    return feats


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 60),
    dim=st.sampled_from([3, 8, 32]),
    rows=st.integers(1, 20),
    log_scale=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=5, dim=8, rows=8, log_scale=0, seed=0)
@example(n=5, dim=8, rows=9, log_scale=0, seed=0)
def test_top1_ids_ranks_few_rows_with_query_knn_and_more_with_one_product(n, dim, rows, log_scale, seed):
    # repeated items and items 1 ulp apart make exact and near ties; half the
    # queries are indexed rows, so their best score is tied by any duplicate
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    index = RetrievalIndex(rng.permutation(3 * n)[:n], adversarial_rows(rng, n, dim, scale), rng.integers(0, 3, size=n))
    queries = np.concatenate([index.features[rng.integers(0, n, size=rows // 2)],
                              adversarial_rows(rng, rows - rows // 2, dim, scale)])
    for block_scores in (retrieval.RANK_BLOCK_SCORES, 2 * n):  # one block, and blocks of 2 rows
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(retrieval, "RANK_BLOCK_SCORES", block_scores)
            got = evaluation.top1_ids(index, queries)
        assert got.tolist() == [index.query_knn(q, 1)[0][0] for q in queries]
        assert got.tolist() == [evaluation.top1_ids(index, q[None])[0] for q in queries]


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 120),
    dim=st.sampled_from([3, 8, 32]),
    clusters=st.integers(0, 6),
    rows=st.integers(1, 12),
    k=st.integers(1, 40),
    filtered=st.sampled_from(["none", "one", "mixed"]),
    log_scale=st.integers(0, 10),
    special=st.sampled_from(["none", "nan_row", "inf_query", "nan_query"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=40, dim=8, clusters=4, rows=12, k=1, filtered="mixed", log_scale=0, special="none", seed=0)
def test_ranked_ids_equal_the_ids_of_each_rows_query_knn(n, dim, clusters, rows, k, filtered, log_scale, special, seed):
    # rows repeat or sit 1 ulp apart, queries copy indexed rows, filters repeat
    # and mix with unfiltered rows, k runs past small pools; a NaN row or a
    # non-finite query leaves no margin
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    feats = adversarial_rows(rng, n, dim, scale)
    if special == "nan_row":
        feats[rng.integers(0, n)] = np.nan
    cats = rng.integers(0, 3, size=n)
    clusters = min(clusters, n)
    ivf = {} if clusters == 0 else {"ann": AnnConfig(clusters=clusters), "assignments": rng.integers(0, clusters, size=n),
                                    "centroids": l2_rows(rng.standard_normal((clusters, dim)))}
    index = RetrievalIndex(rng.permutation(3 * n)[:n], feats, cats, **ivf)
    queries = np.concatenate([index.features[rng.integers(0, n, size=rows // 2)],
                              adversarial_rows(rng, rows - rows // 2, dim, scale)])
    if special == "inf_query":
        queries[-1][0] = np.inf
    elif special == "nan_query":
        queries[-1][-1] = np.nan
    present = np.unique(cats).tolist()
    filters = {"none": None, "one": [present[-1]] * rows,
               "mixed": [None if c < 0 else present[c] for c in rng.integers(-1, len(present), size=rows)]}[filtered]
    want = [[i for i, _ in index.query_knn(q, k, category_filter=None if filters is None else filters[r])]
            for r, q in enumerate(queries)]
    for patched in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if patched:  # blocks of 2 rows, the sampled cut and one product per span
                mp.setattr(retrieval, "RANK_BLOCK_SCORES", 2 * n)
                mp.setattr(kernels, "SCREEN_SAMPLE_MIN", 0)
                mp.setattr(retrieval, "GATHER_SPAN_ROWS", 0)
            assert index.ranked_ids(queries, k, filters) == want


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 60),
    dim=st.sampled_from([3, 8, 32]),
    k=st.integers(1, 70),
    seed=st.integers(0, 2**32 - 1),
)
def test_recall_at_k_equals_the_recall_of_query_knn_sets(n, dim, k, seed):
    rng = np.random.default_rng(seed)
    index = RetrievalIndex(rng.permutation(3 * n)[:n], adversarial_rows(rng, n, dim, 1.0), rng.integers(0, 3, size=n))
    triples, preds, want = [], [], []
    for _ in range(5):
        size = int(rng.integers(1, 8))
        targets = rng.choice(n, size=min(size, n - 1), replace=False)
        truth = index.ids[targets]
        # one output copies a target's row, so the target's duplicates tie with it
        yhat = np.concatenate([index.features[targets[:1]], adversarial_rows(rng, len(targets) - 1, dim, 1.0)])
        triples.append(SplitTriple(FeatureSet(rng.standard_normal((1, dim))), FeatureSet(yhat, element_ids=truth),
                                   np.zeros(len(targets))))
        preds.append(yhat)
        found = {i for q in yhat for i, _ in index.query_knn(q, k)}
        want.append(len(found & set(truth.tolist())) / len(truth))
    assert evaluation.recall_at_k(preds, triples, index, k=k) == float(np.mean(want))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 150),
    dim=st.sampled_from([3, 8, 32]),
    log_scale=st.integers(0, 10),
    special=st.sampled_from(["none", "nan_row", "inf_query", "nan_query"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_first_id_of_every_query_knn_ranking_is_its_top_1(n, dim, log_scale, special, seed):
    # the evaluation metrics read each row's top-1 item as the first of its top-k ranking
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    feats = adversarial_rows(rng, n, dim, scale)
    if special == "nan_row":
        feats[rng.integers(0, n)] = np.nan
    index = RetrievalIndex(rng.permutation(3 * n)[:n], feats, rng.integers(0, 3, size=n))
    queries = np.concatenate([index.features[rng.integers(0, n, size=2)], adversarial_rows(rng, 2, dim, scale)])
    if special == "inf_query":
        queries[-1][0] = np.inf
    elif special == "nan_query":
        queries[-1][-1] = np.nan
    for q in queries:
        top1 = index.query_knn(q, 1)[0][0]
        assert [index.query_knn(q, k)[0][0] for k in range(1, 65)] == [top1] * 64


def test_query_knn_names_a_query_of_the_wrong_length(rng):
    index = build_index(make_catalog(rng, dim=8))
    for query in (np.ones(16), np.ones(4), np.ones((1, 8)), np.float64(1.0)):
        with pytest.raises(ValueError) as err:
            index.query_knn(query, 1)
        assert str(err.value) == f"query has shape {np.shape(query)}, expected (8,)"
    for queries in (np.ones(8), np.ones((2, 4)), np.ones((1, 1, 8))):
        with pytest.raises(ValueError) as err:
            index.ranked_ids(queries, 1)
        assert str(err.value) == f"query has shape {np.shape(queries)[1:]}, expected (8,)"
    assert index.ranked_ids(np.ones((0, 8)), 1) == []


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 150),
    dim=st.sampled_from([3, 8, 32, 100]),
    clusters=st.integers(1, 8),
    probes=st.integers(1, 8),
    k=st.integers(1, 80),
    log_scale=st.integers(0, 10),
    special=st.sampled_from(["none", "nan_row", "inf_query", "nan_query"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_two_pass_search_equals_the_float64_lexsort_oracle(n, dim, clusters, probes, k, log_scale, special, seed):
    # N % 4 takes every value, rows repeat or sit 1 ulp apart, norms run from
    # 1e-10 to 1e10; a NaN row or a non-finite query leaves no float32 margin
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    feats = adversarial_rows(rng, n, dim, scale)
    if special == "nan_row":
        feats[rng.integers(0, n)] = np.nan
    ids = rng.permutation(3 * n)[:n]
    cats = rng.integers(0, 3, size=n)
    clusters = min(clusters, n)
    index = RetrievalIndex(ids, feats, cats, ann=AnnConfig(clusters=clusters, probes=probes),
                           centroids=l2_rows(rng.standard_normal((clusters, dim))),
                           assignments=rng.integers(0, clusters, size=n))
    queries = [index.features[rng.integers(0, n)], adversarial_rows(rng, 1, dim, scale)[0]]
    if special == "inf_query":
        queries[1][0] = np.inf
    elif special == "nan_query":
        queries[1][-1] = np.nan
    for patched in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if patched:  # the sampled cut and one product per span, which these sizes do not reach
                mp.setattr(kernels, "SCREEN_SAMPLE_MIN", 0)
                mp.setattr(retrieval, "GATHER_SPAN_ROWS", 0)
            for q in queries:
                assert_same_hits(index.query_knn(q, k), scan_reference(index, q, k))
                assert_same_hits(index.query_knn(q, k, mode="approx"), probed_reference(index, q, k))
                for cat in np.unique(cats):
                    assert_same_hits(index.query_knn(q, k, category_filter=cat), scan_reference(index, q, k, cat))
                    assert_same_hits(index.query_knn(q, k, category_filter=cat, mode="approx"),
                                     probed_reference(index, q, k, cat))
                assert_same_hits(index.query_knn(q, n + k), scan_reference(index, q, n + k))


@pytest.mark.parametrize("dim", [3, 8, 32, 100])
def test_rescoring_padded_row_groups_reproduces_the_full_scan(dim):
    # Rescoring relies on BLAS's dgemv scoring each row of a product padded to
    # whole GROUP_ROWS-row groups exactly as in the full `features @ query`,
    # tail rows aside. A BLAS that breaks this must fail here, not in a ranking.
    rng = np.random.default_rng(dim)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 1001, 1002, 1003, 1004):
        feats = rng.standard_normal((n, dim))
        index = RetrievalIndex(np.arange(n), feats, np.zeros(n, dtype=np.int64))
        for q in rng.standard_normal((3, dim)):
            full = feats @ q
            for ids in (index.ids, rng.permutation(n), rng.choice(n, size=rng.integers(1, n + 1), replace=False)):
                got = index._rescore(ids, q)
                bad = int(np.sum(got.view(np.uint64) != full[ids].view(np.uint64)))
                assert bad == 0, (f"{blas['name']} {blas['version']}: rescoring rows padded to groups of {GROUP_ROWS} "
                                  f"differs from features @ q on {bad} of {len(ids)} rows (N={n}, D={dim})")


def test_rescoring_a_tail_row_with_a_non_finite_query_raises_no_warning():
    # the last N % 4 rows are rescored by a second product; inf * 0 there must
    # be as quiet as in the main one
    feats = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8], [0.8, 0.6], [0.0, 1.0]])
    index = RetrievalIndex(np.arange(5), feats, np.zeros(5, dtype=np.int64))
    query = np.array([np.inf, 1.0])
    with np.errstate(invalid="ignore"):
        want = scan_reference(index, query, 2)
    assert_same_hits(index.query_knn(query, 2), want)


def kmeans_reference(features, config):
    """k-means as every index was built before the sample cap: a mask per cluster and update."""
    rng = np.random.default_rng(config.seed)
    start = rng.choice(features.shape[0], size=config.clusters, replace=False)
    centroids = features[np.sort(start)].copy()
    labels = kernels.assign_nearest(features, centroids)
    for _ in range(config.iters):
        for c in range(config.clusters):
            members = features[labels == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
        centroids = l2_rows(centroids)
        labels = kernels.assign_nearest(features, centroids)
    return centroids, labels


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 700),
    distinct=st.integers(1, 700),
    clusters=st.integers(1, 12),
    iters=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=200, distinct=4, clusters=6, iters=4, seed=0)  # 4 distinct rows leave 2 of 6 clusters empty
def test_kmeans_at_or_below_the_cap_equals_the_mask_loop_bitwise(n, distinct, clusters, iters, seed):
    # few distinct rows repeat, so centroids tie and clusters can be left empty
    rng = np.random.default_rng(seed)
    clusters = min(clusters, n)
    n = min(n, MAX_POINTS_PER_CENTROID * clusters)
    pool = l2_rows(rng.standard_normal((min(distinct, n), 8)))
    feats = pool[rng.integers(0, len(pool), size=n)]
    config = AnnConfig(clusters=clusters, iters=iters, seed=int(seed % 1000))
    got, want = retrieval._kmeans(feats, config), kmeans_reference(feats, config)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_kmeans_above_the_cap_trains_on_a_sample_and_labels_every_row(rng, tmp_path, monkeypatch):
    catalog = make_catalog(rng, n=600, dim=8, categories=3)  # the cap is 512 rows at 2 clusters
    ann = AnnConfig(clusters=2, probes=2, iters=5, seed=4)
    sizes, assign = [], kernels.assign_nearest

    def counting_assign(feats, centroids):
        sizes.append(len(feats))
        return assign(feats, centroids)

    monkeypatch.setattr(kernels, "assign_nearest", counting_assign)
    index = build_index(catalog, ann)
    assert sizes == [2 * MAX_POINTS_PER_CENTROID] * ann.iters + [600]
    assert np.array_equal(index.assignments, assign(index.features, index.centroids))
    index.save(tmp_path / "a.idx")
    build_index(catalog, ann).save(tmp_path / "b.idx")
    assert (tmp_path / "a.idx").read_bytes() == (tmp_path / "b.idx").read_bytes()
    for q in l2_rows(rng.standard_normal((20, 8))):  # probing every cluster is exact search
        assert index.query_knn(q, 10, mode="approx") == index.query_knn(q, 10)
        assert index.query_knn(q, 10, category_filter=1, mode="approx") == index.query_knn(q, 10, category_filter=1)


def test_sampled_kmeans_keeps_approx_recall_over_50k_items():
    # gate 05's queries and bound, at a size where k-means trains on a sample
    catalog, _ = generate_dataset(GenConfig(catalog_size=50000, outfits=0, seed=0))
    assert len(catalog) > MAX_POINTS_PER_CENTROID * AnnConfig().clusters
    exact, approx = build_index(catalog), build_index(catalog, AnnConfig())
    rng = np.random.default_rng(17)
    rows = rng.integers(0, len(exact), size=200)
    queries = l2_rows(exact.features[rows] + 0.1 * rng.standard_normal((200, exact.dim)))
    recalls = [len({i for i, _ in exact.query_knn(q, 32)} & {i for i, _ in approx.query_knn(q, 32, mode="approx")}) / 32
               for q in queries]
    assert np.mean(recalls) >= 0.95
