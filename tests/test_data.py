import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from setcomplete.data import (
    Catalog,
    GenConfig,
    Outfit,
    SplitTriple,
    _choice_without_replacement,
    category_weights,
    generate_dataset,
    integers_below,
    items_in,
    read_catalog_jsonl,
    read_jsonl,
    split_of,
    split_outfit,
    split_outfits,
    splitmix64,
    triples_for,
    write_catalog_jsonl,
    write_jsonl,
)
from setcomplete.retrieval import AnnConfig, RetrievalIndex, build_index
from setcomplete.sets import FeatureSet, l2_rows

SMALL = GenConfig(categories=5, styles=3, catalog_size=120, outfits=200, dim=8, min_size=3, max_size=5, seed=4)


def test_generation_is_bitwise_deterministic():
    cat_a, out_a = generate_dataset(SMALL)
    cat_b, out_b = generate_dataset(SMALL)
    assert np.array_equal(cat_a.features, cat_b.features)
    assert np.array_equal(cat_a.categories, cat_b.categories)
    assert [o.item_ids for o in out_a] == [o.item_ids for o in out_b]
    assert [o.likes for o in out_a] == [o.likes for o in out_b]


def test_generated_features_are_unit_norm():
    catalog, _ = generate_dataset(SMALL)
    norms = np.linalg.norm(catalog.features, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def test_outfits_have_distinct_categories_and_valid_sizes():
    catalog, outfits = generate_dataset(SMALL)
    for o in outfits:
        cats = catalog.categories_of(o.item_ids)
        assert len(set(map(int, cats))) == len(cats)
        assert SMALL.min_size <= len(o.item_ids) <= SMALL.max_size


def test_catalog_too_small_for_buckets_rejected():
    with pytest.raises(ValueError):
        GenConfig(categories=10, styles=10, catalog_size=50, outfits=10, dim=4).validate()


@pytest.mark.parametrize("field, value, message", [
    ("dim", 0, "dim must be at least 1, got 0"),
    ("outfits", -3, "outfits must be at least 0, got -3"),
    ("noise", -0.1, "noise must be finite and at least 0, got -0.1"),
    ("noise", float("nan"), "noise must be finite and at least 0, got nan"),
    ("noise", float("inf"), "noise must be finite and at least 0, got inf"),
], ids=["dim-0", "negative-outfits", "negative-noise", "nan-noise", "inf-noise"])
def test_gen_config_rejects_an_empty_feature_a_negative_count_or_bad_noise(field, value, message):
    config = GenConfig(categories=5, styles=3, catalog_size=120, outfits=20, dim=8, min_size=3, max_size=5)
    setattr(config, field, value)
    with pytest.raises(ValueError, match=f"^{message}$"):
        config.validate()
    with pytest.raises(ValueError, match=f"^{message}$"):
        generate_dataset(config)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), case=st.integers(2, 24).flatmap(lambda c: st.tuples(st.just(c), st.integers(1, c))))
@example(seed=0, case=(24, 24))
@example(seed=5, case=(2, 2))
def test_sampler_equals_numpy_choice_without_replacement(seed, case):
    """Same indices, in the same order, and the generator left in the same state."""
    categories, size = case
    weights = category_weights(categories)
    oracle, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = oracle.choice(categories, size=size, replace=False, p=weights).tolist()
    assert _choice_without_replacement(rng, weights.tolist(), size) == expected
    assert rng.bit_generator.state == oracle.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**63 - 1),
       calls=st.lists(st.one_of(st.integers(1, 2**32), st.integers(1, 40), st.sampled_from(["random", "poisson"])),
                      min_size=1, max_size=24))
@example(seed=0, calls=[1, 1, "random", 1])
@example(seed=1, calls=[2**31 + 1, "random", 2**31 + 1, 2**31 + 1, "poisson", 2**31 + 1])
@example(seed=2, calls=[2**32 - 1, "poisson", 2**32 - 1, 2**32 - 1])
@example(seed=3, calls=[2**32, 3, "random", 2**32, 2**32])
def test_integers_below_equals_numpy_integers(seed, calls):
    """Same values, and the generator left in the same state after every call, 32-bit carry included."""
    oracle, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    below = integers_below(rng)
    for call in calls:
        if call == "random":
            assert rng.random() == oracle.random()
        elif call == "poisson":
            assert rng.poisson(10) == oracle.poisson(10)
        else:
            got = below(call)
            assert type(got) is int and got == oracle.integers(call)
        assert rng.bit_generator.state == oracle.bit_generator.state


def _reference_dataset(config: GenConfig):
    """The generator as plain numpy calls (`rng.integers`, `rng.random`, `rng.choice`): the oracle for its stream."""
    rng = np.random.default_rng(config.seed)
    C, S, N, D = config.categories, config.styles, config.catalog_size, config.dim
    u_cat = l2_rows(rng.standard_normal((C, D)))
    v_style = l2_rows(rng.standard_normal((S, D)))
    weights = category_weights(C)
    grid = np.arange(C * S)
    cats = np.concatenate([grid % C, rng.choice(C, size=N - C * S, p=weights)])
    styles = np.concatenate([grid // C, rng.integers(0, S, size=N - C * S)])
    feats = l2_rows(u_cat[cats] + v_style[styles] + rng.standard_normal((N, D)) * config.noise)
    outfits = []
    for oid in range(config.outfits):
        style = int(rng.integers(0, S))
        size = int(rng.integers(config.min_size, config.max_size + 1))
        ids = []
        for c in rng.choice(C, size=size, replace=False, p=weights):
            coherent = rng.random() < config.coherence
            pool = np.flatnonzero((cats == c) & (styles == style) if coherent else cats == c)
            ids.append(int(pool[rng.integers(len(pool))]))
        outfits.append([oid, ids, int(rng.poisson(10))])
    return cats, styles, feats, outfits, rng.bit_generator.state


@st.composite
def small_gen_configs(draw):
    categories, styles = draw(st.integers(2, 12)), draw(st.integers(1, 4))
    min_size = draw(st.integers(2, categories))
    return GenConfig(categories=categories, styles=styles,
                     catalog_size=categories * styles + draw(st.integers(0, 40)),
                     outfits=draw(st.integers(0, 30)), dim=draw(st.integers(1, 4)),
                     coherence=draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])),
                     min_size=min_size, max_size=draw(st.integers(min_size, categories)),
                     seed=draw(st.integers(0, 2**32)))


@settings(max_examples=80, deadline=None)
@given(config=small_gen_configs())
@example(config=GenConfig(categories=3, styles=1, catalog_size=9, outfits=30, dim=2, min_size=2, max_size=3, seed=1))
@example(config=GenConfig(categories=6, styles=3, catalog_size=40, outfits=30, dim=2, min_size=4, max_size=4, seed=2))
@example(config=GenConfig(categories=2, styles=1, catalog_size=2, outfits=30, dim=1, min_size=2, max_size=2, seed=3))
def test_generate_dataset_equals_the_plain_numpy_loop(config):
    """Same catalog, same outfits and the generator left in the same state."""
    made = []
    default_rng = np.random.default_rng

    def recording_rng(seed):
        made.append(default_rng(seed))
        return made[-1]

    with mock.patch.object(np.random, "default_rng", recording_rng):
        catalog, outfits = generate_dataset(config)
    cats, styles, feats, expected, state = _reference_dataset(config)
    assert np.array_equal(catalog.categories, cats) and np.array_equal(catalog.styles, styles)
    assert np.array_equal(catalog.features, feats)
    assert [[o.outfit_id, o.item_ids, o.likes] for o in outfits] == expected
    assert made[0].bit_generator.state == state


@pytest.mark.parametrize("config, digest", [
    (SMALL, "9c2f88f92193a1e0104bcc6b1e409d2644e47bd58e350a3d61c7cd1aca325ecc"),
    (GenConfig(catalog_size=2000, outfits=384, seed=7), "61a94ed856abad019df1bb725892b994e4eb625bbec1117d5442039b21c5fcc6"),
], ids=["small", "train-workload-shape"])
def test_outfit_stream_is_pinned(config, digest):
    """Ids, sizes and likes of every outfit, as earlier releases generated them (integers only)."""
    _, outfits = generate_dataset(config)
    stream = json.dumps([[o.outfit_id, o.item_ids, o.likes] for o in outfits], separators=(",", ":"))
    assert hashlib.sha256(stream.encode()).hexdigest() == digest


def test_degenerate_noise_collapses_buckets():
    cfg = GenConfig(categories=4, styles=2, catalog_size=80, outfits=50, dim=8,
                    noise=0.0, coherence=1.0, min_size=2, max_size=4, seed=1)
    catalog, outfits = generate_dataset(cfg)
    styles = catalog.styles
    for c in range(4):
        for s in range(2):
            rows = catalog.features[(catalog.categories == c) & (styles == s)]
            assert rows.shape[0] >= 1
            assert np.max(np.abs(rows - rows[0])) < 1e-12
    # every outfit is style-pure, so completion from the bucket is exact
    for o in outfits[:10]:
        assert len(set(map(int, styles[catalog.rows_of(o.item_ids)]))) == 1


def test_planted_structure_raises_within_outfit_cosine():
    catalog, outfits = generate_dataset(SMALL)
    rng = np.random.default_rng(0)

    def mean_pairwise(ids):
        rows = catalog.features_of(ids)
        sims = rows @ rows.T
        n = len(ids)
        return (sims.sum() - n) / (n * (n - 1))

    within = np.mean([mean_pairwise(o.item_ids) for o in outfits[:100]])
    across = []
    for _ in range(100):
        ids = rng.choice(catalog.ids, size=4, replace=False)
        across.append(mean_pairwise(list(map(int, ids))))
    assert within > np.mean(across)


def test_category_weights_follow_inverse_rank():
    w = category_weights(4)
    base = np.array([1.0, 1 / 2, 1 / 3, 1 / 4])
    assert np.allclose(w, base / base.sum(), atol=1e-15)


def test_split_outfit_partition_and_alignment():
    catalog, outfits = generate_dataset(SMALL)
    rng = np.random.default_rng(3)
    for o in outfits[:50]:
        t = split_outfit(o, rng, catalog)
        nx, ny = t.x.features.shape[0], t.y.features.shape[0]
        assert nx + ny == len(o.item_ids)
        assert nx >= 1 and ny >= 1
        assert set(map(int, t.x.element_ids)) | set(map(int, t.y.element_ids)) == set(o.item_ids)
        assert not set(map(int, t.x.element_ids)) & set(map(int, t.y.element_ids))
        for m, item_id in enumerate(t.y.element_ids):
            assert t.z[m] == catalog.categories_of([int(item_id)])[0]


def test_split_triple_rejects_overlap():
    x = FeatureSet(np.zeros((2, 4)), element_ids=np.array([1, 2]))
    y = FeatureSet(np.zeros((1, 4)), element_ids=np.array([2]))
    with pytest.raises(ValueError, match="^query and target sets must be disjoint$"):
        SplitTriple(x=x, y=y, z=np.array([0]))
    apart = FeatureSet(np.zeros((1, 4)), element_ids=np.array([3]))
    assert SplitTriple(x=x, y=apart, z=np.array([0])).y is apart


def test_split_size_distribution_is_uniform():
    outfit = Outfit(outfit_id=0, item_ids=[0, 1, 2, 3, 4], likes=0)
    feats = np.eye(8)[:5]
    catalog = Catalog(np.arange(5), np.arange(5), feats)
    rng = np.random.default_rng(42)
    counts = np.zeros(4, dtype=int)
    for _ in range(10_000):
        t = split_outfit(outfit, rng, catalog)
        counts[t.y.features.shape[0] - 1] += 1
    assert stats.chisquare(counts).pvalue > 0.01


def test_split_outfit_rejects_tiny_outfit():
    catalog, _ = generate_dataset(SMALL)
    o = Outfit(outfit_id=0, item_ids=[int(catalog.ids[0])], likes=0)
    with pytest.raises(ValueError):
        split_outfit(o, np.random.default_rng(0), catalog)


def test_hash_split_partitions_with_expected_mass():
    ids = np.arange(50_000)
    buckets = {"train": 0, "val": 0, "test": 0}
    for i in ids:
        buckets[split_of(int(i))] += 1
    assert sum(buckets.values()) == 50_000
    assert abs(buckets["train"] / 50_000 - 0.8) < 0.01
    assert abs(buckets["val"] / 50_000 - 0.1) < 0.005
    assert abs(buckets["test"] / 50_000 - 0.1) < 0.005
    # stable mapping, not order-dependent
    assert split_of(12345) == split_of(12345)


def test_splitmix64_known_vector():
    # reference value from the splitmix64 stream of seed 0
    assert splitmix64(0) == 16294208416658607535


def test_split_outfits_respects_hash():
    _, outfits = generate_dataset(SMALL)
    splits = split_outfits(outfits)
    assert sum(len(v) for v in splits.values()) == len(outfits)
    for name, group in splits.items():
        for o in group:
            assert split_of(o.outfit_id) == name


@settings(max_examples=100, deadline=None)
@given(ids=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40))
@example(ids=[0, -1, 1, -(2**63), 2**63 - 1, -(2**63) + 1, 2**63 - 2])
def test_split_outfits_buckets_equal_split_of(ids):
    """The array hash gives each id the bucket of the scalar one, negative ids and int64 extremes included."""
    outfits = [Outfit(i, [], likes=n) for n, i in enumerate(ids)]
    splits = split_outfits(outfits)
    for name in ("train", "val", "test"):
        assert splits[name] == [o for o in outfits if split_of(o.outfit_id) == name]


def test_triples_are_reproducible():
    catalog, outfits = generate_dataset(SMALL)
    a = triples_for(outfits[:20], catalog, seed=9)
    b = triples_for(outfits[:20], catalog, seed=9)
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.x.element_ids, tb.x.element_ids)
        assert np.array_equal(ta.z, tb.z)


def test_jsonl_roundtrip(tmp_path):
    catalog, outfits = generate_dataset(SMALL)
    path = tmp_path / "outfits.jsonl"
    write_jsonl(path, catalog, outfits)
    loaded_catalog, loaded_outfits = read_jsonl(path)
    assert np.array_equal(loaded_catalog.ids, catalog.ids)
    assert np.array_equal(loaded_catalog.features, catalog.features)
    assert np.array_equal(loaded_catalog.categories, catalog.categories)
    assert [o.item_ids for o in loaded_outfits] == [o.item_ids for o in outfits]
    assert [o.likes for o in loaded_outfits] == [o.likes for o in outfits]
    # one outfit per line, exact field names
    first = json.loads(path.read_text().splitlines()[0])
    assert set(first) == {"outfit_id", "likes", "items"}
    assert set(first["items"][0]) == {"item_id", "category_id", "feature"}


def test_write_jsonl_equals_one_json_dumps_per_line(tmp_path):
    """Item records encoded once and joined give the bytes of a whole-line `json.dumps`."""
    rng = np.random.default_rng(3)
    ids = [907, 3, -2, 10**12, 55, 40, 6]  # not 0..N-1, not sorted
    features = rng.standard_normal((len(ids), 4))
    features[0, 1], features[1, :] = -0.0, [1e-300, 1 / 3, 2.5e17, 7.0]
    catalog = Catalog(ids, [2, 0, 1, 0, 2, 1, 0], features)
    outfits = [Outfit(12, [55, 3, 907], 4), Outfit(-1, [3, 10**12], 0), Outfit(7, [], 11),
               Outfit(2**40, [-2, 55, 3, 40], 3), Outfit(5, [907], 9)]
    path = tmp_path / "outfits.jsonl"
    write_jsonl(path, catalog, outfits)
    lines = []
    for o in outfits:
        items = [{"item_id": i, "category_id": int(catalog.categories_of([i])[0]), "feature": catalog.features_of([i])[0].tolist()}
                 for i in o.item_ids]
        record = {"outfit_id": o.outfit_id, "likes": o.likes, "items": items}
        lines.append(json.dumps(record, separators=(",", ":")) + "\n")
    assert path.read_text(encoding="utf-8") == "".join(lines)

    bad = Outfit(8, [3, 6, 999, 41], 1)  # 3 already encoded, 6 not yet; 999 is the first id the catalog lacks
    with pytest.raises(KeyError) as expected:
        catalog.rows_of(bad.item_ids)
    with pytest.raises(KeyError) as got:
        write_jsonl(path, catalog, outfits + [bad])
    assert got.value.args == expected.value.args == (999,)


def test_catalog_jsonl_roundtrip_keeps_styles(tmp_path):
    catalog, _ = generate_dataset(SMALL)
    path = tmp_path / "catalog.jsonl"
    write_catalog_jsonl(path, catalog)
    loaded = read_catalog_jsonl(path)
    assert np.array_equal(loaded.features, catalog.features)
    assert np.array_equal(loaded.styles, catalog.styles)


def test_read_jsonl_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = {"outfit_id": 0, "likes": 1, "items": [{"item_id": 0, "category_id": 0, "feature": [0.0, 1.0]}]}
    path.write_text(json.dumps(good) + "\n" + "{not json\n")
    with pytest.raises(ValueError, match="line 2"):
        read_jsonl(path)

    wrong_len = {"outfit_id": 1, "likes": 0, "items": [{"item_id": 1, "category_id": 0, "feature": [0.0]}]}
    path.write_text(json.dumps(good) + "\n" + json.dumps(wrong_len) + "\n")
    with pytest.raises(ValueError, match="line 2"):
        read_jsonl(path)


@pytest.mark.parametrize("value, shown", [
    (1.5, "float 1.5"), (2.0, "float 2.0"), ("7", "str '7'"), (True, "bool True"),
], ids=["float", "integral-float", "numeric-string", "bool"])
@pytest.mark.parametrize("field", ["outfit_id", "likes", "item_id", "category_id", "style_id"])
def test_jsonl_readers_take_only_json_integers_for_ids_and_counts(tmp_path, field, value, shown):
    path = tmp_path / "bad.jsonl"
    item = {"item_id": 0, "category_id": 0, "feature": [0.0, 1.0]}
    if field == "style_id":
        bad, read = {**item, "style_id": value}, read_catalog_jsonl
        good = {**item, "item_id": 1, "style_id": 0}
    else:
        good = {"outfit_id": 0, "likes": 1, "items": [item]}
        bad = {"outfit_id": 1, "likes": 1, "items": [dict(item)]}
        (bad if field in ("outfit_id", "likes") else bad["items"][0])[field] = value
        read = read_jsonl
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(ValueError) as err:
        read(path)
    assert str(err.value) == f"{path}: line 2: expected an integer, got {shown}"


def test_read_jsonl_strict_rejects_unknown_fields(tmp_path):
    path = tmp_path / "extra.jsonl"
    row = {"outfit_id": 0, "likes": 1, "surprise": 2,
           "items": [{"item_id": 0, "category_id": 0, "feature": [1.0, 0.0]}]}
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(ValueError, match="line 1"):
        read_jsonl(path)


def test_read_catalog_jsonl_names_the_line_of_a_bad_length_or_a_repeated_id(tmp_path):
    path = tmp_path / "catalog.jsonl"
    first = {"item_id": 0, "category_id": 0, "feature": [0.0, 1.0]}
    for second, message in (({"item_id": 1, "category_id": 0, "feature": [1.0]}, "feature length 1 != 2"),
                            ({"item_id": 0, "category_id": 1, "feature": [1.0, 0.0]}, "duplicate item id 0")):
        path.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
        with pytest.raises(ValueError) as err:
            read_catalog_jsonl(path)
        assert str(err.value) == f"{path}: line 2: {message}"


def test_read_jsonl_names_the_line_of_an_item_seen_with_two_categories(tmp_path):
    path = tmp_path / "outfits.jsonl"
    first = {"outfit_id": 0, "likes": 1, "items": [{"item_id": 1, "category_id": 0, "feature": [0.0, 1.0]}]}
    second = {"outfit_id": 1, "likes": 1, "items": [{"item_id": 1, "category_id": 5, "feature": [0.0, 1.0]}]}
    path.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
    with pytest.raises(ValueError) as err:
        read_jsonl(path)
    assert str(err.value) == f"{path}: line 2: item 1 seen with two different categories"


def test_read_jsonl_compares_a_repeated_item_with_its_first_feature_list(tmp_path):
    path = tmp_path / "outfits.jsonl"

    def write(first, repeat):
        records = [{"outfit_id": o, "likes": 1, "items": [{"item_id": 1, "category_id": 0, "feature": f}]}
                   for o, f in enumerate((first, repeat))]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))

    write([1.0, 0.5], [1, 0.5])  # the integer 1 equals the first record's 1.0
    catalog, outfits = read_jsonl(path)
    assert catalog.features.tobytes() == np.array([[1.0, 0.5]]).tobytes()
    assert [o.item_ids for o in outfits] == [[1], [1]]
    nan = float("nan")
    for first, repeat in (([1.0, 0.5], [1.0, 0.25]), ([1.0, 0.5], [1.0]), ([1.0, 0.5], [1.0, 0.5, 0.0]),
                          ([nan, 0.5], [nan, 0.5]), ([1.0, 0.5], [nan, 0.5])):
        write(first, repeat)
        with pytest.raises(ValueError) as err:
            read_jsonl(path)
        assert str(err.value) == f"{path}: line 2: item 1 seen with two different features"


def test_read_jsonl_names_the_line_of_an_outfit_that_holds_one_item_twice(tmp_path):
    # such a file used to load, and training then stopped on query and target sets that were not disjoint
    path = tmp_path / "outfits.jsonl"
    item = {"item_id": 1, "category_id": 0, "feature": [0.0, 1.0]}
    other = {"item_id": 2, "category_id": 1, "feature": [1.0, 0.0]}
    records = [{"outfit_id": 0, "likes": 1, "items": [item, other]}, {"outfit_id": 1, "likes": 1, "items": [other, item, other]}]
    # a repeat with another feature or category keeps the message of an item seen twice across lines
    for changed, message in (({}, "item 2 appears twice in the outfit"),
                             ({"feature": [0.5, 0.5]}, "item 2 seen with two different features"),
                             ({"category_id": 3}, "item 2 seen with two different categories")):
        records[1]["items"][2] = {**other, **changed}
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(ValueError) as err:
            read_jsonl(path)
        assert str(err.value) == f"{path}: line 2: {message}"


@pytest.mark.parametrize("read", [read_jsonl, read_catalog_jsonl])
def test_jsonl_readers_name_a_line_that_is_not_utf8(tmp_path, read):
    path = tmp_path / "file.jsonl"
    path.write_bytes(b"\n" + b'{"item_id": 1, "category_id": 0, "feature": [0.5]}\xff\n')
    with pytest.raises(ValueError) as err:
        read(path)
    assert str(err.value) == f"{path}: line 2: not UTF-8 (invalid start byte at byte 50)"


LINE_TEXT = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\r\n"), min_size=1).filter(str.strip)
NOT_AN_INT = st.one_of(  # only a JSON integer is an id or a count: no float, string or boolean is converted
    st.none(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    LINE_TEXT,
    st.integers().map(str),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**53), 2**53).map(float),
    st.sampled_from([float("inf"), float("-inf"), float("nan")]),
    st.integers(min_value=2**63),
    st.integers(max_value=-(2**63) - 1),
)
NOT_A_FEATURE = st.one_of(
    st.none(),
    st.floats(),
    LINE_TEXT,
    st.dictionaries(st.text(max_size=2), st.floats(), max_size=1),
    st.lists(st.floats(), max_size=6).filter(lambda f: len(f) != 3),
    st.lists(st.lists(st.floats(), min_size=1, max_size=3), min_size=1, max_size=3),
)
NOT_ITEMS = st.one_of(
    st.none(),
    st.integers(),
    st.floats(),
    LINE_TEXT,
    st.dictionaries(st.text(min_size=1, max_size=3), st.integers(), min_size=1, max_size=2),
)


def _item(i: int) -> dict:
    return {"item_id": i, "category_id": i % 2, "feature": [float(i), 0.5, -1.0]}


@settings(max_examples=200, deadline=None)
@given(catalog=st.booleans(), at=st.integers(1, 3), data=st.data())
def test_fuzzed_jsonl_line_is_rejected_naming_it(tmp_path_factory, catalog, at, data):
    # the first line stays valid: it fixes the feature length
    if catalog:
        records = [{**_item(i), "style_id": 0} for i in range(4)]
    else:
        records = [{"outfit_id": o, "likes": 1, "items": [_item(2 * o), _item(2 * o + 1)]} for o in range(4)]
    record = records[at]
    target = record if catalog else data.draw(st.sampled_from([record, *record["items"]]))
    is_item = "feature" in target
    required = ["item_id", "category_id", "feature"] if is_item else ["outfit_id", "items"]
    kind = data.draw(st.sampled_from(["text", "drop", "extra", "value", "reuse"] if is_item
                                     else ["text", "drop", "extra", "value"]))
    if kind == "drop":
        del target[data.draw(st.sampled_from(required))]
    elif kind == "extra":
        target["surprise"] = 1
    elif kind == "value":
        key = data.draw(st.sampled_from(required + ["style_id" if catalog else "likes"]))
        bad = {"feature": NOT_A_FEATURE, "items": NOT_ITEMS}.get(key, NOT_AN_INT)
        target[key] = data.draw(bad)
    elif kind == "reuse":  # an earlier line's item id with another feature
        target["item_id"] = data.draw(st.integers(0, at - 1) if catalog else st.integers(0, 2 * at - 1))
        target["feature"] = [v + 1.0 for v in target["feature"]]
    lines = [json.dumps(r) for r in records]
    if kind == "text":
        lines[at] = data.draw(LINE_TEXT)
    path = tmp_path_factory.mktemp("fuzz") / "file.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        (read_catalog_jsonl if catalog else read_jsonl)(path)
    assert str(err.value).startswith(f"{path}: line {at + 1}: ") and "\n" not in str(err.value), str(err.value)


def test_read_jsonl_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    catalog, outfits = read_jsonl(path)
    assert catalog is None
    assert outfits == []


def test_items_in_unions_unique_ids():
    _, outfits = generate_dataset(SMALL)
    ids = items_in(outfits[:10])
    manual = sorted({i for o in outfits[:10] for i in o.item_ids})
    assert list(ids) == manual


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=40, unique=True),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_catalog_and_index_share_one_id_sorted_table(tmp_path_factory, ids, seed, data):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((len(ids), 3))
    categories = rng.integers(0, 4, size=len(ids))
    styles = rng.integers(-1, 3, size=len(ids))
    oracle = {i: (features[r], int(categories[r]), int(styles[r])) for r, i in enumerate(ids)}
    catalog = Catalog(ids, categories, features, styles)
    index = RetrievalIndex(ids, features, categories)
    assert catalog.ids.tolist() == index.ids.tolist() == sorted(ids)
    for table in (catalog, index):
        assert np.array_equal(table.features, np.array([oracle[i][0] for i in sorted(ids)]))
        asked = data.draw(st.lists(st.sampled_from(ids), max_size=10))
        assert table.ids[table.rows_of(asked)].tolist() == asked
        assert np.array_equal(table.features_of(asked).reshape(-1, 3), np.array([oracle[i][0] for i in asked]).reshape(-1, 3))
        assert table.categories_of(asked).tolist() == [oracle[i][1] for i in asked]
        assert np.array_equal(table.features_of(ids[0]), oracle[ids[0]][0])
        unknown = data.draw(st.integers(-(2**63), 2**63 - 1).filter(lambda i: i not in oracle))
        for lookup in (table.rows_of, table.features_of, table.categories_of):
            with pytest.raises(KeyError) as err:
                lookup(asked + [unknown])
            assert err.value.args == (unknown,)
        with pytest.raises(KeyError) as err:
            table.features_of(unknown)
        assert err.value.args == (unknown,)
    kept = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=10))
    part = build_index(catalog, item_ids=kept)
    assert part.ids.tolist() == sorted(set(kept))
    assert [int(c) for c in part.categories] == [oracle[i][1] for i in sorted(set(kept))]
    assert np.array_equal(part.features, np.array([oracle[i][0] for i in sorted(set(kept))]))

    # a whole-catalog index shares the catalog's columns; every column is read-only
    ann = AnnConfig(clusters=min(3, len(ids)), probes=1, iters=2)
    whole = build_index(catalog, ann_config=ann)
    for name in ("ids", "features", "categories"):
        assert np.shares_memory(getattr(whole, name), getattr(catalog, name)), name
    path = tmp_path_factory.mktemp("table") / "index.bin"
    whole.save(path)
    loaded = RetrievalIndex.load(path)
    for column in (catalog.features, catalog.ids, index.features, index.ids, whole.features, part.features,
                   loaded.ids, loaded.features, loaded.categories):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0
    # the caller's arrays stay writable, and id-sorted ones are shared, not copied
    assert features.flags.writeable and categories.flags.writeable and styles.flags.writeable
    order = np.argsort(ids)
    columns = (np.array(ids)[order], features[order], categories[order])
    shared = RetrievalIndex(*columns)
    for given_column, column in zip(columns, (shared.ids, shared.features, shared.categories)):
        assert given_column.flags.writeable and np.shares_memory(given_column, column)

    # searches over shared or gathered rows equal those over explicit copies of the rows
    query, k = rng.standard_normal(3), data.draw(st.integers(1, len(ids)))
    category = int(data.draw(st.sampled_from(categories.tolist())))
    copies = RetrievalIndex(catalog.ids.copy(), catalog.features.copy(), catalog.categories.copy(), ann=ann)
    for mode in ("exact", "approx"):
        for category_filter in (None, category):
            assert whole.query_knn(query, k, category_filter, mode) == copies.query_knn(query, k, category_filter, mode)
    kept_ids = sorted(set(kept))
    part_copies = RetrievalIndex(kept_ids, np.array([oracle[i][0] for i in kept_ids]), [oracle[i][1] for i in kept_ids])
    kept_category = oracle[kept_ids[0]][1]
    assert part.query_knn(query, k) == part_copies.query_knn(query, k)
    assert part.query_knn(query, k, kept_category) == part_copies.query_knn(query, k, kept_category)

    repeated = ids + [data.draw(st.sampled_from(ids))]
    with pytest.raises(ValueError, match="duplicate item id"):
        Catalog(repeated, np.zeros(len(repeated)), np.zeros((len(repeated), 3)))
    with pytest.raises(ValueError, match="duplicate item id"):
        RetrievalIndex(repeated, np.zeros((len(repeated), 3)), np.zeros(len(repeated)))

    path = tmp_path_factory.mktemp("table") / "catalog.jsonl"
    write_catalog_jsonl(path, catalog)
    loaded = read_catalog_jsonl(path)
    for name in ("ids", "categories", "styles", "features"):
        got, want = getattr(loaded, name), getattr(catalog, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("bad", [0.5, np.nan, 1e30])
@pytest.mark.parametrize("field", ["ids", "categories", "styles", "assignments"])
def test_item_tables_refuse_a_column_value_that_is_not_an_integer(field, bad):
    # float ids 0.5, 1.5, 2.7 used to be indexed as 0, 1, 2
    columns = {"ids": [3.0, 1.0, 2.0], "categories": [0.0, 1.0, 1.0], "styles": [0.0, 2.0, 1.0],
               "assignments": [1.0, 0.0, 0.0]}
    tables = {
        "catalog": lambda c: Catalog(c["ids"], c["categories"], np.eye(3), styles=c["styles"]),
        "index": lambda c: RetrievalIndex(c["ids"], np.eye(3), c["categories"], ann=AnnConfig(clusters=2),
                                          centroids=np.eye(3)[:2], assignments=c["assignments"]),
    }
    broken = {**columns, field: [columns[field][0], bad, columns[field][2]]}
    for name, build in tables.items():
        if (name, field) in (("catalog", "assignments"), ("index", "styles")):
            continue
        assert build(columns).ids.tolist() == [1, 2, 3]  # whole-number floats are integers
        with pytest.raises(ValueError) as err:
            build(broken)
        assert str(err.value) == f"field {field!r} must hold integers, got {bad!r}"


def test_catalog_rejects_no_items_and_misaligned_columns():
    with pytest.raises(ValueError, match="no items"):
        Catalog([], [], np.zeros((0, 3)))
    with pytest.raises(ValueError, match="must align"):
        Catalog([1, 2], [0], np.zeros((2, 3)))
    with pytest.raises(ValueError, match="must align"):
        Catalog([1, 2], [0, 0], np.zeros((2, 3)), styles=[0])
