import numpy as np
import pytest

from setcomplete.data import GenConfig, generate_dataset, split_outfits, triples_for
from setcomplete.evaluation import (
    ComplexityInputs,
    MetricsReport,
    binomial_ci,
    category_accuracy,
    complexity_calc,
    diversity_histogram,
    finb_eval,
    output_features,
    recall_at_k,
    smd,
    target_histogram,
    top1_ids,
)
from setcomplete.matching import MatchConfig, init_match_params
from setcomplete.model import ModelConfig, build_variant
from setcomplete.retrieval import RetrievalIndex, build_index

SMALL = GenConfig(categories=5, styles=3, catalog_size=150, outfits=120, dim=8, min_size=3, max_size=5, seed=6)


@pytest.fixture(scope="module")
def eval_world():
    catalog, outfits = generate_dataset(SMALL)
    triples = triples_for(outfits[:60], catalog, seed=1)
    index = build_index(catalog)
    return catalog, outfits, triples, index


def oracle_predictor(t):
    return t.y.features


def test_oracle_predictor_scores_perfectly(eval_world):
    _, _, triples, index = eval_world
    assert recall_at_k(oracle_predictor, triples, index, k=1) == 1.0
    assert category_accuracy(oracle_predictor, triples, index) == 1.0


def test_random_predictor_matches_analytic_baselines(eval_world):
    catalog, _, triples, index = eval_world
    rng = np.random.default_rng(7)

    def random_predictor(t):
        rows = rng.standard_normal((len(t.z), 8))
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)

    k = 16
    recall = recall_at_k(random_predictor, triples, index, k=k)
    analytic = np.mean([k * len(t.z) / len(index) for t in triples])
    assert abs(recall - analytic) < 0.12

    accuracy = category_accuracy(random_predictor, triples, index)
    weights = np.bincount(catalog.categories, minlength=5) / len(catalog.ids)
    z_all = np.concatenate([t.z for t in triples])
    expected = float(np.mean(weights[z_all]))
    assert abs(accuracy - expected) < 0.12


def test_recall_monotone_in_k(eval_world):
    _, _, triples, index = eval_world
    rng = np.random.default_rng(3)
    preds = [rng.standard_normal((len(t.z), 8)) for t in triples]
    preds = [p / np.linalg.norm(p, axis=1, keepdims=True) for p in preds]
    r1 = recall_at_k(preds, triples, index, k=1)
    r32 = recall_at_k(preds, triples, index, k=32)
    assert r1 <= r32


def test_smd_of_truth_is_zero(eval_world, tiny_scorer16):
    _, _, triples, _ = eval_world
    report = smd(oracle_predictor, triples[:20], tiny_scorer16)
    assert report["mode"] == "raw"
    assert report["mean"] == 0.0
    assert report["n"] == 20
    assert all(v == 0.0 for v in report["samples"])


def test_smd_retrieved_mode_uses_index_features(eval_world, tiny_scorer16):
    _, _, triples, index = eval_world
    report = smd(oracle_predictor, triples[:20], tiny_scorer16, index=index)
    assert report["mode"] == "retrieved"
    # truth features are themselves indexed, so retrieval reproduces them
    assert abs(report["mean"]) < 1e-12


def test_smd_percentiles_reconstruct_from_samples(eval_world, tiny_scorer16):
    _, _, triples, index = eval_world
    rng = np.random.default_rng(11)

    def noisy(t):
        rows = t.y.features + 0.5 * rng.standard_normal(t.y.features.shape)
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)

    report = smd(noisy, triples[:30], tiny_scorer16, index=index)
    arr = np.asarray(report["samples"])
    assert report["n"] == arr.size
    assert report["mean"] == pytest.approx(float(arr.mean()), abs=1e-12)
    for p, v in report["percentiles"].items():
        assert v == pytest.approx(float(np.percentile(arr, float(p))), abs=1e-12)


@pytest.fixture(scope="module")
def tiny_scorer16():
    params = init_match_params(MatchConfig(dim=8, heads=2), seed=2)
    # the readout starts at zero; randomize it so scores vary across sets
    params.store.params["head_w2"][:] = np.random.default_rng(2).normal(0.0, 0.5, size=(8, 1))
    return params.freeze()


def test_metrics_of_an_st_model_equal_those_of_its_output_features(eval_world, tiny_scorer16):
    _, _, triples, index = eval_world
    st = build_variant("st", ModelConfig(dim=8, heads=2, slot_layers=1, sab_layers=1, categories=5), seed=3)
    triples = triples[:12]
    preds = output_features(st, triples, index)
    assert recall_at_k(st, triples, index, k=4) == recall_at_k(preds, triples, index, k=4)
    assert category_accuracy(st, triples, index) == category_accuracy(preds, triples, index)
    assert diversity_histogram(st, triples, index) == diversity_histogram(preds, triples, index)
    assert smd(st, triples, tiny_scorer16, index=index) == smd(preds, triples, tiny_scorer16, index=index)
    # without an index there is nothing for the sequential baseline to retrieve from
    with pytest.raises(ValueError, match="st_sequential_complete"):
        smd(st, triples, tiny_scorer16)


def test_top1_ids_prefers_lowest_id_on_ties(rng):
    from setcomplete.data import Catalog

    feat = rng.standard_normal(4)
    feat /= np.linalg.norm(feat)
    index = build_index(Catalog([5, 2, 9], [0, 0, 0], np.tile(feat, (3, 1))))
    got = top1_ids(index, feat[None])
    assert got[0] == 2


def test_top1_ids_equals_query_knn_when_ids_are_given_unsorted():
    feats = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    index = RetrievalIndex(np.array([9, 5, 3]), feats, np.array([0, 1, 0]))
    assert index.ids.tolist() == [3, 5, 9]
    assert index.features_of(5).tolist() == [0.0, 1.0] and index.categories.tolist() == [0, 1, 0]
    queries = np.array([[1.0, 0.0], [0.6, 0.8]])
    expected = [index.query_knn(q, k=1)[0][0] for q in queries]
    assert expected == [3, 5]
    assert top1_ids(index, queries).tolist() == expected


def test_binomial_ci_known_values():
    low, high = binomial_ci(0, 10)
    assert low == 0.0 and 0.25 < high < 0.35
    low, high = binomial_ci(10, 10)
    assert high == 1.0 and 0.65 < low < 0.75
    low, high = binomial_ci(13, 100)
    assert low < 0.125 < high
    with pytest.raises(ValueError):
        binomial_ci(0, 0)


def test_finb_untrained_scorer_near_chance(eval_world):
    catalog, outfits, _, _ = eval_world
    scorer = init_match_params(MatchConfig(dim=8, heads=2), seed=0).freeze()
    report = finb_eval(scorer, outfits, catalog, selector="scorer", seed=0)
    assert report["n"] > 50
    assert report["ci_low"] <= 0.125 <= report["ci_high"]
    assert report["negatives"] == 7


def test_finb_skips_thin_category_pools():
    cfg = GenConfig(categories=4, styles=2, catalog_size=8, outfits=40, dim=8,
                    min_size=2, max_size=3, seed=3)
    catalog, outfits = generate_dataset(cfg)
    scorer = init_match_params(MatchConfig(dim=8, heads=2), seed=0).freeze()
    report = finb_eval(scorer, outfits, catalog, selector="scorer", seed=0)
    assert report["skipped"] >= 0
    assert report["n"] + report["skipped"] == len(outfits)


def test_finb_is_seed_deterministic(eval_world):
    catalog, outfits, _, _ = eval_world
    scorer = init_match_params(MatchConfig(dim=8, heads=2), seed=1).freeze()
    a = finb_eval(scorer, outfits[:40], catalog, selector="scorer", seed=5)
    b = finb_eval(scorer, outfits[:40], catalog, selector="scorer", seed=5)
    assert a == b


def test_diversity_histogram_identity_and_degenerate(eval_world):
    _, _, triples, index = eval_world
    report = diversity_histogram(oracle_predictor, triples, index, top=100)
    truth = target_histogram(triples, top=100)
    assert report["n_elements"] == truth["n_elements"]
    assert report["n_distinct"] == truth["n_distinct"]
    assert report["top_share"] == pytest.approx(truth["top_share"])

    first = index.features[0]

    def constant(t):
        return np.tile(first, (len(t.z), 1))

    degenerate = diversity_histogram(constant, triples, index, top=1)
    assert degenerate["top_share"] == 1.0
    assert degenerate["n_distinct"] == 1
    assert degenerate["max_frequency"] == degenerate["n_elements"]


def test_complexity_worked_examples():
    assert complexity_calc(ComplexityInputs(p=10, q=2, m=4), "proposed") == 18
    assert complexity_calc(ComplexityInputs(p=10, q=2, m=4), "set-transformer") == 48
    assert complexity_calc(ComplexityInputs(p=10, q=2, m=3, l=7), "bilstm") == 336
    one = ComplexityInputs(p=10, q=2, m=1)
    assert complexity_calc(one, "proposed") == complexity_calc(one, "set-transformer") == 12


def test_complexity_validation():
    with pytest.raises(ValueError):
        complexity_calc(ComplexityInputs(p=10, q=2, m=8, l=7), "bilstm")
    with pytest.raises(ValueError):
        complexity_calc(ComplexityInputs(p=0, q=2, m=1), "proposed")
    with pytest.raises(ValueError):
        complexity_calc(ComplexityInputs(p=1, q=1, m=1), "fft")


def test_metrics_report_serializes_deterministically(tmp_path):
    report = MetricsReport(seed=3)
    report.variants["CR"] = {"accuracy": 0.91, "smd": {"mean": 0.2, "n": 50}}
    report.timing.append({"model": "CR", "variant": "CR", "m": 1, "index_size": 10,
                          "median_seconds": 0.001, "forward_passes": 1, "repeats": 5})
    j1, c1 = report.save(tmp_path)
    first = j1.read_bytes(), c1.read_bytes()
    j2, c2 = report.save(tmp_path)
    assert (j2.read_bytes(), c2.read_bytes()) == first
    rows = c1.read_text().splitlines()
    assert rows[0] == "variant,metric,value,n,seed"
    assert any("median_seconds_m1_n10" in r for r in rows)
