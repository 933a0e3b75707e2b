"""End-to-end acceptance suite.

Every test prints one summary line, "[acceptance] <name>: PASS|FAIL (...)",
and asserts its stated tolerance. Module fixtures do the heavy lifting once:
`full_run` trains the default completion recipe on the default synthetic
world, `trio` trains three variants under one matched small budget.
"""

import time

import numpy as np
import pytest

import setcomplete as sc
from setcomplete import autodiff as ad
from setcomplete import evaluation as ev
from setcomplete.data import GenConfig, SplitTriple, items_in, split_outfits, triples_for
from setcomplete.layers import init_attention_params, mab, sab, slot_attention_layer
from setcomplete.losses import LossConfig, batch_loss_graph, ce_inbatch, chamfer, sm_reg
from setcomplete.matching import MatchConfig, init_match_params, match_score
from setcomplete.model import (
    ModelConfig,
    build_variant,
    cst_forward,
    cst_graph,
    embed_conditions,
    slots_graph,
)
from setcomplete.retrieval import AnnConfig, build_index
from setcomplete.sets import FeatureSet, l2_rows, pad_stack
from setcomplete.training import (
    TrainConfig,
    save_cst_checkpoint,
    save_match_checkpoint,
    train_cst,
    train_matching,
)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def world():
    t0 = time.perf_counter()
    catalog, outfits = sc.generate_dataset(GenConfig(seed=0))
    return {"catalog": catalog, "outfits": outfits, "gen_seconds": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def full_run(world):
    catalog, outfits = world["catalog"], world["outfits"]
    t0 = time.perf_counter()
    scorer, _, _ = train_matching(catalog, outfits, MatchConfig(seed=0))
    params, _ = train_cst(catalog, outfits, scorer, TrainConfig(variant="CR", seed=0))
    test = [o for o in split_outfits(outfits)["test"] if len(o.item_ids) >= 2]
    triples = triples_for(test, catalog, seed=0)
    index = build_index(catalog, item_ids=items_in(test))
    recall = ev.recall_at_k(params, triples, index, k=32)
    accuracy = ev.category_accuracy(params, triples, index)
    wall = world["gen_seconds"] + time.perf_counter() - t0
    baseline = float(np.mean([32 * len(t.z) / len(index) for t in triples]))
    return {
        "catalog": catalog, "scorer": scorer, "params": params, "test": test,
        "recall": recall, "accuracy": accuracy, "baseline": baseline, "wall": wall,
    }


@pytest.fixture(scope="module")
def trio():
    gen = GenConfig(categories=8, styles=6, catalog_size=600, outfits=1000, dim=16,
                    min_size=4, max_size=6, seed=7)
    catalog, outfits = sc.generate_dataset(gen)
    scorer, _, _ = train_matching(catalog, outfits, MatchConfig(dim=16, epochs=6, seed=7))
    budget = dict(epochs=8, batch_size=16, learning_rate=0.05, dim=16, heads=4,
                  slot_layers=2, sab_layers=1, categories=8, seed=7)
    test = [o for o in split_outfits(outfits)["test"] if len(o.item_ids) >= 2]
    triples = triples_for(test, catalog, seed=7)
    index = build_index(catalog, item_ids=items_in(test))
    out = {}
    for tag in ("CR", "Cx", "sa"):
        params, _ = train_cst(catalog, outfits, scorer if tag == "CR" else None,
                              TrainConfig(variant=tag, **budget))
        out[tag] = {
            "accuracy": ev.category_accuracy(params, triples, index),
            "smd_raw": ev.smd(params, triples, scorer)["mean"],
        }
    return out


def test_01_permutation_laws():
    t0 = time.perf_counter()
    worst = 0.0
    config = ModelConfig(dim=16, heads=4, slot_layers=2, sab_layers=1, categories=6)
    for tag in ("CR", "Cx"):
        params = build_variant(tag, config, seed=1)
        for trial in range(20):
            rng = np.random.default_rng(trial)
            x = FeatureSet(rng.standard_normal((6, 16)))
            z = embed_conditions(list(rng.integers(0, 6, size=3)), params.embedding)
            base = cst_forward(x, z, params).features
            px, pz = rng.permutation(6), rng.permutation(3)
            worst = max(worst, np.max(np.abs(cst_forward(x.permuted(px), z, params).features - base)))
            worst = max(worst, np.max(np.abs(cst_forward(x, z.permuted(pz), params).features - base[pz])))
    store = ad.ParamStore()
    att = init_attention_params(store, "blk", 16, 4, np.random.default_rng(0))
    for trial in range(20):
        rng = np.random.default_rng(100 + trial)
        q = FeatureSet(rng.standard_normal((5, 16)))
        kv = FeatureSet(rng.standard_normal((7, 16)))
        pq, pkv = rng.permutation(5), rng.permutation(7)
        base = mab(q, kv, att).features
        worst = max(worst, np.max(np.abs(mab(q.permuted(pq), kv, att).features - base[pq])))
        worst = max(worst, np.max(np.abs(mab(q, kv.permuted(pkv), att).features - base)))
        sab_base = sab(kv, att).features
        worst = max(worst, np.max(np.abs(sab(kv.permuted(pkv), att).features - sab_base[pkv])))
        slot_base = slot_attention_layer(q, kv, att).features
        worst = max(worst, np.max(np.abs(slot_attention_layer(q.permuted(pq), kv, att).features - slot_base[pq])))
        worst = max(worst, np.max(np.abs(slot_attention_layer(q, kv.permuted(pkv), att).features - slot_base)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    report("permutation laws", ok, f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_02_gradient_checks():
    t0 = time.perf_counter()
    config = ModelConfig(dim=8, heads=2, slot_layers=2, sab_layers=1, categories=5)
    params = build_variant("CR", config, seed=3)
    scorer = init_match_params(MatchConfig(dim=8, heads=2, encoder_layers=1), seed=4)
    scorer.store.params["head_w2"][:] = np.random.default_rng(4).normal(0.0, 0.5, size=(8, 1))
    scorer.freeze()
    rng = np.random.default_rng(5)
    triples = []
    for nx, m in ((3, 2), (2, 3)):
        triples.append(SplitTriple(
            x=FeatureSet(rng.standard_normal((nx, 8))),
            y=FeatureSet(l2_rows(rng.standard_normal((m, 8)))),
            z=rng.integers(0, 5, size=m),
        ))
    loss_cfg = LossConfig(alpha=1.0, temperature=0.2)
    total_node, parts = batch_loss_graph(params, scorer, triples, loss_cfg, slot_seed=9)

    x_pad, x_mask = pad_stack([t.x.features for t in triples])
    y_pad, y_mask = pad_stack([t.y.features for t in triples])
    labels = [np.asarray(t.z, dtype=np.int64) for t in triples]
    z0, z_mask = slots_graph(params, labels, y_mask.shape[1], slot_seed=9)
    yhat = cst_graph(params, x_pad, x_mask, z0, z_mask)
    chamfer_node = ad.chamfer_cost(yhat, ad.const(y_pad), z_mask, y_mask, np.full(len(triples), 0.5))

    worst = 0.0
    for node in (chamfer_node, parts["ce"], parts["sm"], total_node):
        worst = max(worst, ad.finite_diff_check(ad.Graph(node), params.store))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 60.0
    report("gradient checks", ok, f"max rel err {worst:.2e} over chamfer/ce/sm/total, {elapsed:.1f}s")


def test_03_loss_oracles(rng):
    exact = True
    for m in range(1, 5):
        for n in range(1, 5):
            a = rng.standard_normal((m, 5))
            b = rng.standard_normal((n, 5))
            mins_a = [min(float(np.sum((row - other) ** 2)) for other in b) for row in a]
            mins_b = [min(float(np.sum((row - other) ** 2)) for other in a) for row in b]
            want = float(np.sum(np.array(mins_a)) + np.sum(np.array(mins_b)))
            exact = exact and chamfer(FeatureSet(a), FeatureSet(b)) == want

    universe = FeatureSet(l2_rows(rng.standard_normal((6, 5))), element_ids=np.arange(6))
    picks = np.array([2, 0, 5])
    ytrue = FeatureSet(universe.features[picks], element_ids=picks)
    yhat = FeatureSet(l2_rows(rng.standard_normal((3, 5))))
    worst_ce = 0.0
    for tau in (1.0, 0.2):
        got = ce_inbatch(yhat, ytrue, universe, LossConfig(temperature=tau))
        want = 0.0
        for i, lab in enumerate(picks):
            logits = universe.features @ yhat.features[i] / tau
            logits -= logits.max()
            want += -float(np.log(np.exp(logits)[lab] / np.exp(logits).sum()))
        worst_ce = max(worst_ce, abs(got - want / len(picks)))

    scorer = init_match_params(MatchConfig(dim=5, heads=1), seed=6)
    scorer.store.params["head_w2"][:] = np.random.default_rng(6).normal(0.0, 0.5, size=(5, 1))
    scorer.freeze()
    x = FeatureSet(rng.standard_normal((3, 5)))
    y = FeatureSet(rng.standard_normal((2, 5)))
    sm_dev = abs(sm_reg(y, x, y, scorer) - float(np.log(2.0)))
    ok = exact and worst_ce <= 1e-12 and sm_dev <= 1e-12
    report("loss oracles", ok, f"chamfer exact={exact}, ce dev {worst_ce:.1e}, sm zero-gap dev {sm_dev:.1e}")


def test_04_scorer_guarantees(tiny_data, tiny_scorer):
    catalog, outfits = tiny_data
    rng = np.random.default_rng(13)
    sym = True
    for _ in range(10):
        x = FeatureSet(rng.standard_normal((int(rng.integers(1, 6)), 16)))
        y = FeatureSet(rng.standard_normal((int(rng.integers(1, 6)), 16)))
        sym = sym and match_score(x, y, tiny_scorer) == match_score(y, x, tiny_scorer)
    x = FeatureSet(rng.standard_normal((5, 16)))
    y = FeatureSet(rng.standard_normal((4, 16)))
    base = match_score(x, y, tiny_scorer)
    worst = 0.0
    for _ in range(5):
        got = match_score(x.permuted(rng.permutation(5)), y.permuted(rng.permutation(4)), tiny_scorer)
        worst = max(worst, abs(got - base))
    before = tiny_scorer.checksum()
    train_cst(catalog, outfits, tiny_scorer,
              TrainConfig(variant="CR", epochs=1, batch_size=8, dim=16, heads=4,
                          slot_layers=1, sab_layers=1, categories=6, seed=9))
    unchanged = tiny_scorer.checksum() == before
    ok = sym and worst <= 1e-10 and unchanged
    report("scorer guarantees", ok,
           f"bitwise symmetry={sym}, invariance dev {worst:.1e}, frozen checksum unchanged={unchanged}")


def test_05_retrieval_oracle(world):
    catalog = world["catalog"]
    exact_index = build_index(catalog)
    rng = np.random.default_rng(17)
    rows = rng.integers(0, len(exact_index), size=200)
    queries = l2_rows(exact_index.features[rows] + 0.1 * rng.standard_normal((200, exact_index.dim)))
    identical = True
    for q in queries:
        sims = exact_index.features @ q
        order = np.lexsort((exact_index.ids, -sims))[:32]
        want = [(int(exact_index.ids[i]), float(sims[i])) for i in order]
        identical = identical and exact_index.query_knn(q, 32) == want
    ann_index = build_index(catalog, ann_config=AnnConfig())
    recalls = []
    for q in queries:
        exact_ids = {i for i, _ in exact_index.query_knn(q, 32)}
        approx_ids = {i for i, _ in ann_index.query_knn(q, 32, mode="approx")}
        recalls.append(len(exact_ids & approx_ids) / 32)
    mean_recall = float(np.mean(recalls))
    ok = identical and mean_recall >= 0.95
    report("retrieval oracle", ok,
           f"exact matches linear scan on 200 queries={identical}, approx recall@32 {mean_recall:.3f}")


def test_06_end_to_end_training(full_run):
    ratio = full_run["recall"] / full_run["baseline"]
    ok = full_run["accuracy"] >= 0.95 and ratio >= 10.0 and full_run["wall"] <= 900.0
    report("end-to-end training", ok,
           f"accuracy {full_run['accuracy']:.4f}, recall@32 {full_run['recall']:.4f} "
           f"= {ratio:.1f}x random baseline, wall {full_run['wall']:.0f}s")


def test_07_variant_ordering(trio):
    acc_ok = trio["CR"]["accuracy"] > trio["sa"]["accuracy"]
    smd_ok = trio["CR"]["smd_raw"] >= trio["Cx"]["smd_raw"]
    ok = acc_ok and smd_ok
    report("variant ordering", ok,
           f"accuracy CR {trio['CR']['accuracy']:.3f} > sa {trio['sa']['accuracy']:.3f}: {acc_ok}; "
           f"smd CR {trio['CR']['smd_raw']:+.4f} >= Cx {trio['Cx']['smd_raw']:+.4f}: {smd_ok}")


def test_08_fill_in_n_blank(full_run):
    catalog, test = full_run["catalog"], full_run["test"]
    untrained = init_match_params(MatchConfig(seed=0)).freeze()
    chance = ev.finb_eval(untrained, test, catalog, seed=0, selector="scorer")
    trained = ev.finb_eval(full_run["scorer"], test, catalog, seed=0, selector="scorer")
    generated = ev.finb_eval(full_run["params"], test, catalog, seed=0, selector="cst")
    chance_ok = chance["ci_low"] <= 0.125 <= chance["ci_high"]
    ok = (chance_ok and trained["accuracy"] >= 0.375
          and trained["accuracy"] >= generated["accuracy"])
    report("fill-in-n-blank", ok,
           f"untrained {chance['accuracy']:.3f} CI [{chance['ci_low']:.3f}, {chance['ci_high']:.3f}] "
           f"covers 0.125={chance_ok}; trained scorer {trained['accuracy']:.3f} vs "
           f"generated-feature selection {generated['accuracy']:.3f}")


def test_09_scaling(world):
    catalog = world["catalog"]
    index = build_index(catalog)
    config = ModelConfig()
    models = {"CR": build_variant("CR", config, seed=0), "st": build_variant("st", config, seed=0)}
    outfit = world["outfits"][0]
    x = FeatureSet(catalog.features_of(outfit.item_ids[:4]))
    rows = ev.timing_benchmark(models, [index], x, labels_pool=[0, 1, 2, 3, 4], repeats=30)
    by = {(r["variant"], r["m"]): r for r in rows}
    passes_ok = (all(by[("CR", m)]["forward_passes"] == 1 for m in range(1, 6))
                 and all(by[("st", m)]["forward_passes"] == m for m in range(1, 6)))
    cst_ratio = by[("CR", 5)]["median_seconds"] / by[("CR", 1)]["median_seconds"]
    st_ratio = by[("st", 5)]["median_seconds"] / by[("st", 1)]["median_seconds"]
    ci = ev.ComplexityInputs
    calc = ev.complexity_calc
    formulas_ok = (calc(ci(p=10, q=2, m=4), "proposed") == 18
                   and calc(ci(p=10, q=2, m=4), "set-transformer") == 48
                   and calc(ci(p=10, q=2, m=3, l=7), "bilstm") == 336
                   and calc(ci(p=10, q=2, m=1), "proposed") == 12
                   and calc(ci(p=10, q=2, m=1), "set-transformer") == 12)
    ok = passes_ok and cst_ratio <= 1.5 and st_ratio >= 3.0 and formulas_ok
    report("scaling", ok,
           f"forward passes (one-shot=1, sequential=M)={passes_ok}; t(5)/t(1) one-shot {cst_ratio:.2f} "
           f"<= 1.5, sequential {st_ratio:.2f} >= 3; worked formulas={formulas_ok}")


def test_10_determinism(tiny_data, tmp_path):
    catalog, outfits = tiny_data
    test = [o for o in split_outfits(outfits)["test"] if len(o.item_ids) >= 2]
    triples = triples_for(test, catalog, seed=6)
    index = build_index(catalog, item_ids=items_in(test))

    def run(tag):
        scorer, _, _ = train_matching(catalog, outfits, MatchConfig(dim=16, epochs=2, seed=5))
        params, history = train_cst(catalog, outfits, None,
                                    TrainConfig(variant="Cx", epochs=2, batch_size=8, dim=16,
                                                heads=4, slot_layers=1, sab_layers=1,
                                                categories=6, seed=6))
        s_path = tmp_path / f"scorer_{tag}.ckpt"
        c_path = tmp_path / f"cst_{tag}.ckpt"
        save_match_checkpoint(s_path, scorer)
        save_cst_checkpoint(c_path, params)
        rep_json, _ = ev.MetricsReport(seed=6, variants={"Cx": {
            "recall@32": ev.recall_at_k(params, triples, index, k=32),
            "accuracy": ev.category_accuracy(params, triples, index),
            "smd_raw": ev.smd(params, triples, scorer),
            "finb": ev.finb_eval(params, test, catalog, seed=6, selector="cst"),
        }}).save(tmp_path, stem=f"metrics_{tag}")
        return s_path.read_bytes(), c_path.read_bytes(), rep_json.read_bytes(), history

    s1, c1, r1, h1 = run("a")
    s2, c2, r2, h2 = run("b")
    ok = s1 == s2 and c1 == c2 and r1 == r2 and h1 == h2
    report("determinism", ok,
           f"scorer checkpoint bytes equal={s1 == s2}, model checkpoint bytes equal={c1 == c2}, "
           f"metric report bytes equal={r1 == r2}, epoch logs equal={h1 == h2}")
