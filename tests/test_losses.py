import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setcomplete import autodiff as ad
from setcomplete.data import SplitTriple
from setcomplete.losses import LossConfig, batch_loss_graph, ce_inbatch, chamfer, sm_reg
from setcomplete.matching import MatchConfig, init_match_params, match_score
from setcomplete.model import ModelConfig, build_variant, embed_conditions
from setcomplete.sets import FeatureSet, pad_stack


def random_set(rng, n, dim=4):
    return FeatureSet(rng.standard_normal((n, dim)))


# -- chamfer ---------------------------------------------------------------------


def chamfer_by_enumeration(a, b):
    mins_a = [min(float(np.sum((row - other) ** 2)) for other in b) for row in a]
    mins_b = [min(float(np.sum((row - other) ** 2)) for other in a) for row in b]
    return float(np.sum(np.array(mins_a)) + np.sum(np.array(mins_b)))


def test_chamfer_identical_sets_is_zero(rng):
    x = random_set(rng, 3)
    assert chamfer(x, x) == 0.0


def test_chamfer_hand_oracle():
    x = FeatureSet(np.array([[0.0, 0.0], [1.0, 0.0]]))
    y = FeatureSet(np.array([[0.0, 0.0]]))
    assert chamfer(x, y) == 1.0


def test_chamfer_matches_enumeration_on_small_sets(rng):
    for na, nb in itertools.product(range(1, 5), range(1, 5)):
        a = rng.standard_normal((na, 3))
        b = rng.standard_normal((nb, 3))
        got = chamfer(FeatureSet(a), FeatureSet(b))
        assert got == chamfer_by_enumeration(a, b)


def test_chamfer_is_symmetric(rng):
    x = random_set(rng, 4)
    y = random_set(rng, 6)
    assert chamfer(x, y) == chamfer(y, x)


def test_chamfer_rejects_empty(rng):
    x = random_set(rng, 2)
    with pytest.raises(ValueError):
        chamfer(x, FeatureSet(np.zeros((0, 4))))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), na=st.integers(1, 4), nb=st.integers(1, 4))
def test_chamfer_nonnegative_property(seed, na, nb):
    r = np.random.default_rng(seed)
    a, b = r.standard_normal((na, 3)), r.standard_normal((nb, 3))
    assert chamfer(FeatureSet(a), FeatureSet(b)) >= 0.0


# -- in-batch cross-entropy ---------------------------------------------------------


def ce_by_brute_force(yhat, ytrue, universe, temperature):
    total = 0.0
    for pred, target in zip(yhat, ytrue):
        logits = universe @ pred / temperature
        target_idx = next(i for i, u in enumerate(universe) if np.array_equal(u, target))
        total -= logits[target_idx] - np.log(np.sum(np.exp(logits)))
    return total / len(yhat)


def test_ce_single_candidate_is_zero(rng):
    y = random_set(rng, 1)
    yhat = random_set(rng, 1)
    assert ce_inbatch(yhat, y, y) == 0.0


def test_ce_symmetric_logits_give_ln2():
    universe = FeatureSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
    yhat = FeatureSet(np.array([[1.0, 1.0]]))
    ytrue = FeatureSet(np.array([[1.0, 0.0]]))
    assert abs(ce_inbatch(yhat, ytrue, universe) - np.log(2.0)) < 1e-12


def test_ce_matches_brute_force(rng):
    for temperature in (1.0, 0.2):
        universe_rows = rng.standard_normal((8, 4))
        ytrue_rows = universe_rows[[2, 5]]
        yhat_rows = rng.standard_normal((2, 4))
        got = ce_inbatch(
            FeatureSet(yhat_rows),
            FeatureSet(ytrue_rows),
            FeatureSet(universe_rows),
            LossConfig(temperature=temperature),
        )
        want = ce_by_brute_force(yhat_rows, ytrue_rows, universe_rows, temperature)
        assert abs(got - want) < 1e-12


def test_ce_rejects_target_missing_from_universe(rng):
    universe = random_set(rng, 4)
    ytrue = random_set(rng, 1)
    with pytest.raises(ValueError):
        ce_inbatch(random_set(rng, 1), ytrue, universe)


def test_ce_decreases_toward_target(rng):
    universe_rows = rng.standard_normal((6, 4))
    target = universe_rows[3]
    yhat = rng.standard_normal(4)
    step = 0.05 * (target - yhat)
    before = ce_inbatch(FeatureSet(yhat[None]), FeatureSet(target[None]), FeatureSet(universe_rows))
    after = ce_inbatch(FeatureSet((yhat + step)[None]), FeatureSet(target[None]), FeatureSet(universe_rows))
    assert after < before


# -- compatibility regularization ----------------------------------------------------


def probe_scorer(seed=0, dim=4, heads=2):
    """Frozen scorer with a randomized readout (the default readout is zero)."""
    scorer = init_match_params(MatchConfig(dim=dim, heads=heads))
    r = np.random.default_rng(seed)
    scorer.store.params["head_w2"][:] = r.normal(0.0, 0.5, size=(dim, 1))
    return scorer.freeze()


def test_sm_zero_gap_is_ln2(rng):
    scorer = probe_scorer()
    x = random_set(rng, 3)
    y = random_set(rng, 2)
    got = sm_reg(y, x, y, scorer)
    assert abs(got - np.log(2.0)) < 1e-12


def test_sm_matches_softplus_of_score_gap(rng):
    scorer = probe_scorer()
    x = random_set(rng, 3)
    ytrue = random_set(rng, 2)
    yhat = random_set(rng, 2)
    gap = match_score(x, ytrue, scorer) - match_score(x, yhat, scorer)
    assert gap != 0.0
    got = sm_reg(yhat, x, ytrue, scorer)
    assert abs(got - np.logaddexp(0.0, gap)) < 1e-12


def test_softplus_of_unit_gap():
    assert abs(float(ad.softplus(ad.const(np.array(1.0))).values) - 1.3132616875182228) < 1e-12


def test_sm_vanishes_when_completion_dominates():
    assert float(ad.softplus(ad.const(np.array(-40.0))).values) < 1e-12


def test_sm_gap_derivative_sign(rng):
    scorer = probe_scorer()
    x = random_set(rng, 3)
    ytrue = random_set(rng, 2)
    yhat_rows = rng.standard_normal((2, 4))

    store = ad.ParamStore()
    store.add("yhat", yhat_rows.copy())
    from setcomplete.losses import sm_graph

    node = sm_graph(
        scorer,
        *pad_stack([x.features]),
        ad.reshape(ad.param(store, "yhat"), (1, 2, 4)), np.ones((1, 2)),
        *pad_stack([ytrue.features]),
    )
    _, grads = ad.eval_and_grad(ad.Graph(node), store)
    g = grads["yhat"]
    probe = yhat_rows - 1e-4 * g
    before = sm_reg(FeatureSet(yhat_rows), x, ytrue, scorer)
    after = sm_reg(FeatureSet(probe), x, ytrue, scorer)
    assert after < before


def test_sm_requires_frozen_scorer(rng):
    scorer = init_match_params(MatchConfig(dim=4, heads=2))
    x = random_set(rng, 2)
    y = random_set(rng, 2)
    with pytest.raises(ValueError):
        sm_reg(y, x, y, scorer)


# -- combined loss ----------------------------------------------------------------


def make_triple(rng, params, n_x=4, m=2):
    labels = rng.integers(0, params.config.categories, size=m)
    x = FeatureSet(rng.standard_normal((n_x, params.config.dim)), element_ids=np.arange(n_x))
    y = FeatureSet(
        rng.standard_normal((m, params.config.dim)),
        element_ids=np.arange(100, 100 + m),
    )
    return SplitTriple(x=x, y=y, z=labels)


def test_total_alpha_zero_equals_ce(rng):
    config = ModelConfig(dim=4, heads=2, slot_layers=1, sab_layers=1, categories=5)
    params = build_variant("CR", config, seed=0)
    scorer = init_match_params(MatchConfig(dim=4, heads=2)).freeze()
    t = make_triple(rng, params)
    node, parts = batch_loss_graph(params, scorer, [t], LossConfig(alpha=0.0))
    assert float(node.values) == pytest.approx(float(parts["ce"].values), abs=1e-12)


def test_total_alpha_one_is_additive(rng):
    config = ModelConfig(dim=4, heads=2, slot_layers=1, sab_layers=1, categories=5)
    params = build_variant("CR", config, seed=0)
    scorer = init_match_params(MatchConfig(dim=4, heads=2)).freeze()
    t = make_triple(rng, params)
    node, parts = batch_loss_graph(params, scorer, [t], LossConfig(alpha=1.0))
    assert abs(float(node.values) - (float(parts["ce"].values) + float(parts["sm"].values))) < 1e-12
    node2, parts2 = batch_loss_graph(params, scorer, [t], LossConfig(alpha=2.5))
    assert abs(float(node2.values) - (float(parts2["ce"].values) + 2.5 * float(parts2["sm"].values))) < 1e-12


def test_frozen_scorer_receives_no_gradients(rng):
    config = ModelConfig(dim=4, heads=2, slot_layers=1, sab_layers=1, categories=5)
    params = build_variant("CR", config, seed=0)
    scorer = init_match_params(MatchConfig(dim=4, heads=2)).freeze()
    t = make_triple(rng, params)
    node, _ = batch_loss_graph(params, scorer, [t], LossConfig(alpha=1.0))
    graph = ad.Graph(node)
    _, grads = ad.eval_and_grad(graph, params.store)
    scorer_nodes = [n for n in graph.nodes if n.op == "param" and n.store is scorer.store]
    assert scorer_nodes and not any(n.requires_grad for n in scorer_nodes)
    assert any(np.abs(g).max() > 0 for g in grads.values())


def test_cr_requires_scorer(rng):
    config = ModelConfig(dim=4, heads=2, slot_layers=1, sab_layers=1, categories=5)
    params = build_variant("CR", config, seed=0)
    t = make_triple(rng, params)
    with pytest.raises(ValueError):
        batch_loss_graph(params, None, [t], LossConfig())


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        LossConfig(temperature=0.0)
