import numpy as np
import pytest

from setcomplete.data import split_outfits, triples_for
from setcomplete.matching import (
    MatchConfig,
    category_matched_negative,
    init_match_params,
    match_score,
    match_scores,
    pretrain_matching,
)
from setcomplete.sets import FeatureSet


def random_set(rng, n, dim=16):
    return FeatureSet(rng.standard_normal((n, dim)))


def probe_params(dim=16, seed=0):
    """Scorer with a randomized readout (the default readout starts at zero)."""
    params = init_match_params(MatchConfig(dim=dim))
    r = np.random.default_rng(seed)
    params.store.params["head_w2"][:] = r.normal(0.0, 0.5, size=(dim, 1))
    return params


def test_score_is_bitwise_symmetric(rng):
    params = probe_params()
    for _ in range(10):
        x = random_set(rng, int(rng.integers(1, 6)))
        y = random_set(rng, int(rng.integers(1, 6)))
        assert match_score(x, y, params) == match_score(y, x, params)


def test_score_is_permutation_invariant(rng):
    params = probe_params()
    x = random_set(rng, 5)
    y = random_set(rng, 4)
    base = match_score(x, y, params)
    assert base != 0.0
    for _ in range(5):
        shuffled = match_score(x.permuted(rng.permutation(5)), y.permuted(rng.permutation(4)), params)
        assert abs(shuffled - base) < 1e-10


def test_batch_scores_match_single(rng):
    params = probe_params()
    xs = [random_set(rng, 3), random_set(rng, 5)]
    ys = [random_set(rng, 2), random_set(rng, 4)]
    (batch,) = match_scores(params, [x.features for x in xs], [[y.features for y in ys]])
    singles = [match_score(x, y, params) for x, y in zip(xs, ys)]
    assert np.allclose(batch, singles, atol=1e-10)


def test_untrained_scorer_is_indifferent(rng):
    params = init_match_params(MatchConfig(dim=16))
    x = random_set(rng, 4)
    y = random_set(rng, 3)
    assert match_score(x, y, params) == 0.0


def test_freeze_removes_grad_slots():
    params = init_match_params(MatchConfig(dim=16))
    assert not params.frozen
    params.freeze()
    assert params.frozen
    assert params.checksum() == params.checksum()


def test_pretraining_learns_style_coherence(tiny_data, tiny_scorer):
    catalog, outfits = tiny_data
    scorer = tiny_scorer
    assert scorer.frozen

    rng = np.random.default_rng(0)
    val = split_outfits(outfits)["val"]
    triples = triples_for(val, catalog, seed=2)[:80]
    margins = []
    for t in triples:
        x, y_true = t.x, t.y
        cats = t.z
        fake_rows = []
        for c in cats:
            pool = catalog.by_category[int(c)]
            fake_rows.append(catalog.features_of(int(rng.choice(pool))))
        y_fake = FeatureSet(np.array(fake_rows))
        margins.append(match_score(x, y_true, scorer) - match_score(x, y_fake, scorer))
    assert np.mean(margins) > 0.0


def test_pretraining_loss_decreases_across_seeds(tiny_data):
    catalog, outfits = tiny_data
    train = split_outfits(outfits)["train"][:150]
    wins = 0
    for seed in range(5):
        _, history = pretrain_matching(catalog, train, MatchConfig(dim=16, epochs=5, seed=seed))
        losses = [h["loss"] for h in history]
        wins += losses[-1] < losses[0]
    assert wins >= 4


def test_config_validation():
    with pytest.raises(ValueError):
        MatchConfig(dim=16, heads=5).validate()
    with pytest.raises(ValueError):
        MatchConfig(learning_rate=0.0).validate()
    with pytest.raises(ValueError):
        MatchConfig(epochs=0).validate()


def test_score_rejects_mismatched_dim(rng):
    params = init_match_params(MatchConfig(dim=16))
    with pytest.raises(ValueError):
        match_score(random_set(rng, 2, dim=8), random_set(rng, 2, dim=8), params)


def test_negatives_draw_what_rng_integers_draws(tiny_data):
    """Same picks, redraws included, and the generator left in the same state."""
    catalog, _ = tiny_data
    by_category = {**catalog.by_category, 99: np.array([7]), 98: np.array([3, 4])}  # one-item and two-item pools
    for seed in range(20):
        oracle, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        y = catalog.ids[oracle.integers(len(catalog.ids), size=6)]
        rng.integers(len(catalog.ids), size=6)
        y_ids, z = np.concatenate([y, [7, 3]]), np.concatenate([catalog.categories_of(y), [99, 98]])
        expected = []
        for item, cat in zip(y_ids, z):
            pool = by_category[int(cat)]
            pick = int(pool[oracle.integers(len(pool))])
            while len(pool) > 1 and pick == int(item):
                pick = int(pool[oracle.integers(len(pool))])
            expected.append(pick)
        assert category_matched_negative(y_ids, z, by_category, rng).tolist() == expected
        assert rng.bit_generator.state == oracle.bit_generator.state
