import numpy as np
import pytest

import setcomplete as sc

TINY_GEN = sc.GenConfig(
    categories=6, styles=4, catalog_size=300, outfits=400, dim=16,
    min_size=3, max_size=5, seed=11,
)


@pytest.fixture(scope="session")
def tiny_data():
    return sc.generate_dataset(TINY_GEN)


@pytest.fixture(scope="session")
def tiny_scorer(tiny_data):
    catalog, outfits = tiny_data
    params, _, _ = sc.train_matching(
        catalog, outfits, sc.MatchConfig(dim=16, epochs=4, seed=3)
    )
    return params


@pytest.fixture(scope="session")
def tiny_model_config():
    return sc.ModelConfig(dim=16, heads=4, slot_layers=2, sab_layers=1, categories=6)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
