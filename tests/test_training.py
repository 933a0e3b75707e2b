import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from setcomplete import autodiff as ad
from setcomplete import evaluation
from setcomplete.data import Catalog, items_in, split_outfits, triples_for
from setcomplete.model import build_variant
from setcomplete.retrieval import RetrievalIndex, build_index
from setcomplete.serialize import load_arrays, save_arrays, write_csv
from setcomplete.training import (
    EVAL_K,
    LOG_COLUMNS,
    TrainConfig,
    load_cst_checkpoint,
    load_match_checkpoint,
    save_cst_checkpoint,
    save_match_checkpoint,
    train_cst,
)

SRC = Path(__file__).resolve().parent.parent / "src"

TINY_TRAIN = dict(
    epochs=2, batch_size=8, dim=16, heads=4, slot_layers=1, sab_layers=1, categories=6, seed=0
)


def tiny_config(**kw):
    merged = {**TINY_TRAIN, **kw}
    return TrainConfig(**merged)


def test_one_epoch_smoke_and_log_columns(tiny_data, tiny_scorer, tmp_path):
    catalog, outfits = tiny_data
    config = tiny_config(variant="CR", epochs=1)
    params, history = train_cst(catalog, outfits, tiny_scorer, config)
    assert params.variant == "CR"
    assert len(history) == 1
    assert set(LOG_COLUMNS) <= set(history[0])
    path = tmp_path / "log.csv"
    write_csv(path, history, LOG_COLUMNS)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == list(LOG_COLUMNS)
    assert len(rows) == 1


def test_ce_only_variant_logs_zero_sm(tiny_data):
    catalog, outfits = tiny_data
    params, history = train_cst(catalog, outfits, None, tiny_config(variant="Cx", epochs=1))
    assert history[0]["sm"] == 0.0
    assert history[0]["ce"] > 0.0


def test_chamfer_variant_folds_into_total(tiny_data, tmp_path):
    catalog, outfits = tiny_data
    params, history = train_cst(catalog, outfits, None, tiny_config(variant="xx", epochs=1))
    assert history[0]["ce"] == 0.0
    assert history[0]["total"] > 0.0
    path = tmp_path / "log.csv"
    write_csv(path, history, LOG_COLUMNS)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["chamfer"]) > 0.0
    assert float(rows[0]["chamfer"]) == history[0]["total"]


def test_sequential_baseline_trains_with_validation(tiny_data):
    catalog, outfits = tiny_data
    assert split_outfits(outfits)["val"]
    params, history = train_cst(catalog, outfits, None, tiny_config(variant="st", epochs=1))
    assert params.variant == "st"
    assert 0.0 < history[0]["val_recall"] <= 1.0
    assert history[0]["val_accuracy"] == 1.0  # st retrieves within the requested category


def test_training_is_bitwise_deterministic(tiny_data, tiny_scorer):
    catalog, outfits = tiny_data
    a, hist_a = train_cst(catalog, outfits, tiny_scorer, tiny_config(variant="CR"))
    b, hist_b = train_cst(catalog, outfits, tiny_scorer, tiny_config(variant="CR"))
    assert a.store.checksum() == b.store.checksum()
    assert hist_a == hist_b


def test_frozen_scorer_checksum_survives_training(tiny_data, tiny_scorer):
    catalog, outfits = tiny_data
    before = tiny_scorer.checksum()
    train_cst(catalog, outfits, tiny_scorer, tiny_config(variant="CR", epochs=1))
    assert tiny_scorer.checksum() == before


def test_nan_abort_names_epoch_and_batch(tiny_data, tiny_scorer):
    catalog, outfits = tiny_data
    config = tiny_config(variant="CR", epochs=1, learning_rate=1e200)
    with pytest.raises(ad.GradientError, match="epoch 0, batch"):
        train_cst(catalog, outfits, tiny_scorer, config)


def test_ce_variants_need_batch_of_two():
    with pytest.raises(ValueError):
        tiny_config(variant="CR", batch_size=1).validate()


def test_scorer_required_for_regularized_variants(tiny_data):
    catalog, outfits = tiny_data
    with pytest.raises(ValueError):
        train_cst(catalog, outfits, None, tiny_config(variant="CR", epochs=1))


def test_unfrozen_scorer_rejected(tiny_data):
    from setcomplete.matching import MatchConfig, init_match_params

    catalog, outfits = tiny_data
    live = init_match_params(MatchConfig(dim=16))
    with pytest.raises(ValueError):
        train_cst(catalog, outfits, live, tiny_config(variant="CR", epochs=1))


@pytest.mark.parametrize("relabel", [-1, 6])
def test_training_refuses_a_category_outside_the_embedding_table(tiny_data, tiny_scorer, relabel):
    catalog, outfits = tiny_data
    cats = np.where(catalog.categories == 0, relabel, catalog.categories)
    bad = Catalog(catalog.ids, cats, catalog.features, catalog.styles)
    for variant in ("CR", "st"):
        with pytest.raises(ValueError, match="^category id outside the embedding table$"):
            train_cst(bad, outfits, tiny_scorer, tiny_config(variant=variant, epochs=1))


def test_cst_checkpoint_roundtrip(tmp_path):
    params = build_variant("CR", None, seed=5)
    path = tmp_path / "model.ckpt"
    save_cst_checkpoint(path, params, extra={"note": "demo"})
    loaded, meta = load_cst_checkpoint(path)
    assert meta["variant"] == "CR"
    assert meta["extra"]["note"] == "demo"
    assert loaded.store.checksum() == params.store.checksum()
    assert loaded.config == params.config
    # identical params => identical bytes
    first = path.read_bytes()
    save_cst_checkpoint(path, params, extra={"note": "demo"})
    assert path.read_bytes() == first


def test_match_checkpoint_roundtrip_preserves_freeze(tmp_path, tiny_scorer):
    path = tmp_path / "scorer.ckpt"
    save_match_checkpoint(path, tiny_scorer)
    loaded, _ = load_match_checkpoint(path)
    assert loaded.frozen == tiny_scorer.frozen
    assert loaded.checksum() == tiny_scorer.checksum()


def _rewrite_checkpoint(path, edit):
    arrays, meta = load_arrays(path)
    edit(arrays)
    save_arrays(path, arrays, meta)


def test_match_checkpoint_missing_parameter_rejected(tmp_path, tiny_scorer):
    path = tmp_path / "scorer.ckpt"
    save_match_checkpoint(path, tiny_scorer)
    _rewrite_checkpoint(path, lambda arrays: arrays.pop("cross.wq"))
    with pytest.raises(ValueError, match=r"missing \['cross.wq'\]") as err:
        load_match_checkpoint(path)
    assert "\n" not in str(err.value)


def test_match_checkpoint_wrong_shape_rejected(tmp_path, tiny_scorer):
    path = tmp_path / "scorer.ckpt"
    save_match_checkpoint(path, tiny_scorer)
    _rewrite_checkpoint(path, lambda arrays: arrays.update(head_b1=np.zeros(1)))
    with pytest.raises(ValueError, match="shape mismatch for 'head_b1'") as err:
        load_match_checkpoint(path)
    assert "\n" not in str(err.value)


def test_checkpoint_kind_mismatch_rejected(tmp_path, tiny_scorer):
    path = tmp_path / "scorer.ckpt"
    save_match_checkpoint(path, tiny_scorer)
    with pytest.raises(ValueError):
        load_cst_checkpoint(path)


def test_best_epoch_weights_are_kept(tiny_data, tiny_scorer):
    catalog, outfits = tiny_data
    params, history = train_cst(catalog, outfits, tiny_scorer, tiny_config(variant="CR", epochs=3))
    recalls = [r["val_recall"] for r in history]
    assert [r["best_epoch"] for r in history] == [int(np.argmax(recalls[: e + 1])) for e in range(3)]
    val = [o for o in split_outfits(outfits)["val"] if len(o.item_ids) >= 2]
    kept = evaluation.quick_val_metrics(params, triples_for(val, catalog, seed=0),
                                        build_index(catalog, item_ids=items_in(val)), tiny_scorer, k=EVAL_K)
    assert kept["val_recall"] == recalls[history[-1]["best_epoch"]]


def test_quick_val_metrics_ranks_each_row_once(tiny_data, tiny_scorer, tiny_model_config, monkeypatch):
    catalog, outfits = tiny_data
    val = [o for o in split_outfits(outfits)["val"] if len(o.item_ids) >= 2]
    triples = triples_for(val, catalog, seed=0)
    index = build_index(catalog, item_ids=items_in(val))
    params = build_variant("CR", tiny_model_config, seed=0)
    want = evaluation.quick_val_metrics(params, triples, index, tiny_scorer, k=EVAL_K)
    calls, ranked_ids, query_knn = [], RetrievalIndex.ranked_ids, RetrievalIndex.query_knn
    monkeypatch.setattr(RetrievalIndex, "ranked_ids", lambda self, q, k, *a: calls.append((len(q), k)) or ranked_ids(self, q, k, *a))
    monkeypatch.setattr(RetrievalIndex, "query_knn", lambda self, q, k, *a, **kw: calls.append(k) or query_knn(self, q, k, *a, **kw))
    assert evaluation.quick_val_metrics(params, triples, index, tiny_scorer, k=EVAL_K) == want
    assert calls == [(sum(len(t.z) for t in triples), EVAL_K)]


def test_training_refuses_a_train_split_smaller_than_one_batch(tiny_data):
    # it used to run no step and return untrained parameters with a log of zero losses
    catalog, outfits = tiny_data
    train = [o for o in split_outfits(outfits)["train"] if len(o.item_ids) >= 2]
    with pytest.raises(ValueError, match="^dataset too small to form a single batch$"):
        train_cst(catalog, train[:7], None, tiny_config(variant="Cx", epochs=1))
    params, history = train_cst(catalog, train[:8], None, tiny_config(variant="Cx", epochs=1))
    assert history[0]["ce"] > 0.0
    assert params.store.checksum() != build_variant("Cx", tiny_config().model_config(), seed=0).store.checksum()


def test_without_a_val_split_the_lowest_total_epoch_is_kept(tiny_data):
    catalog, outfits = tiny_data
    train_only = split_outfits(outfits)["train"][:64]
    params, history = train_cst(catalog, train_only, None, tiny_config(variant="Cx", epochs=4))
    totals = [r["total"] for r in history]
    assert [r["best_epoch"] for r in history] == [int(np.argmin(totals[: e + 1])) for e in range(4)]
    best = history[-1]["best_epoch"]
    again, _ = train_cst(catalog, train_only, None, tiny_config(variant="Cx", epochs=best + 1))
    assert params.store.checksum() == again.store.checksum()


@pytest.mark.parametrize("kind", ["cst", "match"])
def test_checkpoint_unknown_config_key_rejected(tmp_path, tiny_scorer, tiny_model_config, kind):
    path = tmp_path / f"{kind}.ckpt"
    if kind == "cst":
        save_cst_checkpoint(path, build_variant("Cx", tiny_model_config))
        load = load_cst_checkpoint
    else:
        save_match_checkpoint(path, tiny_scorer)
        load = load_match_checkpoint
    arrays, meta = load_arrays(path)
    meta["config"]["depth"] = 3
    save_arrays(path, arrays, meta)
    with pytest.raises(ValueError, match=r"unknown keys \['depth'\]") as err:
        load(path)
    assert str(path) in str(err.value)
    assert "\n" not in str(err.value)


# the training run of acceptance gate 10, on the session's tiny data; saves both checkpoints to argv[1]
GATE_10_TRAINING = """
import sys
from pathlib import Path
import setcomplete as sc
from setcomplete.training import save_cst_checkpoint, save_match_checkpoint
catalog, outfits = sc.generate_dataset(sc.GenConfig(categories=6, styles=4, catalog_size=300, outfits=400, dim=16,
                                                    min_size=3, max_size=5, seed=11))
scorer, _, _ = sc.train_matching(catalog, outfits, sc.MatchConfig(dim=16, epochs=2, seed=5))
params, _ = sc.train_cst(catalog, outfits, None, sc.TrainConfig(variant="Cx", epochs=2, batch_size=8, dim=16, heads=4,
                                                                slot_layers=1, sab_layers=1, categories=6, seed=6))
save_match_checkpoint(Path(sys.argv[1]) / "scorer.ckpt", scorer)
save_cst_checkpoint(Path(sys.argv[1]) / "cst.ckpt", params)
"""


def test_checkpoint_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the BLAS reads its thread count once, when numpy loads, so each count needs a fresh interpreter
    checkpoints = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        out.mkdir()
        env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", GATE_10_TRAINING, str(out)], env=env,
                              capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        checkpoints[threads] = [(out / name).read_bytes() for name in ("scorer.ckpt", "cst.ckpt")]
    assert checkpoints["1"] == checkpoints["2"]
