import csv
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setcomplete.matching import MatchConfig, init_match_params
from setcomplete.model import ModelConfig, build_variant
from setcomplete.retrieval import AnnConfig, RetrievalIndex
from setcomplete.evaluation import MetricsReport
from setcomplete.serialize import config_from_meta, pack_arrays, unpack_arrays, write_csv, write_json
from setcomplete.sets import l2_rows
from setcomplete.training import LOG_COLUMNS, load_cst_checkpoint, load_match_checkpoint, save_cst_checkpoint, save_match_checkpoint

LOADERS = {"cst": load_cst_checkpoint, "scorer": load_match_checkpoint, "index": RetrievalIndex.load}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """The bytes of one small valid file of each artifact kind."""
    root = tmp_path_factory.mktemp("artifacts")
    save_cst_checkpoint(root / "cst", build_variant("CR", ModelConfig(dim=8, heads=2, slot_layers=1, sab_layers=1,
                                                                      categories=4)))
    save_match_checkpoint(root / "scorer", init_match_params(MatchConfig(dim=8, heads=2, encoder_layers=1)).freeze())
    rng = np.random.default_rng(0)
    RetrievalIndex(np.arange(12), l2_rows(rng.standard_normal((12, 4))), np.arange(12) % 3,
                   ann=AnnConfig(clusters=3, probes=1, iters=2)).save(root / "index")
    return root, {kind: (root / kind).read_bytes() for kind in LOADERS}


def _load_as(root, kind, data: bytes):
    """Load `data` as an artifact of `kind`; a ValueError must be one line that starts with the path."""
    path = root / f"bad-{kind}"
    path.write_bytes(data)
    try:
        LOADERS[kind](path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ") and "\n" not in str(exc), str(exc)
        return str(exc)
    return None


def _with_header(data: bytes, edit) -> bytes:
    cut = data.index(b"\n")
    return json.dumps(edit(json.loads(data[:cut]))).encode() + data[cut:]


def _drop_key(header, key):
    return {k: v for k, v in header.items() if k != key}


@pytest.mark.parametrize("edit, message", [
    (lambda data: _with_header(data, lambda h: [1, 2]), "not a setcomplete array container"),
    (lambda data: _with_header(data, lambda h: {**h, "arrays": [{**e, "dtype": "<f4"} for e in h["arrays"]]}),
     "unsupported dtype '<f4'"),
    (lambda data: _with_header(data, lambda h: _drop_key(h, "arrays")), "'arrays' list"),
    (lambda data: data[: data.index(b"\n")], "no header line"),
    (lambda data: _with_header(data, lambda h: {**h, "meta": _drop_key(h["meta"], "variant")}), "unknown variant None"),
    (lambda data: _with_header(data, lambda h: {**h, "meta": {**h["meta"], "config": {"dim": "x"}}}),
     "'dim' must be int, got str"),
    (lambda data: b"\xff" + data[1:], "header is not JSON"),
], ids=["header-list", "dtype-f4", "no-arrays", "no-newline", "no-variant", "config-type", "not-utf8"])
def test_malformed_model_checkpoint_is_one_line_value_error(artifacts, edit, message):
    root, files = artifacts
    assert message in _load_as(root, "cst", edit(files["cst"]))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(LOADERS)), data=st.data())
def test_cut_or_corrupted_artifact_loads_or_raises_one_line_value_error(artifacts, kind, data):
    root, files = artifacts
    raw = files[kind]
    if data.draw(st.booleans(), label="cut"):
        bad = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        at = data.draw(st.integers(0, raw.index(b"\n")), label="header byte")
        bad = raw[:at] + bytes([data.draw(st.integers(0, 255), label="value")]) + raw[at + 1 :]
    _load_as(root, kind, bad)


def test_container_roundtrip_and_entry_checks():
    arrays = {"a": np.arange(6, dtype=np.float64).reshape(2, 3), "b": np.arange(3, dtype=np.int64)}
    back, meta = unpack_arrays(pack_arrays(arrays, {"k": 1}))
    assert meta == {"k": 1} and all(np.array_equal(back[n], arrays[n]) for n in arrays)
    data = pack_arrays(arrays)
    for edit, message in [
        (lambda h: {**h, "arrays": [{**h["arrays"][0], "shape": [2, -3]}, h["arrays"][1]]}, "malformed shape"),
        (lambda h: {**h, "arrays": [{**h["arrays"][0], "name": 7}, h["arrays"][1]]}, "malformed array entry"),
        (lambda h: {**h, "arrays": [{**h["arrays"][0], "dtype": ["<f8"]}, h["arrays"][1]]}, "unsupported dtype"),
    ]:
        with pytest.raises(ValueError, match=message):
            unpack_arrays(_with_header(data, edit))


def test_config_from_meta_checks_keys_and_value_types():
    assert config_from_meta(AnnConfig, {"clusters": 4}, "ann") == AnnConfig(clusters=4)
    assert config_from_meta(MatchConfig, {"learning_rate": 1}, "config").learning_rate == 1
    with pytest.raises(ValueError, match=r"ann has unknown keys \['depth'\]"):
        config_from_meta(AnnConfig, {"depth": 2}, "ann")
    with pytest.raises(ValueError, match="'probes' must be int, got float"):
        config_from_meta(AnnConfig, {"probes": 2.5}, "ann")
    with pytest.raises(ValueError, match="must be an object, got list"):
        config_from_meta(AnnConfig, [1], "ann")


def _old_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _old_csv(path, columns, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in columns})


def test_text_writers_keep_the_bytes_of_the_writers_they_replace(tmp_path):
    manifest = {"command": "eval", "out_dir": "runs/x", "seed": None, "config_path": None,
                "argv": ["eval", "--out", "runs/x"], "version": "0.1.0", "started_at": "2026-01-01T00:00:00",
                "finished_at": "2026-01-01T00:00:01", "status": "done"}
    write_json(tmp_path / "manifest.json", manifest)
    assert (tmp_path / "manifest.json").read_text(encoding="utf-8") == _old_json(manifest)

    report = MetricsReport(seed=3, variants={"CR": {"accuracy": 0.91, "smd": {"mean": -0.2, "n": 50}}})
    json_path, csv_path = report.save(tmp_path)
    report_dict = {"seed": report.seed, "variants": report.variants}
    assert json_path.read_text(encoding="utf-8") == _old_json(report_dict)
    _old_csv(tmp_path / "old_metrics.csv", ("variant", "metric", "value", "n", "seed"), report.csv_rows())
    assert csv_path.read_bytes() == (tmp_path / "old_metrics.csv").read_bytes()

    history = [{"epoch": e, "ce": 0.1 * e, "chamfer": 0.0, "sm": 1 / 3, "total": 2.5, "val_recall": 0.75,
                "val_accuracy": 1.0, "val_smd": -0.125} for e in range(3)]
    history[1].pop("val_smd")
    write_csv(tmp_path / "train_log.csv", history, LOG_COLUMNS)
    _old_csv(tmp_path / "old_train_log.csv", LOG_COLUMNS, history)
    assert (tmp_path / "train_log.csv").read_bytes() == (tmp_path / "old_train_log.csv").read_bytes()

    bench = [{"model": "cst", "variant": "CR", "m": m, "index_size": 120, "median_seconds": 1e-4 * m,
              "forward_passes": 1, "repeats": 3} for m in (1, 2)]
    write_json(tmp_path / "bench.json", bench)
    assert (tmp_path / "bench.json").read_text(encoding="utf-8") == _old_json(bench)
    write_csv(tmp_path / "bench.csv", bench, sorted(bench[0]))
    _old_csv(tmp_path / "old_bench.csv", sorted(bench[0]), bench)
    assert (tmp_path / "bench.csv").read_bytes() == (tmp_path / "old_bench.csv").read_bytes()
