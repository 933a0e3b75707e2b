import csv
import json
from pathlib import Path

import numpy as np
import pytest

from setcomplete.cli import main
from setcomplete.data import GenConfig, generate_dataset, read_catalog_jsonl, read_jsonl, split_of, split_outfits, triples_for
from setcomplete.model import ModelConfig, build_variant, complete_ids
from setcomplete.retrieval import RetrievalIndex, build_index
from setcomplete.sets import FeatureSet
from setcomplete.training import load_cst_checkpoint, save_cst_checkpoint

GEN_CONFIG = {
    "categories": 6, "styles": 4, "catalog_size": 300, "outfits": 400,
    "dim": 16, "min_size": 3, "max_size": 5,
}
MATCH_CONFIG = {"dim": 16, "epochs": 2}
TRAIN_CONFIG = {
    "epochs": 2, "batch_size": 8, "dim": 16, "heads": 4,
    "slot_layers": 1, "sab_layers": 1, "categories": 6,
}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data -> train-match -> train-cst, shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    gen_cfg = write_config(root, "gen.json", GEN_CONFIG)
    assert main(["gen-data", "--config", gen_cfg, "--seed", "7", "--out", str(data_dir)]) == 0
    data = str(data_dir / "outfits.jsonl")

    match_dir = root / "match"
    match_cfg = write_config(root, "match.json", MATCH_CONFIG)
    assert main(["train-match", "--config", match_cfg, "--data", data, "--out", str(match_dir)]) == 0
    scorer = str(match_dir / "scorer.ckpt")

    model_dir = root / "model"
    train_cfg = write_config(root, "train.json", TRAIN_CONFIG)
    assert main([
        "train-cst", "--config", train_cfg, "--variant", "CR",
        "--data", data, "--scorer", scorer, "--out", str(model_dir),
    ]) == 0
    return root, data, scorer, str(model_dir / "cst_CR.ckpt")


def test_gen_data_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, "gen.json", GEN_CONFIG)
    for sub in ("a", "b"):
        assert main(["gen-data", "--config", cfg, "--seed", "7", "--out", str(tmp_path / sub)]) == 0
    for name in ("outfits.jsonl", "catalog.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_refuses_overwrite_without_force(tmp_path, capsys):
    cfg = write_config(tmp_path, "gen.json", GEN_CONFIG)
    out = str(tmp_path / "out")
    assert main(["gen-data", "--config", cfg, "--out", out]) == 0
    assert main(["gen-data", "--config", cfg, "--out", out]) == 1
    assert "refusing to overwrite" in capsys.readouterr().err
    assert main(["gen-data", "--config", cfg, "--out", out, "--force"]) == 0


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_unknown_config_key_is_one_line_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "gen.json", {**GEN_CONFIG, "sparkle": 1})
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "sparkle" in capsys.readouterr().err


@pytest.mark.parametrize("payload, message", [
    ([1, 2], "a config file holds one JSON object, got list"),
    ({**GEN_CONFIG, "noise": "high"}, "'noise' must be float, got str"),
], ids=["not-an-object", "wrong-type"])
def test_malformed_config_file_is_one_line_error_naming_it(tmp_path, capsys, payload, message):
    cfg = write_config(tmp_path, "gen.json", payload)
    assert main(["gen-data", "--config", cfg, "--seed", "3", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("field, value, message", [
    ("dim", 0, "dim must be at least 1, got 0"),
    ("outfits", -3, "outfits must be at least 0, got -3"),
    ("noise", float("nan"), "noise must be finite and at least 0, got nan"),
    ("noise", float("inf"), "noise must be finite and at least 0, got inf"),
], ids=["dim-0", "negative-outfits", "nan-noise", "inf-noise"])
def test_gen_data_rejects_a_bad_config_value_in_one_line(tmp_path, capsys, field, value, message):
    cfg = write_config(tmp_path, "gen.json", {**GEN_CONFIG, field: value})  # json writes NaN and Infinity
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out" / "outfits.jsonl").exists()


def test_pipeline_artifacts_and_manifest(pipeline):
    root, data, scorer, checkpoint = pipeline
    assert Path(scorer).exists()
    assert Path(checkpoint).exists()
    assert (root / "model" / "train_log.csv").exists()
    manifest = json.loads((root / "model" / "manifest.json").read_text())
    assert manifest["command"] == "train-cst"
    assert manifest["status"] == "done"
    assert manifest["finished_at"]
    finb_report = json.loads((root / "match" / "finb_report.json").read_text())
    assert 0.0 <= finb_report["accuracy"] <= 1.0


def test_eval_writes_metrics(pipeline, capsys):
    root, data, scorer, checkpoint = pipeline
    out = root / "eval"
    assert main(["eval", "--data", data, "--checkpoint", checkpoint, "--scorer", scorer, "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    block = metrics["variants"]["CR"]
    assert set(block) >= {"recall@32", "accuracy", "diversity", "smd", "smd_raw"}
    assert (out / "metrics.csv").read_text().startswith("variant,metric,value,n,seed")
    assert "recall@32" in capsys.readouterr().out


def test_eval_ranks_each_row_once(pipeline, tmp_path, monkeypatch):
    root, data, scorer, checkpoint = pipeline
    catalog, outfits = read_jsonl(data)
    test = [o for o in split_outfits(outfits)["test"] if len(o.item_ids) >= 2]
    rows = sum(len(t.z) for t in triples_for(test, catalog, seed=0))
    calls, ranked_ids, query_knn = [], RetrievalIndex.ranked_ids, RetrievalIndex.query_knn
    monkeypatch.setattr(RetrievalIndex, "ranked_ids", lambda self, q, k, *a: calls.append((len(q), k)) or ranked_ids(self, q, k, *a))
    monkeypatch.setattr(RetrievalIndex, "query_knn", lambda self, q, k, *a, **kw: calls.append(k) or query_knn(self, q, k, *a, **kw))
    assert main(["eval", "--data", data, "--checkpoint", checkpoint, "--scorer", scorer, "--out", str(tmp_path)]) == 0
    assert calls == [(rows, 32)]


def test_finb_command_reports_both_selectors(pipeline):
    root, data, scorer, checkpoint = pipeline
    out = root / "finb"
    assert main(["finb", "--data", data, "--scorer", scorer, "--checkpoint", checkpoint, "--out", str(out)]) == 0
    report = json.loads((out / "finb.json").read_text())
    assert {"scorer", "CR"} <= set(report["variants"])


def test_complete_prints_requested_ids(pipeline, tmp_path, capsys):
    root, data, scorer, checkpoint = pipeline
    lines = Path(data).read_text().splitlines()
    query = tmp_path / "query.jsonl"
    query.write_text(lines[0] + "\n")
    assert main(["complete", "--data", data, "--query", str(query),
                 "--labels", "1,3", "--checkpoint", checkpoint]) == 0
    printed = capsys.readouterr().out.strip()
    ids = [int(v) for v in printed.split(",")]
    assert len(ids) == 2


def test_one_shot_complete_retrieves_each_item_within_its_label(pipeline, tmp_path, capsys):
    # an untrained model's rows point anywhere: the category filter alone keeps each item in its label
    root, data, scorer, checkpoint = pipeline
    untrained = tmp_path / "untrained.ckpt"
    save_cst_checkpoint(untrained, build_variant("CR", ModelConfig(**load_cst_checkpoint(checkpoint)[1]["config"])))
    catalog, _ = read_jsonl(data)
    query = tmp_path / "query.jsonl"
    query.write_text(Path(data).read_text().splitlines()[0] + "\n")
    labels = [0, 1, 2, 3, 4, 5, 1]
    assert main(["complete", "--data", data, "--query", str(query),
                 "--labels", ",".join(map(str, labels)), "--checkpoint", str(untrained)]) == 0
    ids = [int(v) for v in capsys.readouterr().out.strip().split(",")]
    assert catalog.categories_of(ids).tolist() == labels


def test_complete_names_a_label_with_no_indexed_item(pipeline, tmp_path, capsys):
    root, data, scorer, checkpoint = pipeline
    catalog, _ = read_jsonl(data)
    index = tmp_path / "no5.idx"
    build_index(catalog, item_ids=catalog.ids[catalog.categories != 5]).save(index)
    query = tmp_path / "query.jsonl"
    query.write_text(Path(data).read_text().splitlines()[0] + "\n")
    assert main(["complete", "--data", data, "--query", str(query), "--labels", "1,5",
                 "--checkpoint", checkpoint, "--index", str(index)]) == 1
    err = capsys.readouterr().err
    assert err == "error: no indexed item has category 5\n"


def test_complete_with_an_index_needs_no_outfits_file(pipeline, tmp_path, capsys):
    root, data, scorer, checkpoint = pipeline
    catalog, _ = read_jsonl(data)
    index = tmp_path / "all.idx"
    build_index(catalog).save(index)
    query = tmp_path / "query.jsonl"
    query.write_text(Path(data).read_text().splitlines()[0] + "\n")
    args = ["--query", str(query), "--labels", "1,3,0", "--checkpoint", checkpoint]
    assert main(["complete", "--data", data, *args]) == 0
    from_data = capsys.readouterr().out
    assert main(["complete", "--index", str(index), *args]) == 0
    assert capsys.readouterr().out == from_data
    assert main(["complete", *args]) == 1
    assert capsys.readouterr().err == "error: provide --data or --index\n"


def test_complete_rejects_multi_outfit_query(pipeline, tmp_path, capsys):
    root, data, scorer, checkpoint = pipeline
    lines = Path(data).read_text().splitlines()
    query = tmp_path / "query.jsonl"
    query.write_text("\n".join(lines[:2]) + "\n")
    assert main(["complete", "--data", data, "--query", str(query),
                 "--labels", "1", "--checkpoint", checkpoint]) == 1
    assert "exactly one outfit" in capsys.readouterr().err


def test_complete_rejects_an_item_less_query_naming_the_file(pipeline, tmp_path, capsys):
    root, data, scorer, checkpoint = pipeline
    query = tmp_path / "query.jsonl"
    query.write_text('{"outfit_id": 1, "likes": 0, "items": []}\n')
    assert main(["complete", "--data", data, "--query", str(query),
                 "--labels", "1", "--checkpoint", checkpoint]) == 1
    err = capsys.readouterr().err
    assert str(query) in err and "NoneType" not in err


def test_train_cst_checkpoint_names_the_epoch_it_keeps(pipeline, tmp_path):
    root, data, scorer, checkpoint = pipeline
    lines = Path(data).read_text().splitlines()
    train_only = tmp_path / "train_only.jsonl"  # no val split: the lowest total is kept
    train_only.write_text("\n".join([ln for ln in lines if split_of(json.loads(ln)["outfit_id"]) == "train"][:64]))
    train_cfg = write_config(tmp_path, "train.json", {**TRAIN_CONFIG, "epochs": 4})
    out = tmp_path / "cx"
    assert main(["train-cst", "--config", train_cfg, "--variant", "Cx", "--data", str(train_only),
                 "--out", str(out)]) == 0
    for path, column, pick in ((Path(checkpoint), "val_recall", np.argmax), (out / "cst_Cx.ckpt", "total", np.argmin)):
        with open(path.parent / "train_log.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        want = int(pick([float(r[column]) for r in rows]))
        assert int(rows[-1]["best_epoch"]) == want
        assert load_cst_checkpoint(path)[1]["extra"]["best_epoch"] == want


def test_train_cst_names_a_train_split_smaller_than_one_batch(pipeline, tmp_path, capsys):
    root, data, scorer, checkpoint = pipeline
    train_cfg = write_config(tmp_path, "train.json", {**TRAIN_CONFIG, "batch_size": 1000})
    out = tmp_path / "cx"
    assert main(["train-cst", "--config", train_cfg, "--variant", "Cx", "--data", data, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: dataset too small to form a single batch\n"
    assert not (out / "cst_Cx.ckpt").exists()


def test_complete_and_eval_name_an_index_of_another_feature_length(pipeline, tmp_path, capsys):
    root, data, scorer, checkpoint = pipeline
    catalog, _ = generate_dataset(GenConfig(**{**GEN_CONFIG, "dim": 8}))
    index = tmp_path / "dim8.idx"
    build_index(catalog).save(index)
    query = tmp_path / "query.jsonl"
    query.write_text(Path(data).read_text().splitlines()[0] + "\n")
    assert main(["complete", "--index", str(index), "--query", str(query), "--labels", "1,3",
                 "--checkpoint", checkpoint]) == 1
    assert capsys.readouterr().err == "error: query has shape (16,), expected (8,)\n"
    assert main(["eval", "--data", data, "--checkpoint", checkpoint, "--index", str(index),
                 "--out", str(tmp_path / "eval")]) == 1
    assert capsys.readouterr().err == "error: query has shape (16,), expected (8,)\n"


def test_st_baseline_trains_and_evaluates(pipeline, capsys):
    root, data, scorer, checkpoint = pipeline
    train_cfg = write_config(root, "train_st.json", {**TRAIN_CONFIG, "epochs": 1})
    assert main(["train-cst", "--config", train_cfg, "--variant", "st", "--data", data,
                 "--out", str(root / "st")]) == 0
    out = root / "eval_st"
    assert main(["eval", "--data", data, "--checkpoint", str(root / "st" / "cst_st.ckpt"),
                 "--scorer", scorer, "--out", str(out)]) == 0
    block = json.loads((out / "metrics.json").read_text())["variants"]["st"]
    assert block["accuracy"]["mean"] == 1.0  # st retrieves within the requested category
    assert block["smd"]["samples"] == block["smd_raw"]["samples"]  # st's outputs are retrieved items
    assert "st: recall@32" in capsys.readouterr().out


def test_failed_command_marks_its_manifest_failed(pipeline, capsys):
    root, data, scorer, checkpoint = pipeline
    out = root / "eval_missing"
    assert main(["eval", "--data", data, "--checkpoint", str(root / "missing.ckpt"), "--out", str(out)]) == 1
    assert "missing.ckpt" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "eval"
    assert manifest["status"] == "failed"
    assert manifest["finished_at"]
    assert not (out / "metrics.json").exists()


def test_refused_overwrite_writes_nothing(tmp_path, capsys):
    cfg = write_config(tmp_path, "gen.json", GEN_CONFIG)
    out = tmp_path / "out"
    assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(before) == {"manifest.json", "outfits.jsonl", "catalog.jsonl"}
    assert main(["gen-data", "--config", cfg, "--seed", "9", "--out", str(out)]) == 1
    assert "refusing to overwrite" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_bench_smoke(tmp_path):
    out = tmp_path / "bench"
    assert main(["bench", "--sizes", "120", "--repeats", "3", "--out", str(out)]) == 0
    rows = json.loads((out / "bench.json").read_text())
    assert {r["model"] for r in rows} == {"cst", "st"}
    cst_rows = [r for r in rows if r["model"] == "cst"]
    assert all(r["forward_passes"] == 1 for r in cst_rows)
    st_rows = [r for r in rows if r["model"] == "st"]
    assert all(r["forward_passes"] == r["m"] for r in st_rows)
    assert (out / "bench.csv").exists()
    assert json.loads((out / "manifest.json").read_text())["status"] == "done"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def _index_args(catalog, out):
    return ["index", "--catalog", str(catalog), "--out", str(out)]


def test_index_file_serves_complete_and_eval_as_the_python_api_does(pipeline, tmp_path, capsys):
    root, data, scorer, checkpoint = pipeline
    catalog_path = root / "data" / "catalog.jsonl"
    assert main(_index_args(catalog_path, tmp_path / "idx")) == 0
    assert "exact index" in capsys.readouterr().out
    written = tmp_path / "idx" / "index.idx"
    catalog = read_catalog_jsonl(catalog_path)
    index = build_index(catalog)
    index.save(tmp_path / "api.idx")
    assert written.read_bytes() == (tmp_path / "api.idx").read_bytes()
    assert json.loads((tmp_path / "idx" / "manifest.json").read_text())["status"] == "done"

    st = tmp_path / "st.ckpt"
    save_cst_checkpoint(st, build_variant("st", ModelConfig(**load_cst_checkpoint(checkpoint)[1]["config"])))
    query_catalog, query_outfits = read_jsonl(data)
    items = query_outfits[0].item_ids
    x = FeatureSet(query_catalog.features_of(items), element_ids=np.asarray(items))
    query = tmp_path / "query.jsonl"
    query.write_text(Path(data).read_text().splitlines()[0] + "\n")
    labels = [1, 3, 0]
    for ckpt in (checkpoint, str(st)):
        assert main(["complete", "--index", str(written), "--query", str(query),
                     "--labels", ",".join(map(str, labels)), "--checkpoint", ckpt]) == 0
        printed = [int(v) for v in capsys.readouterr().out.strip().split(",")]
        assert printed == complete_ids(x, labels, load_cst_checkpoint(ckpt)[0], index)

    out = tmp_path / "eval"
    assert main(["eval", "--data", data, "--checkpoint", checkpoint, "--index", str(written), "--out", str(out)]) == 0
    assert "recall@32" in capsys.readouterr().out
    assert json.loads((out / "metrics.json").read_text())["variants"]["CR"]["recall@32"]["n"] > 0


def test_index_refuses_to_overwrite_and_writes_the_same_bytes_twice(pipeline, tmp_path, capsys):
    root = pipeline[0]
    catalog_path = root / "data" / "catalog.jsonl"
    assert main(_index_args(catalog_path, tmp_path / "a")) == 0
    before = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
    assert set(before) == {"manifest.json", "index.idx"}
    assert main(_index_args(catalog_path, tmp_path / "a")) == 1
    assert "refusing to overwrite" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()} == before
    assert main(_index_args(catalog_path, tmp_path / "b")) == 0
    assert (tmp_path / "b" / "index.idx").read_bytes() == before["index.idx"]
    assert main([*_index_args(catalog_path, tmp_path / "a"), "--force"]) == 0
    assert (tmp_path / "a" / "index.idx").read_bytes() == before["index.idx"]
    for flag in ("--seed", "--config"):  # an exact index has nothing to configure or seed
        with pytest.raises(SystemExit):
            main([*_index_args(catalog_path, tmp_path / "c"), flag, "1"])
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_index_names_a_malformed_catalog_line(pipeline, tmp_path, capsys):
    root = pipeline[0]
    lines = (root / "data" / "catalog.jsonl").read_text().splitlines()
    bad = tmp_path / "catalog.jsonl"
    bad.write_text("\n".join([lines[0], lines[1].replace('"category_id"', '"category"'), *lines[2:]]) + "\n")
    out = tmp_path / "idx"
    assert main(_index_args(bad, out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line 2: ") and err.count("\n") == 1
    assert not (out / "index.idx").exists()
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"
