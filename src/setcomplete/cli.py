"""Command-line entry point for the whole pipeline.

Subcommands: gen-data, index, train-match, train-cst, eval, finb, bench,
complete.
Each run that writes files writes a manifest (command, config, seed,
timestamps) into the output directory before doing work and records on exit
whether the run finished or failed. Existing output files are never
overwritten unless --force is given. Config files are flat
JSON dicts whose keys mirror the config dataclasses; command-line flags
override config values, which override defaults.

Set SETCOMPLETE_LOG=debug|info|warning to control verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    GenConfig,
    generate_dataset,
    items_in,
    read_catalog_jsonl,
    read_jsonl,
    split_outfits,
    triples_for,
    write_catalog_jsonl,
    write_jsonl,
)
from .evaluation import MetricsReport, eval_metrics, finb_eval, output_features, timing_benchmark
from .matching import MatchConfig
from .model import VARIANTS, build_variant, complete_ids
from .retrieval import RetrievalIndex, build_index
from .serialize import config_from_meta, reading, write_csv, write_json
from .sets import FeatureSet
from .training import (
    LOG_COLUMNS,
    TrainConfig,
    load_cst_checkpoint,
    load_match_checkpoint,
    save_cst_checkpoint,
    save_match_checkpoint,
    train_cst,
    train_matching,
)

log = logging.getLogger("setcomplete")


def _setup_logging() -> None:
    level = os.environ.get("SETCOMPLETE_LOG", "warning").lower()
    numeric = {"debug": logging.DEBUG, "info": logging.INFO, "warning": logging.WARNING,
               "error": logging.ERROR}.get(level, logging.WARNING)
    logging.basicConfig(level=numeric, format="%(levelname)s %(name)s: %(message)s")


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


@contextmanager
def _run(args, *outputs: str):
    """Wrap one file-writing subcommand; yields its output directory.

    Refuses, before writing anything, to overwrite any of `outputs` there
    without --force; then writes manifest.json as running, and on exit
    rewrites it with the finish time and a status of done or failed.
    """
    out_dir = Path(args.out)
    clashes = [str(out_dir / n) for n in outputs if (out_dir / n).exists()]
    if clashes and not args.force:
        raise FileExistsError(f"refusing to overwrite {', '.join(clashes)} (use --force)")
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": args.command, "out_dir": str(out_dir), "seed": args.seed,
        "config_path": args.config, "argv": sys.argv[1:], "version": __version__,
        "started_at": _now(), "finished_at": None, "status": "running",
    }
    write_json(out_dir / "manifest.json", manifest)
    status = "failed"
    try:
        yield out_dir
        status = "done"
    finally:
        manifest.update(finished_at=_now(), status=status)
        write_json(out_dir / "manifest.json", manifest)


def _load_config(args, cls):
    """Build a config dataclass from defaults, config file, then CLI flags."""
    path = getattr(args, "config", None)
    with reading(path or "command line"):
        values = json.loads(Path(path).read_text(encoding="utf-8")) if path else {}
        if not isinstance(values, dict):
            raise ValueError(f"a config file holds one JSON object, got {type(values).__name__}")
        if getattr(args, "seed", None) is not None:
            values["seed"] = args.seed
        if getattr(args, "variant", None) is not None and "variant" in {f.name for f in dataclasses.fields(cls)}:
            values["variant"] = args.variant
        return config_from_meta(cls, values, cls.__name__)


def _read_data(path: str):
    catalog, outfits = read_jsonl(path)
    if catalog is None:
        raise ValueError(f"{path}: no outfits found")
    return catalog, outfits


# -- subcommand handlers ----------------------------------------------------------


def cmd_gen_data(args) -> int:
    with _run(args, "outfits.jsonl", "catalog.jsonl") as out_dir:
        catalog, outfits = generate_dataset(_load_config(args, GenConfig))
        write_jsonl(out_dir / "outfits.jsonl", catalog, outfits)
        write_catalog_jsonl(out_dir / "catalog.jsonl", catalog)
        print(f"wrote {len(outfits)} outfits over {len(catalog)} items to {out_dir}")
    return 0


def cmd_index(args) -> int:
    with _run(args, "index.idx") as out_dir:
        catalog = read_catalog_jsonl(args.catalog)
        build_index(catalog).save(out_dir / "index.idx")
        print(f"wrote an exact index over {len(catalog.ids)} items to {out_dir / 'index.idx'}")
    return 0


def cmd_train_match(args) -> int:
    with _run(args, "scorer.ckpt", "match_log.csv", "finb_report.json") as out_dir:
        config = _load_config(args, MatchConfig)
        catalog, outfits = _read_data(args.data)
        params, history, finb = train_matching(
            catalog, outfits, config, log=lambda row: log.info("match epoch %s loss %.4f", row["epoch"], row["loss"])
        )
        save_match_checkpoint(out_dir / "scorer.ckpt", params, extra={"epochs": config.epochs})
        write_csv(out_dir / "match_log.csv", history, ("epoch", "loss"))
        write_json(out_dir / "finb_report.json", finb)
        print(f"scorer FINB accuracy {finb['accuracy']:.3f} (n={finb['n']}) -> {out_dir / 'scorer.ckpt'}")
    return 0


def cmd_train_cst(args) -> int:
    config = _load_config(args, TrainConfig)  # the checkpoint is named after its variant
    ckpt_name = f"cst_{config.variant}.ckpt"
    with _run(args, ckpt_name, "train_log.csv") as out_dir:
        catalog, outfits = _read_data(args.data)
        config.categories = max(config.categories, int(catalog.categories.max()) + 1)
        scorer = load_match_checkpoint(args.scorer)[0] if args.scorer else None
        params, history = train_cst(
            catalog, outfits, scorer, config,
            log=lambda row: log.info("epoch %s total %.4f val_recall %.3f", row["epoch"], row["total"], row["val_recall"]),
        )
        last = history[-1]
        save_cst_checkpoint(out_dir / ckpt_name, params, extra={"best_epoch": last["best_epoch"], "seed": config.seed})
        write_csv(out_dir / "train_log.csv", history, LOG_COLUMNS)
        print(f"trained {config.variant}: val recall {last['val_recall']:.3f} -> {out_dir / ckpt_name}")
    return 0


def _load_index_or_build(args, catalog, outfits) -> RetrievalIndex:
    if args.index:
        return RetrievalIndex.load(args.index)
    test = split_outfits(outfits)["test"]
    return build_index(catalog, item_ids=items_in(test))


def cmd_eval(args) -> int:
    with _run(args, "metrics.json", "metrics.csv") as out_dir:
        catalog, outfits = _read_data(args.data)
        params, _ = load_cst_checkpoint(args.checkpoint)
        index = _load_index_or_build(args, catalog, outfits)
        test = [o for o in split_outfits(outfits)["test"] if len(o.item_ids) >= 2]
        seed = args.seed or 0
        triples = triples_for(test, catalog, seed=seed)
        scorer = load_match_checkpoint(args.scorer)[0] if args.scorer else None
        block = eval_metrics(output_features(params, triples, index, slot_seed=seed), triples, index, scorer)
        MetricsReport(seed=seed, variants={params.variant: block}).save(out_dir)
        print(
            f"{params.variant}: recall@32 {block['recall@32']['mean']:.3f}, "
            f"accuracy {block['accuracy']['mean']:.3f} (n={len(triples)})"
        )
    return 0


def cmd_finb(args) -> int:
    with _run(args, "finb.json", "finb.csv") as out_dir:
        catalog, outfits = _read_data(args.data)
        test = split_outfits(outfits)["test"]
        seed = args.seed or 0
        results: dict[str, dict] = {}
        if args.scorer:
            scorer, _ = load_match_checkpoint(args.scorer)
            results["scorer"] = finb_eval(scorer, test, catalog, seed=seed, selector="scorer")
        if args.checkpoint:
            params, _ = load_cst_checkpoint(args.checkpoint)
            results[params.variant] = finb_eval(params, test, catalog, seed=seed, selector="cst")
        if not results:
            raise ValueError("provide --scorer and/or --checkpoint")
        MetricsReport(seed=seed, variants={k: {"finb": v} for k, v in results.items()}).save(out_dir, stem="finb")
        for name, res in results.items():
            print(f"{name}: FINB accuracy {res['accuracy']:.3f} (CI {res['ci_low']:.3f}-{res['ci_high']:.3f}, n={res['n']})")
    return 0


def cmd_bench(args) -> int:
    with _run(args, "bench.json", "bench.csv") as out_dir:
        seed = args.seed or 0
        sizes = [int(s) for s in args.sizes.split(",")] if args.sizes else [1000, 5000]
        gen = GenConfig(catalog_size=max(sizes), outfits=64, seed=seed)
        catalog, outfits = generate_dataset(gen)
        rng = np.random.default_rng(seed)
        x = FeatureSet(catalog.features_of(outfits[0].item_ids[:5]))
        labels_pool = sorted(set(int(c) for c in catalog.categories))
        models = {
            "cst": build_variant("CR", seed=seed),
            "st": build_variant("st", seed=seed),
        }
        indexes = [
            build_index(catalog, item_ids=[int(i) for i in rng.choice(catalog.ids, size=n, replace=False)])
            for n in sizes
        ]
        rows = timing_benchmark(models, indexes, x, labels_pool, repeats=args.repeats)
        write_json(out_dir / "bench.json", rows)
        write_csv(out_dir / "bench.csv", rows, sorted(rows[0]))
        cst = [r["median_seconds"] for r in rows if r["model"] == "cst"]
        print(f"cst median completion {np.median(cst) * 1e3:.2f} ms over {len(cst)} settings")
    return 0


def cmd_complete(args) -> int:
    if not (args.data or args.index):
        raise ValueError("provide --data or --index")
    query_catalog, query_outfits = read_jsonl(args.query)
    if len(query_outfits) != 1:
        raise ValueError("the query file must hold exactly one outfit line")
    if query_catalog is None:
        raise ValueError(f"{args.query}: the query outfit has no items")
    params, _ = load_cst_checkpoint(args.checkpoint)
    index = RetrievalIndex.load(args.index) if args.index else build_index(_read_data(args.data)[0])
    labels = [int(v) for v in args.labels.split(",") if v.strip() != ""]
    if not labels:
        raise ValueError("provide at least one category label")
    x = FeatureSet(
        query_catalog.features_of(query_outfits[0].item_ids),
        element_ids=np.asarray(query_outfits[0].item_ids, dtype=np.int64),
    )
    ids = complete_ids(x, labels, params, index, args.seed or 0)
    print(",".join(str(i) for i in ids))
    return 0


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setcomplete",
        description="Set completion: synthetic data, training, retrieval and evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", required=out_required, help="output directory")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    common(p)
    p.set_defaults(handler=cmd_gen_data)

    p = sub.add_parser("index", help="build an exact retrieval index file over a catalog")
    p.add_argument("--catalog", required=True, help="catalog JSONL file (gen-data's catalog.jsonl)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--force", action="store_true", help="overwrite existing outputs")
    p.set_defaults(handler=cmd_index, config=None, seed=None)  # nothing to configure or seed

    p = sub.add_parser("train-match", help="pretrain the compatibility scorer")
    common(p)
    p.add_argument("--data", required=True, help="outfits JSONL file")
    p.set_defaults(handler=cmd_train_match)

    p = sub.add_parser("train-cst", help="train a completion variant")
    common(p)
    p.add_argument("--data", required=True, help="outfits JSONL file")
    p.add_argument("--variant", choices=VARIANTS, default=None)
    p.add_argument("--scorer", help="frozen scorer checkpoint (required for CR/xR)")
    p.set_defaults(handler=cmd_train_cst)

    p = sub.add_parser("eval", help="retrieval metrics on the test split")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True, help="model checkpoint")
    p.add_argument("--scorer", help="scorer checkpoint for score-difference metrics")
    p.add_argument("--index", help="prebuilt index file (default: exact index over test items)")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("finb", help="fill-in-the-N-blank evaluation")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", help="model checkpoint (similarity-sum selection)")
    p.add_argument("--scorer", help="scorer checkpoint (score selection)")
    p.set_defaults(handler=cmd_finb)

    p = sub.add_parser("bench", help="timing benchmark across models and index sizes")
    common(p)
    p.add_argument("--sizes", help="comma-separated index sizes (default 1000,5000)")
    p.add_argument("--repeats", type=int, default=30)
    p.set_defaults(handler=cmd_bench)

    p = sub.add_parser("complete", help="complete a query outfit for given labels")
    p.add_argument("--data", help="outfits JSONL file whose items are indexed (not read with --index)")
    p.add_argument("--query", required=True, help="JSONL file with exactly one query outfit")
    p.add_argument("--labels", required=True, help="comma-separated category ids to fill")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--index", help="prebuilt index file (replaces --data)")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=cmd_complete)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        log.debug("traceback", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
