"""Quantitative evaluation: retrieval metrics, score differences, FINB,
diversity, timing, and the abstract complexity calculator.

Every metric is deterministic given its seed and frozen models, carries its
sample count, and serializes without timestamps so identical runs produce
identical reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .data import Catalog, Outfit, SplitTriple, split_outfit
from .matching import MatchParams, category_matched_negative, match_scores
from .model import (
    CSTParams,
    complete_batch,
    complete_ids,
    get_forward_count,
    reset_forward_count,
    st_sequential_complete,
)
from .retrieval import RetrievalIndex
from .serialize import write_csv, write_json
from .sets import FeatureSet

# Queries per scorer call in smd, and candidate sets per scorer call in finb_eval.
SCORE_BATCH = 64
# Category-matched negative candidate sets per FINB question.
FINB_NEGATIVES = 7
# Completion sizes that timing_benchmark times.
TIMING_M_VALUES = (1, 2, 3, 4, 5)


# -- model predictions over triples ---------------------------------------------


def predict_triples(
    params: CSTParams, triples: list[SplitTriple], batch_size: int = 64, slot_seed: int = 0
) -> list[np.ndarray]:
    """Output features for each triple, batched; gaussian slots use a fixed seed."""
    if params.variant == "st":
        raise ValueError("the sequential baseline predicts via st_sequential_complete")
    outputs: list[np.ndarray] = []
    for start in range(0, len(triples), batch_size):
        chunk = triples[start : start + batch_size]
        outputs.extend(complete_batch([t.x for t in chunk], [t.z for t in chunk], params, slot_seed))
    return outputs


def output_features(
    params: CSTParams, triples: list[SplitTriple], index: RetrievalIndex | None, slot_seed: int = 0
) -> list[np.ndarray]:
    """Each triple's output features, for any variant: `predict_triples` for
    the one-shot variants, and for the sequential baseline the features of
    the items `st_sequential_complete` retrieves from `index` (without an
    index, `predict_triples` refuses it)."""
    if params.variant != "st" or index is None:
        return predict_triples(params, triples, slot_seed=slot_seed)
    return [index.features_of(st_sequential_complete(t.x, t.z, params, index)) for t in triples]


def _predictions(model, triples: list[SplitTriple], index: RetrievalIndex | None) -> list[np.ndarray]:
    """Output features of a model (through `output_features`), or precomputed ones, one array per triple."""
    if isinstance(model, CSTParams):
        return output_features(model, triples, index)
    return [np.asarray(p, dtype=np.float64) for p in model]


# -- retrieval metrics --------------------------------------------------------------


def _rank(model, triples: list[SplitTriple], index: RetrievalIndex, k: int = 1) -> tuple[float, float, list[list[int]]]:
    """Recall@k, top-1 category accuracy and each triple's top-1 ids, from one
    ``ranked_ids(rows, k)`` call over every output row. A ranking's first id
    is ``query_knn(row, 1)``'s, as ``query_knn`` ranks in a total order."""
    if not triples:
        raise ValueError("no evaluation triples")
    preds = _predictions(model, triples, index)
    ranked = iter(index.ranked_ids(np.concatenate(preds), k))
    recalls, hits, top1 = [], 0, []
    for t, yhat in zip(triples, preds):
        rows = [next(ranked) for _ in yhat]
        truth = set(t.y.element_ids.tolist())
        recalls.append(len({i for ids in rows for i in ids} & truth) / len(truth))
        top1.append([ids[0] for ids in rows])
        hits += int(np.sum(index.categories_of(top1[-1]) == t.z))
    return float(np.mean(recalls)), hits / sum(len(t.z) for t in triples), top1


def recall_at_k(model, triples: list[SplitTriple], index: RetrievalIndex, k: int = 32) -> float:
    """Mean over triples of |retrieved-candidate union ∩ Y| / |Y|."""
    return _rank(model, triples, index, k)[0]


def top1_ids(index: RetrievalIndex, queries: np.ndarray) -> np.ndarray:
    """Nearest item per query row of a batch, ties by ascending id: each
    row's ``query_knn(row, 1)``, whatever else the batch holds, from one
    ``ranked_ids`` call."""
    return np.array([ids[0] for ids in index.ranked_ids(queries, 1)], dtype=index.ids.dtype)


def category_accuracy(model, triples: list[SplitTriple], index: RetrievalIndex) -> float:
    """Share of elements whose top-1 retrieved item has the requested category."""
    return _rank(model, triples, index)[1]


# -- set-matching score difference ----------------------------------------------------


def _score_gaps(completion_lists, triples: list[SplitTriple], scorer: MatchParams) -> list[np.ndarray]:
    """g(X, completion) - g(X, Y) per triple, one array per list of completions.

    Each chunk is one `match_scores` call over the completion lists and the
    targets, so each X is encoded and each g(X, Y) scored once, however many
    lists there are. Each list is encoded as its own batch, so a list's
    gaps do not depend on the others.
    """
    gaps = [[] for _ in completion_lists]
    for start in range(0, len(triples), SCORE_BATCH):
        chunk = triples[start : start + SCORE_BATCH]
        lists = [c[start : start + SCORE_BATCH] for c in completion_lists] + [[t.y.features for t in chunk]]
        *scores, s_true = match_scores(scorer, [t.x.features for t in chunk], lists)
        for out, s_hat in zip(gaps, scores):
            out.append(s_hat - s_true)
    return [np.concatenate(g) for g in gaps]


def _smd_report(gaps: np.ndarray, mode: str) -> dict:
    """The distribution of score gaps, one sample per triple."""
    return {
        "mean": float(gaps.mean()),
        "n": int(gaps.size),
        "mode": mode,
        "percentiles": {str(p): float(np.percentile(gaps, p)) for p in (5, 25, 50, 75, 95)},
        "samples": gaps.tolist(),
    }


def smd(model, triples: list[SplitTriple], scorer: MatchParams) -> dict:
    """Distribution of g(X, Yhat) - g(X, Y) over the raw output features Yhat.
    The `eval` block (`eval_metrics`) also scores the retrieved items."""
    if not triples:
        raise ValueError("no evaluation triples")
    return _smd_report(_score_gaps([_predictions(model, triples, None)], triples, scorer)[0], "raw")


def eval_metrics(preds, triples: list[SplitTriple], index: RetrievalIndex, scorer: MatchParams | None = None) -> dict:
    """The `eval` command's metric block over output features, from one ranking of each row: recall@32,
    accuracy, the retrieved and the target items' diversity, and with a scorer the retrieved and raw SMD."""
    recall, accuracy, top1 = _rank(preds, triples, index, 32)
    block: dict = {
        "recall@32": {"mean": recall, "n": len(triples)},
        "accuracy": {"mean": accuracy, "n": len(triples)},
        "diversity": _item_histogram((i for ids in top1 for i in ids), 100),
        "diversity_truth": target_histogram(triples),
    }
    if scorer is not None:
        retrieved, raw = _score_gaps([[index.features_of(ids) for ids in top1], preds], triples, scorer)
        block["smd"] = _smd_report(retrieved, "retrieved")
        block["smd_raw"] = _smd_report(raw, "raw")
    return block


def quick_val_metrics(params: CSTParams, triples, index: RetrievalIndex, scorer: MatchParams | None, k: int = 32, seed: int = 0) -> dict:
    """Per-epoch validation block: recall, accuracy and SMD of the output features."""
    preds = output_features(params, triples, index, slot_seed=seed)
    recall, accuracy, _ = _rank(preds, triples, index, k)
    val_smd = float(_score_gaps([preds], triples, scorer)[0].mean()) if scorer is not None else 0.0
    return {"val_recall": recall, "val_accuracy": accuracy, "val_smd": val_smd}


# -- fill-in-the-N-blank ---------------------------------------------------------------


def binomial_ci(successes: int, n: int, level: float = 0.95) -> tuple[float, float]:
    """Exact (Clopper-Pearson) confidence interval for a proportion."""
    from scipy.special import betaincinv  # not at module level: it costs an importer about 0.3 s and 26 MB

    if n <= 0:
        raise ValueError("need at least one trial")
    if not 0 <= successes <= n:
        raise ValueError(f"successes must lie in [0, {n}], got {successes}")
    if not 0 < level < 1:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    alpha = 1.0 - level
    low = 0.0 if successes == 0 else float(betaincinv(successes, n - successes + 1, alpha / 2))
    high = 1.0 if successes == n else float(betaincinv(successes + 1, n - successes, 1 - alpha / 2))
    return low, high


def finb_eval(
    model_or_scorer,
    outfits: list[Outfit],
    catalog: Catalog,
    seed: int = 0,
    selector: str = "scorer",
) -> dict:
    """Pick the true target among category-matched negatives.

    selector "scorer" ranks candidate sets by g(X, candidate); selector "cst"
    ranks by the sum of positionally aligned similarities to the generated
    features. The positive's position among the 8 candidates is randomized.
    """
    if selector not in ("scorer", "cst"):
        raise ValueError("selector must be 'scorer' or 'cst'")
    usable: list[tuple[SplitTriple, list[np.ndarray], int]] = []
    skipped = 0
    for outfit in outfits:
        if len(outfit.item_ids) < 2:
            skipped += 1
            continue
        rng = np.random.default_rng([seed, 5, outfit.outfit_id])
        triple = split_outfit(outfit, rng, catalog)
        if any(len(catalog.by_category[int(c)]) < 2 for c in triple.z):
            skipped += 1
            continue
        cand_ids = [np.asarray(triple.y.element_ids, dtype=np.int64)]
        for _ in range(FINB_NEGATIVES):
            cand_ids.append(category_matched_negative(cand_ids[0], triple.z, catalog.by_category, rng))
        order = rng.permutation(FINB_NEGATIVES + 1)
        usable.append((triple, [cand_ids[j] for j in order], int(np.where(order == 0)[0][0])))

    if not usable:
        raise ValueError("no usable outfits for the FINB task")

    correct = 0
    if selector == "cst":
        triples = [u[0] for u in usable]
        preds = _predictions(model_or_scorer, triples, None)
        for (triple, cands, pos), yhat in zip(usable, preds):
            sums = [float(np.sum(yhat * catalog.features_of(ids))) for ids in cands]
            correct += int(int(np.argmax(sums)) == pos)
    else:
        # each chunk scores every candidate of its questions against the question's X, encoded once
        per = FINB_NEGATIVES + 1
        step = max(1, SCORE_BATCH // per)
        for start in range(0, len(usable), step):
            chunk = usable[start : start + step]
            (scores,) = match_scores(
                model_or_scorer, [triple.x.features for triple, _, _ in chunk],
                [[catalog.features_of(ids) for _, cands, _ in chunk for ids in cands]],
                x_of=np.repeat(np.arange(len(chunk)), per),
            )
            for i, (_, _, pos) in enumerate(chunk):
                correct += int(int(np.argmax(scores[i * per : (i + 1) * per])) == pos)

    n = len(usable)
    low, high = binomial_ci(correct, n)
    return {
        "accuracy": correct / n,
        "correct": correct,
        "n": n,
        "skipped": skipped,
        "ci_low": low,
        "ci_high": high,
        "negatives": FINB_NEGATIVES,
        "selector": selector,
        "seed": seed,
    }


# -- diversity ----------------------------------------------------------------------


def _item_histogram(items, top: int) -> dict:
    """Counts of each item id, ranked by (count desc, id asc), with the top rows."""
    counts: dict[int, int] = {}
    for item in items:
        counts[int(item)] = counts.get(int(item), 0) + 1
    total = sum(counts.values())
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    top_rows = ranked[:top]
    return {
        "n_elements": total,
        "n_distinct": len(counts),
        "max_frequency": ranked[0][1] if ranked else 0,
        "top_share": sum(c for _, c in top_rows) / total if total else 0.0,
        "top": [[int(i), int(c)] for i, c in top_rows],
    }


def target_histogram(triples: list[SplitTriple], top: int = 100) -> dict:
    """The same histogram computed over the ground-truth target items."""
    return _item_histogram((item for t in triples for item in t.y.element_ids), top)


# -- timing -------------------------------------------------------------------------


def timing_benchmark(
    models: dict[str, CSTParams],
    indexes: list[RetrievalIndex],
    x: FeatureSet,
    labels_pool: list[int],
    repeats: int = 20,
) -> list[dict]:
    """Median completion time and forward-pass counts per (model, M, index).

    A completion is `complete_ids`, as `setcomplete complete` runs it: one
    model inference plus each element's nearest item within its label
    (sequential baseline: one inference and one query per step). Each of the
    `repeats` passes times every setting once, so a burst of host load is
    spread over all settings instead of landing on one.
    """
    if repeats < 3:
        raise ValueError("need at least 3 repeats for a stable median")
    settings = []
    for index in indexes:
        for name, params in models.items():
            for m in TIMING_M_VALUES:
                labels = [int(labels_pool[i % len(labels_pool)]) for i in range(m)]
                run = partial(complete_ids, x, labels, params, index)
                run()  # warmup pass
                reset_forward_count()
                run()
                settings.append(({"model": name, "variant": params.variant, "m": int(m),
                                  "index_size": len(index)}, run, get_forward_count()))
    times: list[list[float]] = [[] for _ in settings]
    for _ in range(repeats):
        for samples, (_, run, _) in zip(times, settings):
            t0 = time.perf_counter()
            run()
            samples.append(time.perf_counter() - t0)
    return [
        {**row, "median_seconds": float(np.median(samples)), "forward_passes": int(passes), "repeats": int(repeats)}
        for samples, (row, _, passes) in zip(times, settings)
    ]


# -- abstract complexity ----------------------------------------------------------------


@dataclass
class ComplexityInputs:
    p: float
    q: float
    m: int
    l: int = 0

    def validate(self, need_l: bool = False) -> "ComplexityInputs":
        if self.p <= 0 or self.q <= 0 or self.m <= 0:
            raise ValueError("p, q and m must be positive")
        if need_l:
            if self.l <= 0:
                raise ValueError("series length l must be positive")
            if self.m > self.l:
                raise ValueError("cannot miss more elements than the series holds")
        return self


def complexity_calc(inputs: ComplexityInputs, method: str) -> float:
    """Abstract cost of completing M elements under each architecture."""
    if method == "proposed":
        inputs.validate()
        return inputs.p + inputs.m * inputs.q
    if method == "set-transformer":
        inputs.validate()
        return inputs.m * (inputs.p + inputs.q)
    if method == "bilstm":
        inputs.validate(need_l=True)
        return (inputs.l - inputs.m) * inputs.l * (inputs.p + inputs.q)
    raise ValueError(f"unknown method {method!r}")


# -- report container ---------------------------------------------------------------------


@dataclass
class MetricsReport:
    seed: int
    variants: dict[str, dict] = field(default_factory=dict)

    def csv_rows(self) -> list[dict]:
        rows = []
        for variant, metrics in sorted(self.variants.items()):
            for metric, value in sorted(metrics.items()):
                if isinstance(value, dict):
                    n = value.get("n", "")
                    val = value.get("mean", value.get("accuracy", ""))
                else:
                    n, val = "", value
                rows.append({"variant": variant, "metric": metric, "value": val, "n": n, "seed": self.seed})
        return rows

    def save(self, out_dir: str | Path, stem: str = "metrics") -> tuple[Path, Path]:
        json_path = Path(out_dir) / f"{stem}.json"
        csv_path = Path(out_dir) / f"{stem}.csv"
        write_json(json_path, {"seed": self.seed, "variants": self.variants})
        write_csv(csv_path, self.csv_rows(), ("variant", "metric", "value", "n", "seed"))
        return json_path, csv_path
