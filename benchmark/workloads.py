"""The three workloads: train, serve and retrieve.

Each workload drives the program only through public functions of its
``data``, ``training``, ``model``, ``evaluation`` and ``retrieval`` modules,
looked up on the module at call time so that the tracer's wrappers see the
calls. A workload has a set-up (timed, repeated by the harness), a round of
fixed work that the harness repeats a fixed number of times, correctness
checks, and a report of its end-to-end metrics. ``round_s`` is a round's
nominal time on a two-core Xeon VM; the harness derives the round count
from it and ``--seconds``, so one seed always does the same operations.
DESIGN.md explains why each workload exists and which layers it stresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from tracer import Tracer

K = 32
UNIT_NORM_TOL = 1e-9
APPROX_RECALL_FLOOR = 0.95  # acceptance test 05's bound for unfiltered approximate search


def percentile(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


@dataclass
class Metric:
    name: str
    value: float
    unit: str
    n: int


@dataclass
class Phase:
    """Operations attempted, succeeded and failed, with one latency per success.

    Inputs repeat across rounds, so each input (`key`) is timed several
    times. `best` keeps each input's fastest time per operation: the median
    of those is the gated latency, which filters out the intervals in which
    other guests of a shared machine slow every core down.
    """

    attempted: int = 0
    failed: int = 0
    samples: list = field(default_factory=list)  # seconds per call that succeeded
    ops: list = field(default_factory=list)  # operations done by each such call
    keys: list = field(default_factory=list)  # input of each such call
    errors: dict = field(default_factory=dict)

    def best(self, per_op: bool = True) -> list[float]:
        """Fastest seconds per operation (or per call) of each input."""
        out: dict = {}
        for s, n, key in zip(self.samples, self.ops, self.keys):
            out[key] = min(out.get(key, np.inf), s / n if per_op else s)
        return list(out.values())

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed


class Recorder:
    """Times calls and counts failures per phase; a call that raises is a failed op."""

    def __init__(self, tracer: Tracer | None = None):
        self.phases: dict[str, Phase] = {}
        self.tracer = tracer

    def phase(self, name: str) -> Phase:
        return self.phases.setdefault(name, Phase())

    def op(self, phase: str, key, fn, n: int = 1):
        """Run `fn` on input `key` as `n` operations; returns its result, or None if it raised."""
        ph = self.phase(phase)
        ph.attempted += n
        if self.tracer is not None:
            self.tracer.request += 1
        t0 = perf_counter()
        try:
            out = fn()
        except Exception as exc:  # an operation that raises is counted, and the run goes on
            ph.failed += n
            reason = f"{type(exc).__name__}: {exc}"
            ph.errors[reason] = ph.errors.get(reason, 0) + n
            return None
        ph.samples.append(perf_counter() - t0)
        ph.ops.append(n)
        ph.keys.append(key)
        return out

    def reject(self, phase: str, reason: str) -> None:
        """Count the last successful call of `phase` as a failed operation."""
        ph = self.phase(phase)
        ph.failed += ph.ops.pop()
        ph.samples.pop()
        ph.keys.pop()
        ph.errors[reason] = ph.errors.get(reason, 0) + 1


def sorted_unique(hits) -> bool:
    """Ranked (id, similarity) list: similarity descending, id ascending, ids unique."""
    ids = [i for i, _ in hits]
    if len(set(ids)) != len(ids):
        return False
    keys = [(-s, i) for i, s in hits]
    return keys == sorted(keys)


def unit_rows_deviation(rows: np.ndarray) -> float:
    """Largest |norm - 1| over rows, or inf when any value is not finite."""
    if not np.all(np.isfinite(rows)):
        return float("inf")
    return float(np.abs(np.linalg.norm(rows, axis=1) - 1.0).max())


def latency_metrics(prefix: str, phase: Phase, scale: float, unit: str, p99: bool = True) -> list[Metric]:
    """p50 over inputs of each input's fastest time; p99 over every timed call."""
    n = len(phase.samples)
    out = [Metric(f"{prefix}_p50_{unit}", percentile(phase.best(), 50) * scale, unit, n)]
    if p99:
        out.append(Metric(f"{prefix}_p99_{unit}", percentile(phase.samples, 99) * scale, unit, n))
    return out


def ms_per_op(phase: Phase) -> float:
    """Median over inputs of the fastest milliseconds per operation."""
    return float(np.median(phase.best())) * 1e3


class Train:
    """train_matching then train_cst (CR), one epoch each, on each chunk of outfits per round."""

    name = "train"
    catalog_size = 2000  # the README quickstart catalog
    # Consecutive slices of the outfits, each trained by its own calls. With
    # 48 outfits a chunk holds 34 to 42 train-split outfits: one step at B=32
    # plus a validation pass, about 30 ms a call. The fastest of many short
    # calls is steady on a shared machine; the fastest of a few half-second
    # calls is not.
    chunk = 48
    chunks = 8
    epochs = 1
    round_s = 0.78

    def __init__(self, m: dict, seed: int, workdir):
        self.m, self.seed, self.workdir = m, seed, workdir
        self.val_recalls: dict[int, list[float]] = {}
        self.bad_losses: list[str] = []

    def setup(self):
        data = self.m["data"]
        catalog, outfits = data.generate_dataset(
            data.GenConfig(catalog_size=self.catalog_size, outfits=self.chunk * self.chunks, seed=self.seed)
        )
        path = self.workdir / "outfits.jsonl"
        data.write_jsonl(path, catalog, outfits)
        catalog, outfits = data.read_jsonl(path)
        chunks = [outfits[c * self.chunk:(c + 1) * self.chunk] for c in range(self.chunks)]
        return catalog, [(part, len(data.split_outfits(part)["train"])) for part in chunks]

    def round(self, state, rec: Recorder) -> None:
        catalog, chunks = state
        training = self.m["training"]
        match_cfg = self.m["setcomplete"].MatchConfig(epochs=self.epochs, seed=self.seed)
        cfg = training.TrainConfig(variant="CR", epochs=self.epochs, seed=self.seed)
        for c, (outfits, n_train) in enumerate(chunks):
            out = rec.op("train_matching", c, lambda o=outfits: training.train_matching(catalog, o, match_cfg),
                         n=n_train * self.epochs)
            if out is None:
                continue
            scorer, history, _ = out
            self._losses("train_matching", history, ("loss",))
            out = rec.op("train_cst", c, lambda o=outfits: training.train_cst(catalog, o, scorer, cfg),
                         n=n_train * self.epochs)
            if out is None:
                continue
            _, history = out
            self._losses("train_cst", history, ("ce", "sm", "total"))
            self.val_recalls.setdefault(c, []).append(max(float(row["val_recall"]) for row in history))

    def _losses(self, where: str, history, keys) -> None:
        for row in history:
            for key in keys:
                if not np.isfinite(row[key]):
                    self.bad_losses.append(f"{where} epoch {row['epoch']} {key}={row[key]}")

    def checks(self, state, rec: Recorder) -> list[Check]:
        recalls = self.val_recalls
        varying = [c for c, values in recalls.items() if len(set(values)) != 1]
        repeats = min((len(values) for values in recalls.values()), default=0)
        return [
            Check("training_losses_finite", not self.bad_losses, "; ".join(self.bad_losses[:3]) or "all finite"),
            Check("val_recall_identical_across_repeats",
                  len(recalls) == self.chunks and repeats >= 2 and not varying,
                  f"{len(recalls)} chunks, at least {repeats} repeats each, varying in chunks {varying}"),
        ]

    def report(self, rec: Recorder) -> tuple[list[Metric], dict[str, float]]:
        match, cst = rec.phase("train_matching"), rec.phase("train_cst")
        match_ms, cst_ms = ms_per_op(match), ms_per_op(cst)
        metrics = [
            Metric("match_examples_per_s", 1e3 / match_ms, "outfits/s", sum(match.ops)),
            Metric("train_examples_per_s", 1e3 / cst_ms, "outfits/s", sum(cst.ops)),
            # mean over chunks of each chunk's best val recall
            Metric("val_recall_at_32", float(np.mean([max(v) for v in self.val_recalls.values()])), "ratio",
                   sum(len(v) for v in self.val_recalls.values())),
        ]
        return metrics, {"main_ms": cst_ms, "alt_ms": match_ms}


class Serve:
    """One client, closed loop: single-query CR, sequential st, offline batches."""

    name = "serve"
    outfits = 10000  # about 1,000 test-split queries over the default 5,000-item catalog
    # Every round runs the same queries, so each is timed once per round.
    singles = 100
    sequentials = 100
    batches = 4
    batch_size = 256
    sample = 64
    round_s = 0.95

    def __init__(self, m: dict, seed: int, workdir):
        self.m, self.seed, self.workdir = m, seed, workdir
        self.worst_norm = 0.0
        self.st_wrong_len = 0

    def setup(self):
        data, model, training, retrieval = (self.m[k] for k in ("data", "model", "training", "retrieval"))
        catalog, outfits = data.generate_dataset(data.GenConfig(outfits=self.outfits, seed=self.seed))
        params = {}
        for variant in ("CR", "st"):
            path = self.workdir / f"{variant}.ckpt"
            training.save_cst_checkpoint(path, model.build_variant(variant, seed=self.seed))
            params[variant], _ = training.load_cst_checkpoint(path)
        index = retrieval.build_index(catalog)
        rng = np.random.default_rng([self.seed, 1])
        triples = [data.split_outfit(o, rng, catalog) for o in data.split_outfits(outfits)["test"]]
        return params, index, triples

    def round(self, state, rec: Recorder) -> None:
        params, index, triples = state
        model, evaluation = self.m["model"], self.m["evaluation"]
        cr, st = params["CR"], params["st"]

        for j in range(min(self.singles, len(triples))):
            def single(t=triples[j]):
                yhat = model.complete_features(t.x, t.z, cr)
                return yhat.features, evaluation.top1_ids(index, yhat.features)

            out = rec.op("complete", j, single)
            if out is not None:
                self.worst_norm = max(self.worst_norm, unit_rows_deviation(out[0]))

        for j in range(min(self.sequentials, len(triples))):
            t = triples[j]
            # one operation per element: each is a forward pass plus a retrieval
            ids = rec.op("st_complete", j, lambda t=t: model.st_sequential_complete(t.x, t.z, st, index),
                         n=len(t.z))
            if ids is not None and len(ids) != len(t.z):
                self.st_wrong_len += 1

        for b in range(self.batches):
            block = [triples[(b * self.batch_size + i) % len(triples)] for i in range(self.batch_size)]

            def batch(block=block):
                rows = np.concatenate(evaluation.predict_triples(cr, block, batch_size=self.batch_size))
                return rows, evaluation.top1_ids(index, rows)

            out = rec.op("batch", b, batch, n=len(block))
            if out is not None:
                self.worst_norm = max(self.worst_norm, unit_rows_deviation(out[0]))

    def checks(self, state, rec: Recorder) -> list[Check]:
        params, index, triples = state
        model, evaluation = self.m["model"], self.m["evaluation"]
        cr, st = params["CR"], params["st"]
        sample = triples[: self.sample]
        checks = [
            Check("completion_rows_finite_unit_norm", self.worst_norm <= UNIT_NORM_TOL,
                  f"max |norm-1| {self.worst_norm:.2e}"),
            Check("st_returns_one_id_per_element", self.st_wrong_len == 0, f"{self.st_wrong_len} wrong lengths"),
        ]
        single = [evaluation.top1_ids(index, model.complete_features(t.x, t.z, cr).features) for t in sample]
        batched = evaluation.predict_triples(cr, sample, batch_size=self.batch_size)
        mismatched = sum(
            not np.array_equal(a, evaluation.top1_ids(index, b)) for a, b in zip(single, batched)
        )
        checks.append(Check("batch_top1_equals_single_top1", mismatched == 0,
                            f"{mismatched} of {len(sample)} sample queries differ"))
        checks.append(forward_pass_check(self.m, lambda: [
            (model.complete_features(t.x, t.z, cr), model.st_sequential_complete(t.x, t.z, st, index))
            for t in sample[:16]
        ]))
        return checks

    def report(self, rec: Recorder) -> tuple[list[Metric], dict[str, float]]:
        complete, st, batch = rec.phase("complete"), rec.phase("st_complete"), rec.phase("batch")
        single = latency_metrics("complete", complete, 1e3, "ms")
        # the p50 per completion jumps with the M of the median query, so the gate is per element
        sequential = [
            Metric("st_complete_p50_ms", percentile(st.best(per_op=False), 50) * 1e3, "ms", len(st.samples)),
            Metric("st_element_p50_ms", ms_per_op(st), "ms", sum(st.ops)),
        ]
        batched = Metric("complete_batch_per_s", 1e3 / ms_per_op(batch), "queries/s", sum(batch.ops))
        return single + sequential + [batched], {"main_ms": single[0].value, "alt_ms": sequential[1].value}


def forward_pass_check(m: dict, run) -> Check:
    """Forward passes per completion, counted by the tracer's wrappers: 1 for CR, M for st."""
    with Tracer().install(m) as tracer:
        run()
    if any(name in tracer.absent for name in ("model.cst_graph", "model.st_encode_graph")):
        return Check("forward_passes_per_completion", True, "absent: a forward target is gone; not counted")
    rows = tracer.completions()
    bad = [
        (name, passes, m_)
        for name, passes, m_ in rows
        if passes != (1 if name == "model.complete_features" else m_)
    ]
    return Check("forward_passes_per_completion", bool(rows) and not bad,
                 f"{len(rows)} completions, {len(bad)} wrong: {bad[:3]}")


class Retrieve:
    """Exact, approximate and filtered approximate top-32 over 50,000 items."""

    name = "retrieve"
    catalog_size = 50000
    # Every round runs the same queries. An approximate query's cost depends
    # on the sizes of the clusters it probes, so the approximate phases use
    # more queries than the exact one, whose cost is the same for every query.
    queries = 256
    exact_queries = 40  # 26 rounds at --seconds 30 give the exact p99 its 1,000 samples
    round_s = 1.15

    def __init__(self, m: dict, seed: int, workdir):
        self.m, self.seed, self.workdir = m, seed, workdir
        self.unsorted = 0
        self.outside_category = 0
        self.first: dict | None = None  # first-round hits by phase, checked after the timed rounds
        self.recalls: list[float] = []

    def setup(self):
        data, retrieval = self.m["data"], self.m["retrieval"]
        catalog, _ = data.generate_dataset(
            data.GenConfig(catalog_size=self.catalog_size, outfits=0, seed=self.seed)
        )
        exact = retrieval.build_index(catalog)
        path = self.workdir / "ivf.index"
        retrieval.build_index(catalog, ann_config=retrieval.AnnConfig()).save(path)
        approx = retrieval.RetrievalIndex.load(path)
        rng = np.random.default_rng([self.seed, 2])
        rows = rng.integers(0, len(catalog), size=self.queries)
        noisy = catalog.features[rows] + 0.1 * rng.standard_normal((self.queries, catalog.features.shape[1]))
        queries = noisy / np.linalg.norm(noisy, axis=1, keepdims=True)
        categories = np.unique(approx.categories)
        sizes = {int(c): int((approx.categories == c).sum()) for c in categories}
        category_of = dict(zip(approx.ids.tolist(), approx.categories.tolist()))
        return exact, approx, queries, categories, sizes, category_of

    def round(self, state, rec: Recorder) -> None:
        exact, approx, queries, categories, sizes, category_of = state
        found = {"exact": [], "approx": []}
        for j in range(self.exact_queries):
            hits = rec.op("exact", j, lambda q=queries[j]: exact.query_knn(q, K))
            found["exact"].append(hits)
            if hits is not None:
                self.unsorted += not sorted_unique(hits)
        for j in range(len(queries)):
            hits = rec.op("approx", j, lambda q=queries[j]: approx.query_knn(q, K, mode="approx"))
            found["approx"].append(hits)
            if hits is not None:
                self.unsorted += not sorted_unique(hits)
        if self.first is None:  # a traced run repeats each round; keep the first pass
            self.first = found
        for j in range(len(queries)):
            # categories cycle independently of the query, as a user filtering by facet would
            cat = int(categories[j % len(categories)])
            hits = rec.op("filtered", j,
                          lambda q=queries[j], cat=cat: approx.query_knn(q, K, category_filter=cat, mode="approx"))
            if hits is None:
                continue
            self.unsorted += not sorted_unique(hits)
            self.outside_category += sum(category_of[iid] != cat for iid, _ in hits)
            if len(hits) < min(K, sizes[cat]):
                rec.reject("filtered", f"short result: fewer than min({K}, |category|) hits")

    def checks(self, state, rec: Recorder) -> list[Check]:
        """Compares the first round with a lexsort linear scan; also sets the recalls that report() uses."""
        exact, _, queries = state[:3]
        first = self.first or {"exact": [], "approx": []}
        truth = []
        for q in queries:
            sims = exact.features @ q
            truth.append([(int(exact.ids[i]), float(sims[i])) for i in np.lexsort((exact.ids, -sims))[:K]])
        exact_hits = [(hits, want) for hits, want in zip(first["exact"], truth) if hits is not None]
        mismatch = sum(hits != want for hits, want in exact_hits)
        self.recalls = [
            len({iid for iid, _ in hits} & {iid for iid, _ in want}) / K
            for hits, want in zip(first["approx"], truth)
            if hits is not None
        ]
        recall = float(np.mean(self.recalls)) if self.recalls else 0.0
        return [
            Check("exact_equals_lexsort_scan", bool(exact_hits) and mismatch == 0,
                  f"{mismatch} of {len(exact_hits)} exact queries of the first round differ"),
            Check("results_sorted_unique", self.unsorted == 0, f"{self.unsorted} result lists out of order"),
            Check("filtered_results_in_category", self.outside_category == 0,
                  f"{self.outside_category} hits outside the requested category"),
            Check("approx_recall_at_32_floor", recall >= APPROX_RECALL_FLOOR,
                  f"mean recall {recall:.4f} over {len(self.recalls)} queries (floor {APPROX_RECALL_FLOOR})"),
        ]

    def report(self, rec: Recorder) -> tuple[list[Metric], dict[str, float]]:
        exact, approx, filtered = rec.phase("exact"), rec.phase("approx"), rec.phase("filtered")
        exact_us = latency_metrics("exact_query", exact, 1e6, "us")
        approx_us = latency_metrics("approx_query", approx, 1e6, "us")
        recall = Metric("approx_recall_at_32", float(np.mean(self.recalls)), "ratio", len(self.recalls))
        metrics = exact_us + approx_us + [recall] + latency_metrics("filtered_query", filtered, 1e6, "us", p99=False)
        return metrics, {"main_ms": approx_us[0].value / 1e3, "alt_ms": exact_us[0].value / 1e3}


WORKLOADS = {w.name: w for w in (Train, Serve, Retrieve)}
