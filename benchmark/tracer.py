"""Per-layer tracing from outside the program.

The tracer replaces public functions of the setcomplete modules with thin
wrappers, installed at the name each caller looks up (``losses.cst_graph``
as well as ``model.cst_graph``), and restores the originals afterwards. No
file of the program changes. Each wrapper records a span (name, start, end,
parent span, request id, stage) in memory; a layer's self time is its span
minus the spans of its children. Counts (tape nodes, forward passes,
retrieval candidates, kernel bytes) are recorded at the same boundaries.

A target that no longer exists is recorded in ``absent`` and skipped, so the
benchmark keeps running when a refactor removes or renames a function.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

KERNELS = (
    "attn_forward",
    "attn_backward",
    "layernorm_forward",
    "layernorm_backward",
    "topk_select",
    "assign_nearest",
)
MAB_BLOCKS = ("slot0", "slot1", "slot2", "sab0", "sab1", "enc0", "enc1", "cross")
COMPLETIONS = ("model.complete_features", "model.st_sequential_complete")
FORWARDS = ("model.cst_graph", "model.st_encode_graph")

# (module, attribute, span name). One span name may sit at several bindings:
# a function imported by name into another module is looked up there.
FUNCTION_TARGETS = (
    ("data", "generate_dataset", "data.generate_dataset"),
    ("data", "write_jsonl", "data.write_jsonl"),
    ("data", "read_jsonl", "data.read_jsonl"),
    ("data", "split_outfit", "data.split_outfit"),
    ("training", "split_outfit", "data.split_outfit"),
    ("evaluation", "split_outfit", "data.split_outfit"),
    ("training", "train_matching", "training.train_matching"),
    ("training", "train_cst", "training.train_cst"),
    ("training", "save_cst_checkpoint", "training.save_cst_checkpoint"),
    ("training", "load_cst_checkpoint", "training.load_cst_checkpoint"),
    ("losses", "batch_loss_graph", "losses.batch_loss_graph"),
    ("training", "batch_loss_graph", "losses.batch_loss_graph"),
    ("matching", "encode_graph", "matching.encode_graph"),
    ("losses", "encode_graph", "matching.encode_graph"),
    ("matching", "direction_graph", "matching.direction_graph"),
    ("losses", "direction_graph", "matching.direction_graph"),
    ("autodiff", "eval_and_grad", "autodiff.eval_and_grad"),
    ("autodiff", "sgd_step", "autodiff.sgd_step"),
    ("model", "complete_features", "model.complete_features"),
    ("evaluation", "complete_features", "model.complete_features"),
    ("model", "st_sequential_complete", "model.st_sequential_complete"),
    ("evaluation", "st_sequential_complete", "model.st_sequential_complete"),
    ("model", "st_encode", "model.st_encode"),
    ("model", "st_encode_graph", "model.st_encode_graph"),
    ("losses", "st_encode_graph", "model.st_encode_graph"),
    ("model", "cst_graph", "model.cst_graph"),
    ("evaluation", "cst_graph", "model.cst_graph"),
    ("losses", "cst_graph", "model.cst_graph"),
    ("layers", "mab_graph", "layers.mab_graph"),
    ("model", "mab_graph", "layers.mab_graph"),
    ("matching", "mab_graph", "layers.mab_graph"),
    ("retrieval", "build_index", "retrieval.build_index"),
    ("training", "build_index", "retrieval.build_index"),
    ("evaluation", "top1_ids", "evaluation.top1_ids"),
    ("evaluation", "predict_triples", "evaluation.predict_triples"),
    ("evaluation", "quick_val_metrics", "evaluation.quick_val_metrics"),
    ("evaluation", "finb_eval", "evaluation.finb_eval"),
) + tuple(("kernels", k, f"kernels.{k}") for k in KERNELS)


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    return 0


class _IndexShape:
    """Per-index tables for candidate counts: cluster sizes and cluster x category."""

    def __init__(self, index):
        self.index = index  # keeps the id() key alive
        self.n = len(index.ids)
        cats = np.asarray(index.categories, dtype=np.int64)
        self.cat_size = np.bincount(cats)
        self.ncat = len(self.cat_size)
        self.cluster_cat = None
        if getattr(index, "assignments", None) is not None and index.centroids is not None:
            k = index.centroids.shape[0]
            flat = np.asarray(index.assignments, dtype=np.int64) * self.ncat + cats
            self.cluster_cat = np.bincount(flat, minlength=k * self.ncat).reshape(k, self.ncat)

    def candidates(self, query, category_filter, mode) -> int:
        """Rows the index scans for this query, from its public fields."""
        f = None if category_filter is None else int(category_filter)
        if mode != "approx" or self.cluster_cat is None:
            if f is None:
                return self.n
            return int(self.cat_size[f]) if 0 <= f < self.ncat else 0
        sims = self.index.centroids @ np.asarray(query, dtype=np.float64)
        probes = min(self.index.ann.probes, len(sims))
        order = np.lexsort((np.arange(len(sims)), -sims))[:probes]
        if f is None:
            return int(self.cluster_cat[order].sum())
        return int(self.cluster_cat[order, f].sum()) if 0 <= f < self.ncat else 0


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        # span: [name, start, end, parent, request, stage]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.request = 0
        self.stage = "setup"
        self.units = defaultdict(int)  # stage -> how many set-ups / rounds were traced
        self.counters = defaultdict(float)  # (stage, name) -> summed count
        self.graph_nodes: list[int] = []  # nodes per Graph in train_cst steps
        self.forward_passes: dict[int, int] = defaultdict(int)  # completion span -> forward passes
        self.completion_m: dict[int, int] = {}  # completion span -> elements requested
        self._index_shapes: dict[int, _IndexShape] = {}

    # -- spans -----------------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request, self.stage])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _inside(self, names) -> int:
        for idx in reversed(self._stack):
            if self.spans[idx][0] in names:
                return idx
        return -1

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self

        if name == "layers.mab_graph":
            def wrapper(*args, **kwargs):
                params = args[3] if len(args) > 3 else kwargs.get("params")
                idx = tracer._enter(f"layers.mab_graph.{getattr(params, 'prefix', '?')}")
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(idx)
        elif name.startswith("kernels."):
            def wrapper(*args, **kwargs):
                idx = tracer._enter(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._exit(idx)
                tracer.counters[(tracer.stage, f"{name}.bytes")] += _nbytes(args) + _nbytes(out)
                return out
        else:
            def wrapper(*args, **kwargs):
                idx = tracer._enter(name)
                if name in FORWARDS:
                    owner = tracer._inside(COMPLETIONS)
                    if owner >= 0:
                        tracer.forward_passes[owner] += 1
                elif name in COMPLETIONS:
                    tracer.forward_passes[idx] = 0
                    labels = args[1] if len(args) > 1 else kwargs.get("labels")
                    tracer.completion_m[idx] = int(np.asarray(labels).size)
                elif name == "autodiff.eval_and_grad" and tracer._inside(("training.train_cst",)) >= 0:
                    graph = args[0] if args else kwargs.get("graph")
                    tracer.graph_nodes.append(len(graph.nodes))
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(idx)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_query(self, fn):
        tracer = self

        def query_knn(index, query, k, *args, **kwargs):
            category_filter = kwargs.get("category_filter", args[0] if args else None)
            mode = kwargs.get("mode", args[1] if len(args) > 1 else "exact")
            kind = "filtered" if category_filter is not None else mode
            idx = tracer._enter(f"retrieval.query_knn.{kind}")
            hits = 0
            try:
                out = fn(index, query, k, *args, **kwargs)
                hits = len(out)
                return out
            finally:
                tracer._exit(idx)
                shape = tracer._index_shapes.get(id(index))
                if shape is None:
                    shape = tracer._index_shapes[id(index)] = _IndexShape(index)
                stage = tracer.stage
                tracer.counters[(stage, f"retrieval.candidates.{kind}")] += shape.candidates(query, category_filter, mode)
                tracer.counters[(stage, f"retrieval.queries.{kind}")] += 1
                tracer.counters[(stage, f"retrieval.hits.{kind}")] += hits

        query_knn.__wrapped__ = fn
        return query_knn

    def install(self, modules: dict) -> "Tracer":
        """Wrap every target found in `modules` (short name -> module object)."""
        self.absent = []
        for mod_name, attr, span in FUNCTION_TARGETS:
            mod = modules.get(mod_name)
            fn = getattr(mod, attr, None) if mod is not None else None
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._patched.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, span))
        cls = getattr(modules.get("retrieval"), "RetrievalIndex", None)
        raw_load = cls.__dict__.get("load") if cls is not None else None
        if isinstance(raw_load, classmethod):
            self._patched.append((cls, "load", raw_load))
            setattr(cls, "load", classmethod(self._wrap(raw_load.__func__, "retrieval.load")))
        else:
            self.absent.append("retrieval.RetrievalIndex.load")
        query = cls.__dict__.get("query_knn") if cls is not None else None
        if query is not None:
            self._patched.append((cls, "query_knn", query))
            setattr(cls, "query_knn", self._wrap_query(query))
        else:
            self.absent.append("retrieval.RetrievalIndex.query_knn")
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self._index_shapes.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- aggregation -----------------------------------------------------------

    def completions(self) -> list[tuple[str, int, int]]:
        """(span name, forward passes, elements requested) per traced completion."""
        return [
            (self.spans[i][0], n, self.completion_m[i]) for i, n in self.forward_passes.items()
        ]

    def self_times(self) -> dict[tuple[str, str], dict]:
        """(stage, span name) -> calls, inclusive and self seconds."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        table: dict[tuple[str, str], dict] = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for i, (name, t0, t1, _, _, stage) in enumerate(self.spans):
            row = table[(stage, name)]
            row["calls"] += 1
            row["incl_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[i]
        return table

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer values, each for one set-up plus one round of timed work.

        Times are self seconds, except the two training drivers, which are
        inclusive and anchor the train self-time table. Stage totals are
        divided by the number of set-ups or rounds that were traced, so a
        value does not depend on how many rounds fit into the run.
        """
        table = self.self_times()
        per_unit: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (stage, name), row in table.items():
            n = self.units[stage] or 1
            key = "incl_s" if name in ("training.train_matching", "training.train_cst") else "self_s"
            per_unit[name]["s"] += row[key] / n
            per_unit[name]["calls"] += row["calls"] / n
        for (stage, name), value in self.counters.items():
            per_unit[name]["count"] += value / (self.units[stage] or 1)

        out: dict[str, tuple[float, str]] = {}
        for name in {name for _, name in table}:
            out[f"{name}.s"] = (per_unit[name]["s"], "s")
        for k in KERNELS:
            name = f"kernels.{k}"
            out[f"{name}.calls"] = (per_unit[name]["calls"], "count")
            out[f"{name}.bytes"] = (per_unit[f"{name}.bytes"]["count"], "bytes_computed")
        for block in MAB_BLOCKS:
            out.setdefault(f"layers.mab_graph.{block}.s", (0.0, "s"))
        out["autodiff.graph_nodes"] = (float(np.median(self.graph_nodes)) if self.graph_nodes else 0.0, "count")
        per_kind = defaultdict(list)
        for name, passes, _ in self.completions():
            per_kind[name].append(passes)
        for name, tag in (("model.complete_features", "cr"), ("model.st_sequential_complete", "st")):
            passes = per_kind.get(name)
            out[f"model.forward_passes.{tag}"] = (float(np.mean(passes)) if passes else 0.0, "count")
        sums = defaultdict(float)
        for (_, name), value in self.counters.items():
            sums[name] += value
        for kind in ("exact", "approx", "filtered"):
            queries = sums[f"retrieval.queries.{kind}"]
            cands = sums[f"retrieval.candidates.{kind}"]
            out[f"retrieval.candidates_per_query.{kind}"] = (cands / queries if queries else 0.0, "count")
        cands = sums["retrieval.candidates.approx"]
        out["retrieval.approx.useful_ratio"] = (sums["retrieval.hits.approx"] / cands if cands else 0.0, "ratio")
        return out

    def write(self, path) -> None:
        """All spans, one JSON array per line: name, start, end, parent, request, stage."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
