"""Item feature index: exact and coarse-clustered approximate neighbor search.

Similarity is the dot product, which equals cosine on the unit-norm features
the models emit. Items are stored as contiguous lists, one per cluster and
category (an index without clustering is one cluster). Exact mode scans
every list; approximate mode scans the lists of the P clusters nearest to
the query (k-means, fixed iterations, seeded). Ranking ties break by
ascending item id so results form a total order.

A query scores its lists in two passes. The first reads a float32 copy of
the features, half the bytes of the float64 rows. Each float32 score is
within a proven margin m of the float64 one, so only the rows scoring at
least the k-th best minus 2m can reach the top k. The second pass rescores
those few rows in float64, bitwise as a one-thread ``features @ query``.
Where no margin holds (non-finite or out-of-range values), every row is
rescored. The copy costs N * D * 4 bytes plus 8 per item for its id-order
row, next to the float64 rows kept in id order for ``similarities`` and
``save``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import kernels
from .serialize import config_from_meta, load_arrays, reading, save_arrays
from .sets import ItemTable, l2_rows, sort_items

INDEX_VERSION = 1
# Up to this many query rows, similarities are one vector-matrix product per
# row against a (D, N) copy of the features. OpenBLAS runs a matrix product of
# a few rows against the whole index on all its threads, and waking threads
# that have gone idle costs milliseconds (5 rows over 5k items on a 2-core VM:
# 9.8 ms after 30 ms idle, 0.5 ms on one thread); the vector-matrix products
# paid no such wake-up at 5k or 50k items. Completions ask for fewer rows
# than an outfit holds.
ROWWISE_MAX_ROWS = 8
# OpenBLAS's dgemv (Haswell kernels, 0.3.31) scores rows in groups of four and
# the last len % 4 rows of a product in a tail kernel. Measured on random
# rows, the tail kernel's result differs from the grouped one by 1 ulp on 39%
# of tail rows at feature length 8, 63% at 32 and 74% at 100 (none below 8).
# Rescoring therefore runs over the gathered rows padded with zero rows to
# whole groups of GROUP_ROWS, so each row is scored as in a one-thread
# `features @ query`.
GROUP_ROWS = 4
# Spans shorter than this on average (a filtered exact query over many
# clusters) are gathered and scored in one product instead of one product
# each: a product call costs about as much as gathering 100 float32 rows of
# 32 values (one thread, 2-core VM).
GATHER_SPAN_ROWS = 100
# Rows cast to the float32 copy at a time.
COPY_BLOCK = 4096


@dataclass
class AnnConfig:
    clusters: int = 64
    probes: int = 8
    iters: int = 10
    seed: int = 0

    def validate(self) -> "AnnConfig":
        if self.clusters < 1 or self.probes < 1 or self.iters < 1:
            raise ValueError("clusters, probes and iters must be positive")
        return self


def _kmeans(features: np.ndarray, config: AnnConfig) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(config.seed)
    start = rng.choice(features.shape[0], size=config.clusters, replace=False)
    centroids = features[np.sort(start)].copy()
    labels = kernels.assign_nearest(features, centroids)
    for _ in range(config.iters):
        for c in range(config.clusters):
            members = features[labels == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
        centroids = l2_rows(centroids)
        labels = kernels.assign_nearest(features, centroids)
    return centroids, labels


class RetrievalIndex(ItemTable):
    """Immutable set of items searchable by feature similarity.

    Rows are kept in ascending-id order: items given in another order are
    sorted, with their features, categories and cluster assignments.
    """

    def __init__(
        self,
        ids: np.ndarray,
        features: np.ndarray,
        categories: np.ndarray,
        ann: AnnConfig | None = None,
        centroids: np.ndarray | None = None,
        assignments: np.ndarray | None = None,
    ):
        self.ids, self.features, self.categories, assignments = sort_items(ids, features, categories, assignments)
        self.ann = ann
        self.centroids = centroids
        self.assignments = assignments
        if ann is not None and centroids is None:
            ann.validate()
            if ann.clusters > len(self.ids):
                raise ValueError("more clusters than items")
            self.centroids, self.assignments = _kmeans(self.features, ann)
        self._cats = np.unique(self.categories)
        self._cat_pos = {c: j for j, c in enumerate(self._cats.tolist())}
        self._build_lists()

    def _build_lists(self) -> None:
        """Lists: float32 features in (cluster, category, id) order, with the
        id-order row of each (``_list_rows``).

        List (c, j), for cluster c and the j-th category in ``_cats``, holds
        rows ``_bounds[c * W + j]`` to ``_bounds[c * W + j + 1]`` (W categories);
        cluster c is rows ``_bounds[c * W]`` to ``_bounds[(c + 1) * W]``.
        Without clustering, every item is in cluster 0.
        """
        width = len(self._cats)
        key = np.searchsorted(self._cats, self.categories)
        clusters = 1
        if self.assignments is not None:
            clusters = self.centroids.shape[0]
            key += np.asarray(self.assignments, dtype=np.int64) * width
        order = np.argsort(key, kind="stable")  # ids ascend within each list
        self._bounds = np.zeros(clusters * width + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=clusters * width), out=self._bounds[1:])
        self._list_rows = order
        self._list_f32 = np.empty(self.features.shape, dtype=np.float32)
        with np.errstate(over="ignore"):  # values past float32 get no margin
            for s in range(0, len(order), COPY_BLOCK):  # no features-sized temporary
                self._list_f32[s : s + COPY_BLOCK] = self.features[order[s : s + COPY_BLOCK]]
            # the largest row norm; NaN if any row holds NaN
            self._norm_max = math.sqrt(np.max(np.einsum("ij,ij->i", self.features, self.features), initial=0.0))
        # A full scan takes its last N % GROUP_ROWS rows, the largest ids, from
        # OpenBLAS's tail kernel; a product over those rows plus GROUP_ROWS
        # before them reproduces their similarities.
        self._tail_rows = len(self.ids) - len(self.ids) % GROUP_ROWS
        self._tail_from = max(0, self._tail_rows - GROUP_ROWS)

    def similarities(self, queries: np.ndarray) -> np.ndarray:
        """(Q, N) dot products of each query row with every indexed item."""
        queries = np.asarray(queries, dtype=np.float64)
        if queries.shape[0] > ROWWISE_MAX_ROWS:
            return queries @ self.features.T
        sims = np.empty((queries.shape[0], len(self.ids)))
        for row, query in zip(sims, queries):
            np.matmul(query, self._features_by_dim, out=row)
        return sims

    @cached_property
    def _features_by_dim(self) -> np.ndarray:
        """(D, N) copy of the features, made on the first row-wise product."""
        return np.ascontiguousarray(self.features.T)

    def _spans(self, query: np.ndarray, category_filter, k: int, mode: str) -> tuple[list[int], list[int]]:
        """Start and end rows of the lists a query scans.

        Exact mode scans every list as one span, or its category's list in an
        index without clustering (a clustered index reads a category through
        ``_category_rows``). Approximate mode scans the category's lists (all
        lists, unfiltered) in the clusters whose centroids are nearest:
        ``ann.probes`` of them, and more in centroid order until
        min(k, |category|) items are found.
        """
        if mode not in ("exact", "approx"):
            raise ValueError(f"unknown mode {mode!r}")
        width = len(self._cats)
        lo, hi = 0, width
        if category_filter is not None:
            lo = self._cat_pos.get(int(category_filter))
            if lo is None:
                return [], []
            hi = lo + 1
        if mode == "exact":
            if category_filter is None:  # every list, as one span
                return [0], [len(self.ids)]
            return [int(self._bounds[lo])], [int(self._bounds[hi])]
        if self.centroids is None:
            raise ValueError("index was built without clustering")
        sims = self.centroids @ query
        order = kernels.topk_select(sims, np.arange(len(sims), dtype=np.int64), len(sims)) * width
        starts, ends = self._bounds[order + lo], self._bounds[order + hi]
        found = np.cumsum(ends - starts)
        probes = max(self.ann.probes, int(np.searchsorted(found, min(k, found[-1]))) + 1)
        return starts[:probes].tolist(), ends[:probes].tolist()

    def _margin(self, query: np.ndarray) -> float | None:
        """Bound on |float32 score - float64 score| over every row, or None.

        Casting x and q to float32 and a float32 dot product over D terms,
        in any summation order, give sum_i x_i q_i (1 + t_i) with
        |t_i| <= g(D + 2), where g(n) = n u / (1 - n u) and u = 2**-24
        (Higham, "Accuracy and Stability of Numerical Algorithms", 2002,
        section 3.1). So |s32 - x.q| <= g(D + 2) |x| |q|. Using g(D + 4)
        leaves at least 2u |x| |q|, which covers the float64 product's own
        error and the rounding of the norms. Underflow adds at most 2**-150
        per cast or product: the absolute term. The bound needs norms in
        float32's normal range whose product it can hold; otherwise, and
        for NaN rows (their norm is NaN), there is none.
        """
        qn, xn, dim = math.sqrt(query @ query), self._norm_max, self.features.shape[1]
        if not (2.0**-126 <= qn < 2.0**126 and 2.0**-126 <= xn < 2.0**126 and qn * xn < 2.0**126):
            return None
        gamma = (dim + 4) * 2.0**-24 / (1.0 - (dim + 4) * 2.0**-24)
        return gamma * qn * xn + 2.0**-149 * (dim + math.sqrt(dim) * (qn + xn))

    def _rescore(self, rows: np.ndarray, query: np.ndarray) -> np.ndarray:
        """Float64 similarities of the id-order `rows`, bitwise as a one-thread ``features @ query``."""
        gathered = np.zeros((-(-len(rows) // GROUP_ROWS) * GROUP_ROWS, self.features.shape[1]))
        self.features.take(rows, axis=0, out=gathered[: len(rows)], mode="clip")
        with np.errstate(invalid="ignore"):  # inf * 0 where a query or row is not finite
            sims = (gathered @ query)[: len(rows)]
        if self._tail_rows < len(self.ids):
            fix = (rows >= self._tail_rows).nonzero()[0]
            sims[fix] = (self.features[self._tail_from :] @ query)[rows[fix] - self._tail_from]
        return sims

    @cached_property
    def _category_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """List rows in (category, cluster, id) order, and where each category starts.

        Made on the first filtered exact query of a clustered index: that
        query then reads its category's rows, one span in every cluster, with
        one gather of a slice of these rows.
        """
        width = len(self._cats)
        clusters = (len(self._bounds) - 1) // width
        category = np.repeat(np.tile(np.arange(width), clusters), np.diff(self._bounds))
        order = np.argsort(category, kind="stable")
        return order, np.searchsorted(category[order], np.arange(width + 1))

    def _scan_rows(self, query: np.ndarray, pos: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Ids and float64 similarities of the list rows `pos` that can reach the top k.

        The rows are gathered and scored in float32 by one product. With the
        k-th best of those scores t, a row scoring below t - 2m is beaten by k
        rows on the float64 score, so only the rest are rescored. Without a
        margin m, or with k at least the row count, every row is rescored.
        """
        margin = self._margin(query) if k < len(pos) else None
        if margin is not None:
            pos = pos[kernels.screen(self._list_f32[pos] @ query.astype(np.float32), k, 2.0 * margin)]
        rows = self._list_rows[pos]
        return self.ids[rows], self._rescore(rows, query)

    def _scan(self, query: np.ndarray, starts: list[int], ends: list[int], k: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_scan_rows` over the rows of the spans, in order.

        Many short spans are gathered as rows. One span is scored as a slice
        of the copy, and many long ones one product per span into one buffer.
        """
        lengths = [e - s for s, e in zip(starts, ends)]
        total = sum(lengths)
        if len(starts) > 1 and total < GATHER_SPAN_ROWS * len(starts):
            shift = np.subtract(starts, np.cumsum(lengths)) + lengths  # copy row = buffer position + its span's shift
            return self._scan_rows(query, np.repeat(shift, lengths) + np.arange(total), k)
        margin = self._margin(query) if k < total else None
        if margin is None:  # every row survives
            pos = np.concatenate([np.arange(s, e) for s, e in zip(starts, ends)])
        elif len(starts) == 1:
            scores = self._list_f32[starts[0] : ends[0]] @ query.astype(np.float32)
            pos = kernels.screen(scores, k, 2.0 * margin) + starts[0]
        else:
            query32 = query.astype(np.float32)
            offsets = np.cumsum(lengths)
            shift = np.subtract(starts, offsets) + lengths  # copy row = buffer position + its span's shift
            scores = np.empty(total, dtype=np.float32)
            for s, e, n in zip(starts, ends, (offsets - lengths).tolist()):
                np.matmul(self._list_f32[s:e], query32, out=scores[n : n + e - s])
            keep = kernels.screen(scores, k, 2.0 * margin)
            pos = keep + shift[np.searchsorted(offsets, keep, side="right")]
        rows = self._list_rows[pos]
        return self.ids[rows], self._rescore(rows, query)

    def query_knn(self, query: np.ndarray, k: int, category_filter: int | None = None, mode: str = "exact") -> list[tuple[int, float]]:
        """Ranked (item_id, similarity), descending, ties by ascending id.

        Similarities are bitwise those of a one-thread ``features @ query``.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        query = np.asarray(query, dtype=np.float64)
        if mode == "exact" and category_filter is not None and self.centroids is not None:
            j = self._cat_pos.get(int(category_filter))
            if j is None:
                raise ValueError("no candidates after filtering")
            order, first = self._category_rows
            ids, sims = self._scan_rows(query, order[first[j] : first[j + 1]], k)
        else:
            starts, ends = self._spans(query, category_filter, k, mode)
            if starts == ends:
                raise ValueError("no candidates after filtering")
            ids, sims = self._scan(query, starts, ends, k)
        pick = kernels.topk_select(sims, ids, min(k, len(ids)))
        return list(zip(ids[pick].tolist(), sims[pick].tolist()))

    def query_knn_batch(self, queries: np.ndarray, k: int) -> list[np.ndarray]:
        """Ids of the exact, unfiltered top-k neighbors of each query row."""
        sims = self.similarities(np.asarray(queries, dtype=np.float64))
        return [self.ids[kernels.topk_select(row, self.ids, min(k, len(self.ids)))] for row in sims]

    def save(self, path: str | Path) -> None:
        arrays = {"ids": self.ids, "features": self.features, "categories": self.categories}
        meta: dict = {"kind": "retrieval-index", "version": INDEX_VERSION, "ann": None}
        if self.centroids is not None:
            arrays["centroids"] = self.centroids
            arrays["assignments"] = self.assignments.astype(np.int64)
            meta["ann"] = {"clusters": self.ann.clusters, "probes": self.ann.probes,
                           "iters": self.ann.iters, "seed": self.ann.seed}
        save_arrays(path, arrays, meta)

    @classmethod
    def load(cls, path: str | Path) -> "RetrievalIndex":
        """Read an index written by :meth:`save`; a malformed file raises a one-line ValueError."""
        arrays, meta = load_arrays(path)
        with reading(path):
            if meta.get("kind") != "retrieval-index":
                raise ValueError("not a retrieval index file")
            if meta.get("version") != INDEX_VERSION:
                raise ValueError(f"unsupported index version {meta.get('version')}")
            ann = config_from_meta(AnnConfig, meta["ann"], "ann") if meta.get("ann") else None
            want = {"ids", "features", "categories"} | ({"centroids", "assignments"} if ann else set())
            missing, unknown = sorted(want - set(arrays)), sorted(set(arrays) - want)
            if missing or unknown:
                raise ValueError(f"index arrays missing {missing}, unknown {unknown}")
            features = arrays["features"]
            if features.ndim != 2:
                raise ValueError(f"field 'features' must be 2-D, got shape {features.shape}")
            if ann is not None:
                ann.validate()
                centroids, assignments = arrays["centroids"], arrays["assignments"]
                if centroids.shape != (ann.clusters, features.shape[1]):
                    raise ValueError(f"field 'centroids' has shape {centroids.shape}, "
                                     f"expected {(ann.clusters, features.shape[1])}")
                if (assignments.dtype != np.int64 or assignments.shape != arrays["ids"].shape
                        or not np.all((assignments >= 0) & (assignments < ann.clusters))):
                    raise ValueError(f"field 'assignments' must hold one cluster id in [0, {ann.clusters}) per item")
            return cls(arrays["ids"], features, arrays["categories"],
                       ann=ann, centroids=arrays.get("centroids"), assignments=arrays.get("assignments"))


def build_index(catalog, ann_config: AnnConfig | None = None, item_ids=None) -> RetrievalIndex:
    """Index a catalog (optionally restricted to `item_ids`).

    An index over the whole catalog shares the catalog's read-only arrays.
    """
    rows = slice(None) if item_ids is None else catalog.rows_of(np.unique(item_ids))
    return RetrievalIndex(catalog.ids[rows], catalog.features[rows], catalog.categories[rows], ann=ann_config)
