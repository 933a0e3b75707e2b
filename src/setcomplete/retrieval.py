"""Item feature index: exact and coarse-clustered approximate neighbor search.

Similarity is the dot product, which equals cosine on the unit-norm features
the models emit. Exact mode scans all candidates; approximate mode scans only
the members of the P clusters nearest to the query (k-means, fixed
iterations, seeded), kept as contiguous inverted lists, one per cluster and
category. Ranking ties break by ascending item id so results form a total
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import kernels
from .serialize import config_from_meta, load_arrays, reading, save_arrays
from .sets import l2_rows

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
# Every inverted-list product therefore runs over whole groups of LIST_PAD
# rows, reading into the next list or the LIST_PAD - 1 zero rows after the
# last, and keeps the first len scores, so each row is scored as in a full scan.
LIST_PAD = 4


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


class RetrievalIndex:
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
        self.ids = np.asarray(ids, dtype=np.int64)
        self.features = np.ascontiguousarray(features, dtype=np.float64)
        self.categories = np.asarray(categories, dtype=np.int64)
        if self.ids.ndim != 1 or self.features.shape[0] != len(self.ids) or self.categories.shape != self.ids.shape:
            raise ValueError("ids, features and categories must align")
        if np.any(self.ids[1:] <= self.ids[:-1]):
            order = np.argsort(self.ids, kind="stable")
            self.ids, self.features, self.categories = self.ids[order], self.features[order], self.categories[order]
            if assignments is not None:
                assignments = assignments[order]
            if np.any(self.ids[1:] == self.ids[:-1]):
                raise ValueError("item ids must be unique")
        self.ann = ann
        self.centroids = centroids
        self.assignments = assignments
        if ann is not None and centroids is None:
            ann.validate()
            if ann.clusters > len(self.ids):
                raise ValueError("more clusters than items")
            self.centroids, self.assignments = _kmeans(self.features, ann)
        self._row = {int(i): r for r, i in enumerate(self.ids)}
        self._cats = np.unique(self.categories)
        self._cat_rows = {int(c): np.where(self.categories == c)[0] for c in self._cats}
        if self.assignments is not None:
            self._build_lists()

    def _build_lists(self) -> None:
        """Inverted lists: ids and features in (cluster, category, id) order.

        List (c, j), for cluster c and the j-th category in ``_cats``, holds
        rows ``_bounds[c * W + j]`` to ``_bounds[c * W + j + 1]`` (W categories);
        cluster c is rows ``_bounds[c * W]`` to ``_bounds[(c + 1) * W]``.
        """
        width = len(self._cats)
        key = np.asarray(self.assignments, dtype=np.int64) * width + np.searchsorted(self._cats, self.categories)
        order = np.argsort(key, kind="stable")  # ids ascend within each list
        self._bounds = np.zeros(self.centroids.shape[0] * width + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=len(self._bounds) - 1), out=self._bounds[1:])
        self._list_ids = self.ids[order]
        self._list_features = np.zeros((len(order) + LIST_PAD - 1, self.dim))
        # every index is in range; mode="clip" writes straight into `out`,
        # where the default mode="raise" fills a features-sized temporary first
        np.take(self.features, order, axis=0, out=self._list_features[: len(order)], mode="clip")
        # A full scan takes its last N % LIST_PAD rows, the largest ids, from
        # OpenBLAS's tail kernel; a product over those rows plus LIST_PAD
        # before them reproduces their similarities.
        tail = len(order) % LIST_PAD
        self._tail_id = self.ids[-tail] if tail else None
        self._tail_from = max(0, len(order) - tail - LIST_PAD)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def feature_of(self, item_id: int) -> np.ndarray:
        return self.features[self._row[int(item_id)]]

    def features_of(self, item_ids) -> np.ndarray:
        rows = [self._row[int(i)] for i in np.asarray(item_ids).reshape(-1)]
        return self.features[rows]

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

    def _scan_lists(self, query: np.ndarray, category_filter, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Ids and similarities of the items in the probed inverted lists.

        A query scans its category's list (every list, unfiltered) in the
        clusters whose centroids are nearest: ``ann.probes`` of them, and
        more in centroid order until min(k, |category|) items are found.
        Each list is one product over a contiguous slice.
        """
        if self.centroids is None:
            raise ValueError("index was built without clustering")
        width = len(self._cats)
        sims = self.centroids @ query
        order = kernels.topk_select(sims, np.arange(len(sims), dtype=np.int64), len(sims)) * width
        if category_filter is None:
            starts, ends = self._bounds[order], self._bounds[order + width]
        else:
            j = int(np.searchsorted(self._cats, int(category_filter)))
            if j == width or self._cats[j] != int(category_filter):
                return np.empty(0, dtype=np.int64), np.empty(0)
            starts, ends = self._bounds[order + j], self._bounds[order + j + 1]
        found = np.cumsum(ends - starts)
        probes = max(self.ann.probes, int(np.searchsorted(found, min(k, found[-1]))) + 1)
        starts, ends = starts[:probes], ends[:probes]
        total = int(np.sum(ends - starts))
        ids = np.empty(total, dtype=np.int64)
        out = np.empty(total + LIST_PAD - 1)
        n = 0
        for s, e in zip(starts.tolist(), ends.tolist()):
            # rounded up to whole LIST_PAD rows; the next list overwrites the extra scores
            padded = (e - s + LIST_PAD - 1) // LIST_PAD * LIST_PAD
            np.matmul(self._list_features[s : s + padded], query, out=out[n : n + padded])
            ids[n : n + e - s] = self._list_ids[s:e]
            n += e - s
        sims = out[:total]
        if self._tail_id is not None:
            fix = np.flatnonzero(ids >= self._tail_id)
            if len(fix):
                tail = self.features[self._tail_from :] @ query
                sims[fix] = tail[np.searchsorted(self.ids, ids[fix]) - self._tail_from]
        return ids, sims

    def query_knn(self, query: np.ndarray, k: int, category_filter: int | None = None, mode: str = "exact") -> list[tuple[int, float]]:
        """Ranked (item_id, similarity), descending, ties by ascending id.

        Approximate similarities, and exact ones without a filter, are bitwise
        those of ``features @ query``. A filtered exact query scores a gathered
        copy of the category's rows, which can differ in the last bit.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        query = np.asarray(query, dtype=np.float64)
        if mode == "approx":
            ids, sims = self._scan_lists(query, category_filter, k)
        elif mode == "exact":
            rows = slice(None) if category_filter is None else self._cat_rows.get(int(category_filter), [])
            ids, sims = self.ids[rows], self.features[rows] @ query
        else:
            raise ValueError(f"unknown mode {mode!r}")
        if len(ids) == 0:
            raise ValueError("no candidates after filtering")
        pick = kernels.topk_select(sims, ids, min(k, len(ids)))
        return [(int(ids[p]), float(sims[p])) for p in pick]

    def query_knn_batch(self, queries: np.ndarray, k: int, mode: str = "exact") -> list[np.ndarray]:
        """Unfiltered ids of the top-k neighbors for each query row."""
        queries = np.asarray(queries, dtype=np.float64)
        if mode == "exact":
            sims = self.similarities(queries)
            return [
                self.ids[kernels.topk_select(sims[i], self.ids, min(k, len(self.ids)))]
                for i in range(queries.shape[0])
            ]
        return [
            np.array([iid for iid, _ in self.query_knn(q, k, mode=mode)], dtype=np.int64)
            for q in queries
        ]

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
    """Index a catalog (optionally restricted to `item_ids`)."""
    if len(catalog.items) == 0:
        raise ValueError("empty catalog")
    if item_ids is not None:
        catalog = catalog.subset(item_ids)
    return RetrievalIndex(catalog.ids.copy(), catalog.features.copy(), catalog.categories.copy(), ann=ann_config)
