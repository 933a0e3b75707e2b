"""Item feature index: exact and coarse-clustered approximate neighbor search.

Similarity is the dot product, which equals cosine on the unit-norm features
the models emit. Items are stored as contiguous lists, one per cluster and
category (an index without clustering is one cluster). Exact mode scans
every list; approximate mode scans the lists of the P clusters nearest to
the query (k-means, fixed iterations, seeded). Ranking ties break by
ascending item id so results form a total order.

A query scores its lists in two passes. The first reads a float32 copy of
the features, half the bytes of the float64 rows, laid out by dimension so
that a block of query rows scores a list with one product. Each float32
score is within a proven margin m of the float64 one, so only the rows
scoring at least the k-th best minus 2m can reach the top k. The second
pass rescores those few rows in float64, bitwise as a one-thread
``features @ query``. Where no margin holds (non-finite or out-of-range
values), every row is rescored. The copy costs N * D * 4 bytes plus 8 per
item for its id-order row, next to the float64 rows kept in id order for
``save``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .serialize import config_from_meta, load_arrays, reading, save_arrays
from .sets import ItemTable, _integers, l2_rows, sort_items

INDEX_VERSION = 1
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
# Float32 scores held at once by ranked_ids: 2**20 values, 4 MB.
RANK_BLOCK_SCORES = 1 << 20
# k-means updates its centroids on at most this many rows per cluster, a
# seeded sample of a larger index; FAISS's `max_points_per_centroid` default
# (Johnson et al., "Billion-scale similarity search with GPUs", 2019). Over
# 50k items and 64 clusters the sample cuts the build about 3x; an index of
# at most this many rows per cluster is built exactly as without the cap.
MAX_POINTS_PER_CENTROID = 256


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
    """Centroids and every row's label after `config.iters` Lloyd updates.

    Above ``MAX_POINTS_PER_CENTROID * clusters`` rows the updates run on a
    seeded sample of that many rows; the last assignment labels every row.
    """
    rng = np.random.default_rng(config.seed)
    train, cap = features, MAX_POINTS_PER_CENTROID * config.clusters
    if features.shape[0] > cap:
        train = features[np.sort(rng.choice(features.shape[0], size=cap, replace=False))]
    start = rng.choice(train.shape[0], size=config.clusters, replace=False)
    centroids = train[np.sort(start)].copy()
    labels = kernels.assign_nearest(train, centroids)
    for i in range(config.iters):
        # one stable sort groups each cluster's rows in their original order,
        # so each mean sums the rows a `train[labels == c]` mask would give
        order = np.argsort(labels, kind="stable")
        grouped = train[order]
        ends = np.cumsum(np.bincount(labels, minlength=config.clusters)).tolist()
        for c, (s, e) in enumerate(zip([0] + ends[:-1], ends)):
            if e > s:  # an empty cluster keeps its centroid
                centroids[c] = grouped[s:e].mean(axis=0)
        centroids = l2_rows(centroids)
        labels = kernels.assign_nearest(train if i + 1 < config.iters else features, centroids)
    return centroids, labels


def _integer(value, name: str) -> int:
    """`value` as a Python int; anything but a Python or numpy integer raises ValueError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


class RetrievalIndex(ItemTable):
    """Immutable set of items searchable by feature similarity.

    Rows are kept in ascending-id order: items given in another order are
    sorted, with their features, categories and cluster assignments. With an
    AnnConfig and neither `centroids` nor `assignments`, k-means clusters the
    items; given, the two come together, one centroid per cluster and one
    cluster id per item, and a bad one raises a one-line ValueError.
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
        if (centroids is None) != (assignments is None) or (ann is None and centroids is not None):
            raise ValueError("centroids and assignments come together, with an AnnConfig")
        if ann is not None:
            ann.validate()
        if assignments is not None:  # checked before sort_items, which names no column that fails to align
            assignments = _integers(assignments, "assignments")
            if assignments.shape != np.shape(ids) or not np.all((assignments >= 0) & (assignments < ann.clusters)):
                raise ValueError(f"field 'assignments' must hold one cluster id in [0, {ann.clusters}) per item")
        self.ids, self.features, self.categories, assignments = sort_items(ids, features, categories, assignments=assignments)
        self.ann = ann
        self.centroids = centroids
        self.assignments = assignments
        if centroids is not None and np.shape(centroids) != (ann.clusters, self.dim):
            raise ValueError(f"field 'centroids' has shape {np.shape(centroids)}, expected {(ann.clusters, self.dim)}")
        if ann is not None and centroids is None:
            if ann.clusters > len(self.ids):
                raise ValueError("more clusters than items")
            self.centroids, self.assignments = _kmeans(self.features, ann)
        self._cats = np.unique(self.categories)
        self._cat_pos = {c: j for j, c in enumerate(self._cats.tolist())}
        self._build_lists()

    def _build_lists(self) -> None:
        """Lists: float32 features in (cluster, category, id) order, stored by
        dimension as a (D, N) array, with the id-order row of each (``_list_rows``).

        List (c, j), for cluster c and the j-th category in ``_cats``, holds
        columns ``_bounds[c * W + j]`` to ``_bounds[c * W + j + 1]`` (W
        categories); cluster c is columns ``_bounds[c * W]`` to
        ``_bounds[(c + 1) * W]``. Without clustering, every item is in cluster 0.
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
        self._list_f32 = np.empty(self.features.shape[::-1], dtype=np.float32)
        with np.errstate(over="ignore"):  # values past float32 get no margin
            for s in range(0, len(order), COPY_BLOCK):  # no features-sized temporary
                self._list_f32[:, s : s + COPY_BLOCK] = self.features[order[s : s + COPY_BLOCK]].T
            # the largest row norm; NaN if any row holds NaN
            self._norm_max = math.sqrt(np.max(np.einsum("ij,ij->i", self.features, self.features), initial=0.0))
        # A full scan takes its last N % GROUP_ROWS rows, the largest ids, from
        # OpenBLAS's tail kernel; a product over those rows plus GROUP_ROWS
        # before them reproduces their similarities.
        self._tail_rows = len(self.ids) - len(self.ids) % GROUP_ROWS
        self._tail_from = max(0, self._tail_rows - GROUP_ROWS)

    def _category(self, category_filter) -> int | None:
        """Position in ``_cats`` of a filtered category, or None without a filter."""
        if category_filter is None:
            return None
        category_filter = _integer(category_filter, "category_filter")
        cat = self._cat_pos.get(category_filter)
        if cat is None:
            raise ValueError(f"no indexed item has category {category_filter}")
        return cat

    def _spans(self, query: np.ndarray | None, cat: int | None, k: int, mode: str) -> tuple[np.ndarray, np.ndarray]:
        """Start and end columns of the lists a query scans, as int64 arrays;
        `cat` is the filtered category's position in ``_cats``, or None.

        Exact mode scans every list as one span, or its category's list in
        every cluster: one span per cluster, a single one without clustering.
        Approximate mode scans the category's lists (all lists, unfiltered)
        in the clusters whose centroids are nearest: ``ann.probes`` of them,
        and more in centroid order until min(k, |category|) items are found.
        Only approximate mode reads the query.
        """
        if mode not in ("exact", "approx"):
            raise ValueError(f"unknown mode {mode!r}")
        width = len(self._cats)
        lo, hi = (0, width) if cat is None else (cat, cat + 1)
        if mode == "exact":
            if cat is None:  # every list, as one span
                return self._bounds[:1], self._bounds[-1:]
            return self._bounds[lo:-1:width], self._bounds[hi::width]
        if self.centroids is None:
            raise ValueError("index was built without clustering")
        sims = self.centroids @ query
        order = kernels.topk_select(sims, np.arange(len(sims), dtype=np.int64), len(sims)) * width
        starts, ends = self._bounds[order + lo], self._bounds[order + hi]
        found = np.cumsum(ends - starts)
        probes = max(self.ann.probes, int(np.searchsorted(found, min(k, found[-1]))) + 1)
        return starts[:probes], ends[:probes]

    def _margins(self, queries: np.ndarray) -> list[float]:
        """Per row of the (R, D) `queries`, a bound on |float32 score - float64
        score| over every indexed row; infinite where none holds.

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
        xn, dim = self._norm_max, self.features.shape[1]
        if not 2.0**-126 <= xn < 2.0**126:
            return [math.inf] * len(queries)
        gamma = (dim + 4) * 2.0**-24 / (1.0 - (dim + 4) * 2.0**-24)
        norms = [math.sqrt(query @ query) for query in queries]
        return [gamma * qn * xn + 2.0**-149 * (dim + math.sqrt(dim) * (qn + xn))
                if 2.0**-126 <= qn < 2.0**126 and qn * xn < 2.0**126 else math.inf for qn in norms]

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

    def _ranked(self, rows: np.ndarray, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Ids and float64 similarities of the best k of the id-order `rows`, ranked."""
        ids, sims = self.ids[rows], self._rescore(rows, query)
        pick = kernels.topk_select(sims, ids, k)
        return ids[pick], sims[pick]

    def _scan(self, queries: np.ndarray, starts: np.ndarray, ends: np.ndarray, k: int) -> tuple[list[int], np.ndarray]:
        """The id-order item rows of the spans that can reach each query's top
        k, query after query, with how many each query keeps.

        Every row of the (R, D) `queries` reads the same spans, so the block is
        scored in float32 by one product: over one span, a slice of the copy;
        over spans averaging under GATHER_SPAN_ROWS rows, their gathered
        columns; over longer spans, one product per span into one buffer.
        With a query's k-th best score t and its margin m, a row scoring below
        t - 2m is beaten by k rows on the float64 score, so the screen drops
        it. A query without a margin keeps every row, and so does every query
        when k is at least the row count.
        """
        lengths = ends - starts
        offsets = np.cumsum(lengths)
        shift = starts - offsets + lengths  # copy column = position in the spans' scores + its span's shift
        total = int(offsets[-1])
        margins = self._margins(queries) if k < total else [math.inf] * len(queries)
        if min(margins) == math.inf:
            pos = np.repeat(shift, lengths) + np.arange(total)
            return [total] * len(queries), self._list_rows[np.tile(pos, len(queries))]
        if max(margins) == math.inf:  # those queries score 0 instead of overflowing float32
            queries = np.where(np.isinf(margins)[:, None], 0.0, queries)
        q32, slack = queries.astype(np.float32), [2.0 * m for m in margins]
        if len(starts) == 1:
            counts, col = kernels.screen_rows(q32 @ self._list_f32[:, starts[0] : ends[0]], k, slack)
            pos = col + starts[0]
        elif total >= GATHER_SPAN_ROWS * len(starts):
            scores = np.empty((len(queries), total), dtype=np.float32)
            for s, e, n in zip(starts.tolist(), ends.tolist(), (offsets - lengths).tolist()):
                np.matmul(q32, self._list_f32[:, s:e], out=scores[:, n : n + e - s])
            counts, col = kernels.screen_rows(scores, k, slack)
            pos = col + shift[np.searchsorted(offsets, col, side="right")]
        else:
            gathered = np.repeat(shift, lengths) + np.arange(total)
            counts, col = kernels.screen_rows(q32 @ self._list_f32[:, gathered], k, slack)
            pos = gathered[col]
        return counts, self._list_rows[pos]

    def _checked(self, queries, k) -> tuple[np.ndarray, int]:
        """An (R, D) float64 block of query rows and an integer k >= 1; a
        wrong row length or shape is named by one row's shape."""
        k = _integer(k, "k")
        if k < 1:
            raise ValueError("k must be at least 1")
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise ValueError(f"query has shape {queries.shape[1:]}, expected ({self.dim},)")
        return queries, k

    def ranked_ids(self, queries: np.ndarray, k: int, category_filters=None) -> list[list[int]]:
        """Each query row's ranked item ids in exact mode: row r's equal
        ``[i for i, _ in query_knn(queries[r], k, category_filter=category_filters[r])]``.

        `category_filters` is None (no row filtered) or one category id or
        None per row. Rows with the same filter read the same spans, so they
        are screened together, one product per block of at most about
        RANK_BLOCK_SCORES float32 scores; only the survivors are rescored,
        row by row. A k=1 row whose screen keeps one item row b takes b's id
        without a rescore: every other row i scored s_i < s_b - 2m, so its
        float64 score x_i <= s_i + m < s_b - m <= x_b. So b is the strict
        float64 maximum, first in the float64 ranking whatever the ids.
        Bad `k`, `queries` or filters raise ValueError as in ``query_knn``.
        """
        queries, k = self._checked(queries, k)
        if category_filters is None:
            groups = {None: list(range(len(queries)))}
        else:
            if len(category_filters) != len(queries):
                raise ValueError(f"{len(category_filters)} category filters for {len(queries)} query rows")
            groups = {}
            for r, f in enumerate(category_filters):
                groups.setdefault(self._category(f), []).append(r)
        ranked: list = [None] * len(queries)
        for cat, members in groups.items():
            starts, ends = self._spans(None, cat, k, "exact")
            step = max(1, RANK_BLOCK_SCORES // int(ends.sum() - starts.sum()))
            for b in range(0, len(members), step):
                block = members[b : b + step]
                counts, rows = self._scan(queries[block], starts, ends, k)
                bounds = [0, *itertools.accumulate(counts)]
                for r, s, e in zip(block, bounds, bounds[1:]):
                    if k == 1 and e - s == 1:
                        ranked[r] = [int(self.ids[rows[s]])]
                    else:
                        ranked[r] = self._ranked(rows[s:e], queries[r], k)[0].tolist()
        return ranked

    def query_knn(self, query: np.ndarray, k: int, category_filter: int | None = None, mode: str = "exact") -> list[tuple[int, float]]:
        """Ranked (item_id, similarity), descending, ties by ascending id.

        Similarities are bitwise those of a one-thread ``features @ query``.
        A non-integer or out-of-range `k` or `category_filter`, or a query
        that is not one feature-length vector, raises ValueError naming it.
        """
        queries, k = self._checked(np.asarray(query, dtype=np.float64)[None], k)
        query, cat = queries[0], self._category(category_filter)
        _, rows = self._scan(queries, *self._spans(query, cat, k, mode), k)
        ids, sims = self._ranked(rows, query, k)
        return list(zip(ids.tolist(), sims.tolist()))

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
            for name in ("ids", "categories", "assignments"):  # the constructor checks their shapes
                if name in arrays and arrays[name].dtype != np.int64:
                    raise ValueError(f"field {name!r} must hold int64 values, got {arrays[name].dtype}")
            features = arrays["features"]
            if features.ndim != 2:
                raise ValueError(f"field 'features' must be 2-D, got shape {features.shape}")
            return cls(arrays["ids"], features, arrays["categories"],
                       ann=ann, centroids=arrays.get("centroids"), assignments=arrays.get("assignments"))


def build_index(catalog, ann_config: AnnConfig | None = None, item_ids=None) -> RetrievalIndex:
    """Index a catalog (optionally restricted to `item_ids`).

    An index over the whole catalog shares the catalog's read-only arrays.
    """
    rows = slice(None) if item_ids is None else catalog.rows_of(np.unique(item_ids))
    return RetrievalIndex(catalog.ids[rows], catalog.features[rows], catalog.categories[rows], ann=ann_config)
