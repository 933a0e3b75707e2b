"""Sets of feature vectors with validity masks, and id-sorted item tables.

A :class:`FeatureSet` is the unit of data every model op consumes: a
``(cardinality, D)`` float64 matrix, a per-row validity mask and optional
element ids. Masked-out rows must never influence results on valid rows;
the attention and pooling ops enforce that via the mask.

An :class:`ItemTable` holds items as arrays in ascending-id order (ids,
features, categories), so an id's row is found by binary search. The
catalog and the retrieval index are both item tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class FeatureSet:
    """A set of D-dimensional feature vectors with per-row validity."""

    features: np.ndarray
    mask: np.ndarray | None = None
    element_ids: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError("features must be a (cardinality, D) matrix")
        n = self.features.shape[0]
        if self.mask is None:
            self.mask = np.ones(n, dtype=np.float64)
        else:
            self.mask = np.asarray(self.mask, dtype=np.float64)
            if self.mask.shape != (n,):
                raise ValueError("mask must have one entry per row")
        if self.element_ids is not None:
            self.element_ids = np.asarray(self.element_ids, dtype=np.int64)
            if self.element_ids.shape != (n,):
                raise ValueError("element_ids must have one entry per row")

    @property
    def cardinality(self) -> int:
        return int(self.mask.sum())

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def valid_rows(self) -> np.ndarray:
        return self.features[self.mask > 0]

    def permuted(self, perm) -> "FeatureSet":
        perm = np.asarray(perm, dtype=np.int64)
        ids = None if self.element_ids is None else self.element_ids[perm]
        return FeatureSet(self.features[perm], self.mask[perm], ids)


def pad_stack(arrays: list[np.ndarray], masks: list[np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Stack variable-length (n_i, D) arrays into (B, N, D) plus a (B, N) mask.

    Every row of an array is valid unless `masks` gives each array's own
    row validity.
    """
    if not arrays:
        raise ValueError("nothing to stack")
    dim = arrays[0].shape[1]
    n_max = max(1, max(a.shape[0] for a in arrays))
    out = np.zeros((len(arrays), n_max, dim), dtype=np.float64)
    mask = np.zeros((len(arrays), n_max), dtype=np.float64)
    for i, a in enumerate(arrays):
        if a.shape[1] != dim:
            raise ValueError("inconsistent feature dimension")
        out[i, : a.shape[0]] = a
        mask[i, : a.shape[0]] = 1.0 if masks is None else masks[i]
    return out, mask


def l2_rows(x: np.ndarray) -> np.ndarray:
    """Unit-normalize rows, leaving near-zero rows at zero."""
    n = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / np.maximum(n, 1e-12)


def sort_items(ids, features, categories, extra=None):
    """Item arrays in ascending-id order: int64 ids, float64 (N, D) features,
    int64 categories and an optional int64 per-item `extra` column.

    Raises ValueError when there are no items, the arrays do not align or an
    id repeats.
    """
    ids = np.asarray(ids, dtype=np.int64)
    features = np.ascontiguousarray(features, dtype=np.float64)
    categories = np.asarray(categories, dtype=np.int64)
    extra = None if extra is None else np.asarray(extra, dtype=np.int64)
    if (ids.ndim != 1 or features.ndim != 2 or features.shape[0] != len(ids) or categories.shape != ids.shape
            or (extra is not None and extra.shape != ids.shape)):
        raise ValueError("ids, features and categories must align")
    if len(ids) == 0:
        raise ValueError("no items")
    if np.any(ids[1:] <= ids[:-1]):
        order = np.argsort(ids, kind="stable")
        ids, features, categories = ids[order], features[order], categories[order]
        extra = None if extra is None else extra[order]
        repeated = ids[1:][ids[1:] == ids[:-1]]
        if len(repeated):
            raise ValueError(f"duplicate item id {repeated[0]}")
    return ids, features, categories, extra


class ItemTable:
    """Lookups by item id into the id-sorted ``ids``, ``features`` and
    ``categories`` arrays that :func:`sort_items` gives."""

    ids: np.ndarray
    features: np.ndarray
    categories: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def rows_of(self, item_ids) -> np.ndarray:
        """Rows of `item_ids`, in their shape; an unknown id raises KeyError naming it."""
        item_ids = np.asarray(item_ids, dtype=np.int64)
        rows = self.ids.searchsorted(item_ids)
        found = self.ids.take(rows, mode="clip") == item_ids
        if not found.all():
            raise KeyError(int(np.extract(~found, item_ids)[0]))
        return rows

    def feature_of(self, item_id: int) -> np.ndarray:
        return self.features[self.rows_of(item_id)]

    def features_of(self, item_ids) -> np.ndarray:
        return self.features[self.rows_of(item_ids)]

    def categories_of(self, item_ids) -> np.ndarray:
        return self.categories[self.rows_of(item_ids)]
