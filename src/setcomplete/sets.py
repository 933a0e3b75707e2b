"""Sets of feature vectors with validity masks.

A :class:`FeatureSet` is the unit of data every model op consumes: a
``(cardinality, D)`` float64 matrix, a per-row validity mask and optional
element ids. Masked-out rows must never influence results on valid rows;
the attention and pooling ops enforce that via the mask.
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


def pad_stack(
    arrays: list[np.ndarray], width: int | None = None, masks: list[np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Stack variable-length (n_i, D) arrays into (B, N, D) plus a (B, N) mask.

    Every row of an array is valid unless `masks` gives each array's own
    row validity.
    """
    if not arrays:
        raise ValueError("nothing to stack")
    dim = arrays[0].shape[1]
    n_max = width if width is not None else max(a.shape[0] for a in arrays)
    n_max = max(n_max, 1)
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
