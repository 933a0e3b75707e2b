"""Synthetic catalog and outfit generation, splits, and JSONL round-trips.

Items carry a planted structure: every feature is a normalized sum of a
category anchor, a latent style anchor and noise. Outfits draw one style and
5 to 8 distinct categories and pick style-coherent items with probability p,
so within-outfit compatibility is learnable and oracle-checkable. The style
id is generator-internal: models and files for models never see it (the
catalog file keeps it for round-trips).

Outfit files are newline-delimited JSON, one outfit per line:

  {"outfit_id": int, "likes": int,
   "items": [{"item_id": int, "category_id": int, "feature": [float x D]}]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .sets import FeatureSet, l2_rows


@dataclass
class Item:
    item_id: int
    category_id: int
    feature: np.ndarray
    style_id: int = -1


@dataclass
class Outfit:
    outfit_id: int
    item_ids: list[int]
    likes: int = 0


@dataclass
class SplitTriple:
    """Query set X, target set Y and the category list Z aligned with Y."""

    x: FeatureSet
    y: FeatureSet
    z: np.ndarray
    outfit_id: int = -1

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=np.int64)
        if len(self.z) != self.y.features.shape[0]:
            raise ValueError("condition list must align with the target set")
        if self.x.element_ids is not None and self.y.element_ids is not None:
            if set(map(int, self.x.element_ids)) & set(map(int, self.y.element_ids)):
                raise ValueError("query and target sets must be disjoint")


class Catalog:
    """Item universe with arrays prepared for batched lookups."""

    def __init__(self, items: list[Item]):
        if not items:
            raise ValueError("empty catalog")
        self.items = sorted(items, key=lambda it: it.item_id)
        self.ids = np.array([it.item_id for it in self.items], dtype=np.int64)
        if len(np.unique(self.ids)) != len(self.ids):
            raise ValueError("duplicate item ids")
        self.features = np.stack([np.asarray(it.feature, dtype=np.float64) for it in self.items])
        self.categories = np.array([it.category_id for it in self.items], dtype=np.int64)
        self.styles = np.array([it.style_id for it in self.items], dtype=np.int64)
        self._row = {int(i): r for r, i in enumerate(self.ids)}
        self.by_category: dict[int, np.ndarray] = {
            int(c): self.ids[self.categories == c] for c in np.unique(self.categories)
        }

    def __len__(self) -> int:
        return len(self.items)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def row_of(self, item_id: int) -> int:
        return self._row[int(item_id)]

    def feature_of(self, item_id: int) -> np.ndarray:
        return self.features[self.row_of(item_id)]

    def features_of(self, item_ids) -> np.ndarray:
        rows = [self.row_of(i) for i in np.asarray(item_ids, dtype=np.int64)]
        return self.features[rows]

    def categories_of(self, item_ids) -> np.ndarray:
        rows = [self.row_of(i) for i in np.asarray(item_ids, dtype=np.int64)]
        return self.categories[rows]

    def subset(self, item_ids) -> "Catalog":
        return Catalog([self.items[self.row_of(i)] for i in sorted(set(map(int, item_ids)))])


@dataclass
class GenConfig:
    categories: int = 12
    styles: int = 8
    catalog_size: int = 5000
    outfits: int = 20000
    dim: int = 32
    noise: float = 0.1
    coherence: float = 0.9
    min_size: int = 5
    max_size: int = 8
    seed: int = 0

    def validate(self) -> "GenConfig":
        if self.categories < 2 or self.styles < 1:
            raise ValueError("need at least 2 categories and 1 style")
        if self.catalog_size < self.categories * self.styles:
            raise ValueError("catalog too small to cover every category-style bucket")
        if not 2 <= self.min_size <= self.max_size <= self.categories:
            raise ValueError("outfit sizes must fit within the category count")
        if not 0.0 <= self.coherence <= 1.0:
            raise ValueError("coherence must be a probability")
        return self


def category_weights(n: int) -> np.ndarray:
    """Zipf-like popularity so category frequencies are deliberately uneven."""
    w = 1.0 / np.arange(1, n + 1)
    return w / w.sum()


def generate_dataset(config: GenConfig | None = None) -> tuple[Catalog, list[Outfit]]:
    """Deterministic synthetic catalog plus outfits with planted styles."""
    config = (config or GenConfig()).validate()
    rng = np.random.default_rng(config.seed)
    C, S, N, D = config.categories, config.styles, config.catalog_size, config.dim

    u_cat = l2_rows(rng.standard_normal((C, D)))
    v_style = l2_rows(rng.standard_normal((S, D)))
    weights = category_weights(C)

    cats = np.empty(N, dtype=np.int64)
    styles = np.empty(N, dtype=np.int64)
    # first C*S items enumerate every bucket so coherent sampling never starves
    grid = np.arange(C * S)
    cats[: C * S] = grid % C
    styles[: C * S] = grid // C
    cats[C * S :] = rng.choice(C, size=N - C * S, p=weights)
    styles[C * S :] = rng.integers(0, S, size=N - C * S)

    noise = rng.standard_normal((N, D)) * config.noise
    feats = l2_rows(u_cat[cats] + v_style[styles] + noise)
    items = [Item(i, int(cats[i]), feats[i], int(styles[i])) for i in range(N)]
    catalog = Catalog(items)

    bucket: dict[tuple[int, int], np.ndarray] = {}
    for c in range(C):
        for s in range(S):
            bucket[(c, s)] = np.where((cats == c) & (styles == s))[0]

    outfits: list[Outfit] = []
    for oid in range(config.outfits):
        style = int(rng.integers(0, S))
        size = int(rng.integers(config.min_size, config.max_size + 1))
        chosen_cats = rng.choice(C, size=size, replace=False, p=weights)
        ids = []
        for c in chosen_cats:
            if rng.random() < config.coherence:
                pool = bucket[(int(c), style)]
            else:
                pool = np.where(cats == c)[0]
            ids.append(int(catalog.ids[pool[rng.integers(len(pool))]]))
        outfits.append(Outfit(oid, ids, likes=int(rng.poisson(10))))
    return catalog, outfits


# -- splitting ---------------------------------------------------------------------


def split_outfit(outfit: Outfit, rng: np.random.Generator, catalog: Catalog) -> SplitTriple:
    """Partition an outfit into query and target, uniform target size."""
    ids = np.asarray(outfit.item_ids, dtype=np.int64)
    if len(ids) < 2:
        raise ValueError("outfit too small to split")
    m = int(rng.integers(1, len(ids)))
    perm = rng.permutation(len(ids))
    y_ids, x_ids = ids[perm[:m]], ids[perm[m:]]
    x = FeatureSet(catalog.features_of(x_ids), element_ids=x_ids)
    y = FeatureSet(catalog.features_of(y_ids), element_ids=y_ids)
    return SplitTriple(x=x, y=y, z=catalog.categories_of(y_ids), outfit_id=outfit.outfit_id)


def triples_for(outfits: list[Outfit], catalog: Catalog, seed: int = 0) -> list[SplitTriple]:
    """One reproducible triple per outfit (per-outfit seeded split)."""
    return [
        split_outfit(o, np.random.default_rng([seed, o.outfit_id]), catalog) for o in outfits
    ]


_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def split_of(outfit_id: int) -> str:
    """Deterministic 80/10/10 split keyed by outfit id."""
    bucket = splitmix64(int(outfit_id)) % 10
    if bucket < 8:
        return "train"
    return "val" if bucket == 8 else "test"


def split_outfits(outfits: list[Outfit]) -> dict[str, list[Outfit]]:
    out: dict[str, list[Outfit]] = {"train": [], "val": [], "test": []}
    for o in outfits:
        out[split_of(o.outfit_id)].append(o)
    return out


def items_in(outfits: list[Outfit]) -> list[int]:
    seen: set[int] = set()
    for o in outfits:
        seen.update(int(i) for i in o.item_ids)
    return sorted(seen)


# -- JSONL IO -----------------------------------------------------------------------

_OUTFIT_KEYS = {"outfit_id", "likes", "items"}
_ITEM_KEYS = {"item_id", "category_id", "feature"}
_CATALOG_KEYS = _ITEM_KEYS | {"style_id"}


def write_jsonl(path: str | Path, catalog: Catalog, outfits: list[Outfit]) -> None:
    """One outfit per line with full item records embedded."""
    with open(path, "w", encoding="utf-8") as fh:
        for o in outfits:
            record = {
                "outfit_id": int(o.outfit_id),
                "likes": int(o.likes),
                "items": [
                    {
                        "item_id": int(i),
                        "category_id": int(catalog.categories_of([i])[0]),
                        "feature": [float(v) for v in catalog.feature_of(i)],
                    }
                    for i in o.item_ids
                ],
            }
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def _int64(value) -> int:
    """An id field's value as an int that fits the int64 arrays it lands in."""
    out = int(value)
    if not -(2**63) <= out < 2**63:
        raise ValueError(f"{out} is outside the int64 range")
    return out


def _feature(raw, dim: int | None) -> np.ndarray:
    """A feature list as a 1-D float array, of length `dim` once that is known."""
    feature = np.asarray(raw, dtype=np.float64)
    if feature.ndim != 1:
        raise ValueError(f"feature must be a list of numbers, got shape {feature.shape}")
    if dim is not None and feature.shape != (dim,):
        raise ValueError(f"feature length {feature.shape[0]} != {dim}")
    return feature


def _records(path: str | Path):
    """(line number, JSON object) per non-blank line; errors name the line."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: malformed JSON ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{path}: line {lineno}: expected a JSON object, got {type(record).__name__}")
            yield lineno, record


def read_jsonl(path: str | Path) -> tuple[Catalog | None, list[Outfit]]:
    """Parse an outfit file; returns the item universe seen plus the outfits.

    The first feature fixes the feature length and unknown fields are
    rejected. Errors name the offending line. An empty file yields (None, []).
    """
    outfits: list[Outfit] = []
    items: dict[int, Item] = {}
    dim = None
    for lineno, record in _records(path):
        try:
            if set(record) - _OUTFIT_KEYS:
                raise ValueError(f"unknown fields {sorted(set(record) - _OUTFIT_KEYS)}")
            ids = []
            for it in record["items"]:
                if set(it) - _ITEM_KEYS:
                    raise ValueError(f"unknown item fields {sorted(set(it) - _ITEM_KEYS)}")
                feature = _feature(it["feature"], dim)
                dim = feature.shape[0]
                iid = _int64(it["item_id"])
                if iid in items and not np.array_equal(items[iid].feature, feature):
                    raise ValueError(f"item {iid} seen with two different features")
                items.setdefault(iid, Item(iid, _int64(it["category_id"]), feature))
                ids.append(iid)
            outfits.append(Outfit(_int64(record["outfit_id"]), ids, _int64(record.get("likes", 0))))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:  # OverflowError: int(inf), 1e400 in a feature
            raise ValueError(f"{path}: line {lineno}: {exc}") from exc
    return (Catalog(list(items.values())) if items else None), outfits


def write_catalog_jsonl(path: str | Path, catalog: Catalog) -> None:
    """Item-per-line companion file that also keeps the hidden style id."""
    with open(path, "w", encoding="utf-8") as fh:
        for it in catalog.items:
            record = {
                "item_id": int(it.item_id),
                "category_id": int(it.category_id),
                "style_id": int(it.style_id),
                "feature": [float(v) for v in it.feature],
            }
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def read_catalog_jsonl(path: str | Path) -> Catalog:
    """Parse a catalog file; errors name the offending line.

    The first feature fixes the feature length, an item id may appear once
    and unknown fields are rejected.
    """
    items: list[Item] = []
    seen: set[int] = set()
    dim = None
    for lineno, record in _records(path):
        try:
            if set(record) - _CATALOG_KEYS:
                raise ValueError(f"unknown fields {sorted(set(record) - _CATALOG_KEYS)}")
            feature = _feature(record["feature"], dim)
            dim = feature.shape[0]
            iid = _int64(record["item_id"])
            if iid in seen:
                raise ValueError(f"duplicate item id {iid}")
            seen.add(iid)
            items.append(Item(iid, _int64(record["category_id"]), feature, _int64(record.get("style_id", -1))))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from exc
    if not items:
        raise ValueError(f"{path}: empty catalog file")
    return Catalog(items)
