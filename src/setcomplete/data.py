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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .sets import FeatureSet, ItemTable, l2_rows, sort_items


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


class Catalog(ItemTable):
    """Item universe: ids, categories, features and styles as id-sorted arrays.

    Rows are sorted by id on construction; repeated ids and an empty catalog
    are rejected. Styles default to -1 (unknown).
    """

    def __init__(self, ids, categories, features, styles=None):
        styles = np.full(len(ids), -1) if styles is None else styles
        self.ids, self.features, self.categories, self.styles = sort_items(ids, features, categories, styles)
        self.by_category: dict[int, np.ndarray] = {
            int(c): self.ids[self.categories == c] for c in np.unique(self.categories)
        }


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
    catalog = Catalog(np.arange(N), cats, feats, styles)

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
    rows = catalog.rows_of(ids)
    y, x = perm[:m], perm[m:]
    return SplitTriple(
        x=FeatureSet(catalog.features[rows[x]], element_ids=ids[x]),
        y=FeatureSet(catalog.features[rows[y]], element_ids=ids[y]),
        z=catalog.categories[rows[y]],
        outfit_id=outfit.outfit_id,
    )


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
            rows = catalog.rows_of(o.item_ids)
            items = zip(catalog.ids[rows].tolist(), catalog.categories[rows].tolist(), catalog.features[rows].tolist())
            record = {
                "outfit_id": int(o.outfit_id),
                "likes": int(o.likes),
                "items": [{"item_id": i, "category_id": c, "feature": f} for i, c, f in items],
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
    items: dict[int, tuple[int, np.ndarray]] = {}  # item id -> (category, feature), while parsing
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
                iid, category = _int64(it["item_id"]), _int64(it["category_id"])
                first_category, first_feature = items.setdefault(iid, (category, feature))
                if first_feature is not feature and not np.array_equal(first_feature, feature):
                    raise ValueError(f"item {iid} seen with two different features")
                if first_category != category:
                    raise ValueError(f"item {iid} seen with two different categories")
                ids.append(iid)
            outfits.append(Outfit(_int64(record["outfit_id"]), ids, _int64(record.get("likes", 0))))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:  # OverflowError: int(inf), 1e400 in a feature
            raise ValueError(f"{path}: line {lineno}: {exc}") from exc
    if not items:
        return None, outfits
    categories, features = zip(*items.values())
    return Catalog(list(items), categories, np.stack(features)), outfits


def write_catalog_jsonl(path: str | Path, catalog: Catalog) -> None:
    """Item-per-line companion file that also keeps the hidden style id."""
    with open(path, "w", encoding="utf-8") as fh:
        columns = (catalog.ids, catalog.categories, catalog.styles, catalog.features)
        for iid, category, style, feature in zip(*(c.tolist() for c in columns)):
            record = {"item_id": iid, "category_id": category, "style_id": style, "feature": feature}
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def read_catalog_jsonl(path: str | Path) -> Catalog:
    """Parse a catalog file; errors name the offending line.

    The first feature fixes the feature length, an item id may appear once
    and unknown fields are rejected.
    """
    items: dict[int, tuple[int, int, np.ndarray]] = {}  # item id -> (category, style, feature), while parsing
    dim = None
    for lineno, record in _records(path):
        try:
            if set(record) - _CATALOG_KEYS:
                raise ValueError(f"unknown fields {sorted(set(record) - _CATALOG_KEYS)}")
            feature = _feature(record["feature"], dim)
            dim = feature.shape[0]
            iid = _int64(record["item_id"])
            if iid in items:
                raise ValueError(f"duplicate item id {iid}")
            items[iid] = (_int64(record["category_id"]), _int64(record.get("style_id", -1)), feature)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from exc
    if not items:
        raise ValueError(f"{path}: empty catalog file")
    categories, styles, features = zip(*items.values())
    return Catalog(list(items), categories, np.stack(features), styles)
