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
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Callable

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

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=np.int64)
        if len(self.z) != self.y.features.shape[0]:
            raise ValueError("condition list must align with the target set")
        if self.x.element_ids is not None and self.y.element_ids is not None:
            if not set(self.x.element_ids.tolist()).isdisjoint(self.y.element_ids.tolist()):
                raise ValueError("query and target sets must be disjoint")


class Catalog(ItemTable):
    """Item universe: ids, categories, features and styles as id-sorted arrays.

    Rows are sorted by id on construction; repeated ids and an empty catalog
    are rejected. Styles default to -1 (unknown).
    """

    def __init__(self, ids, categories, features, styles=None):
        styles = np.full(len(ids), -1) if styles is None else styles
        self.ids, self.features, self.categories, self.styles = sort_items(ids, features, categories, styles=styles)
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
        if self.dim < 1:
            raise ValueError(f"dim must be at least 1, got {self.dim}")
        if self.outfits < 0:
            raise ValueError(f"outfits must be at least 0, got {self.outfits}")
        if not 0.0 <= self.noise < float("inf"):
            raise ValueError(f"noise must be finite and at least 0, got {self.noise}")
        return self


def category_weights(n: int) -> np.ndarray:
    """Zipf-like popularity so category frequencies are deliberately uneven."""
    w = 1.0 / np.arange(1, n + 1)
    return w / w.sum()


def integers_below(rng: np.random.Generator) -> Callable[[int], int]:
    """A function `below(n)` equal to `rng.integers(n)` for 1 <= n <= 2**32.

    Numpy draws a bounded integer by Lemire's multiply-shift over the bit
    generator's buffered `next_uint32`. `below` makes the same calls to that
    function through `BitGenerator.ctypes`, so it returns the same values and
    leaves the generator, its 32-bit carry included, in the same state, at a
    fraction of the call cost. Like numpy it draws nothing for n == 1.
    Building it costs a few microseconds per new generator, so it pays only
    where one generator makes many draws.
    """
    bit_generator = rng.bit_generator
    iface = bit_generator.ctypes
    next_uint32, state = iface.next_uint32, iface.state

    def below(n: int) -> int:
        if n == 1:
            return 0
        m = next_uint32(state) * n
        if m & 0xFFFFFFFF < n:
            threshold = ((1 << 32) - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = next_uint32(state) * n
        return m >> 32

    below.bit_generator = bit_generator  # the C state lives as long as `below`
    return below


_CDF_CACHE_SIZE = 1024  # the sets a generator run meets first are the common ones; a cap bounds wide configs


def _choice_without_replacement(
    rng: np.random.Generator, p: list[float], size: int, cdfs: dict[frozenset, list[float]] | None = None
) -> list[int]:
    """`rng.choice(len(p), size, replace=False, p=p)` on Python lists.

    Runs numpy's own algorithm (draw the missing count, zero the weights
    taken, invert the normalized running sum, keep each value's first new
    index) with the same generator calls, so it returns the same indices and
    leaves the generator in the same state, at a fraction of the call cost.
    A round's normalized running sum depends only on the indices taken
    before it; `cdfs` keeps the first `_CDF_CACHE_SIZE` of them by that set,
    across calls with one `p`.
    """
    cdfs = {} if cdfs is None else cdfs
    found: list[int] = []
    while len(found) < size:
        draws = rng.random(size - len(found)).tolist()
        taken = frozenset(found)
        cdf = cdfs.get(taken)
        if cdf is None:
            running = list(accumulate(0.0 if i in taken else w for i, w in enumerate(p)))
            total = running[-1]
            cdf = [v / total for v in running]
            if len(cdfs) < _CDF_CACHE_SIZE:
                cdfs[taken] = cdf
        found += dict.fromkeys([bisect_right(cdf, x) for x in draws])
    return found


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

    outfits: list[Outfit] = []
    if config.outfits == 0:
        return catalog, outfits
    # item ids are the rows 0..N-1; pools are built once, as Python lists
    by_cat: list[list[int]] = [[] for _ in range(C)]
    bucket: list[list[list[int]]] = [[[] for _ in range(S)] for _ in range(C)]
    for iid, (c, s) in enumerate(zip(cats.tolist(), styles.tolist())):
        by_cat[c].append(iid)
        bucket[c][s].append(iid)
    # the same generator calls as rng.integers and rng.random, through the bit generator
    p, cdfs = weights.tolist(), {}
    below = integers_below(rng)
    iface = rng.bit_generator.ctypes
    next_double, state = iface.next_double, iface.state
    for oid in range(config.outfits):
        style = below(S)
        size = config.min_size + below(config.max_size + 1 - config.min_size)
        ids = []
        for c in _choice_without_replacement(rng, p, size, cdfs):
            pool = bucket[c][style] if next_double(state) < config.coherence else by_cat[c]
            ids.append(pool[below(len(pool))])
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
    )


def triples_for(outfits: list[Outfit], catalog: Catalog, seed: int = 0) -> list[SplitTriple]:
    """One reproducible triple per outfit (per-outfit seeded split)."""
    return [
        split_outfit(o, np.random.default_rng([seed, o.outfit_id]), catalog) for o in outfits
    ]


_MASK64 = (1 << 64) - 1
_SPLITS = ("train",) * 8 + ("val", "test")


def splitmix64(x):
    """splitmix64 of a Python int, or of each element of a uint64 array.

    Not of a numpy scalar: numpy warns on uint64 overflow of a scalar, and
    wraps an array's silently, which is the arithmetic the hash needs.
    """
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def split_of(outfit_id: int) -> str:
    """Deterministic 80/10/10 split keyed by outfit id."""
    return _SPLITS[splitmix64(int(outfit_id)) % 10]


def split_outfits(outfits: list[Outfit]) -> dict[str, list[Outfit]]:
    """`split_of` of every outfit, hashed as one array: the int64 ids (as
    generation and the loaders make them) cast to uint64."""
    ids = np.fromiter((o.outfit_id for o in outfits), dtype=np.int64, count=len(outfits))
    out: dict[str, list[Outfit]] = {"train": [], "val": [], "test": []}
    for o, bucket in zip(outfits, (splitmix64(ids.astype(np.uint64)) % 10).tolist()):
        out[_SPLITS[bucket]].append(o)
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
    """One outfit per line with full item records embedded.

    Each item's record is encoded once, the first time an outfit names it;
    the bytes are those of `json.dumps` on the whole line.
    """
    fragments: dict[int, str] = {}
    with open(path, "w", encoding="utf-8") as fh:
        for o in outfits:
            new = [i for i in o.item_ids if i not in fragments]
            if new:
                rows = catalog.rows_of(new)
                items = zip(catalog.ids[rows].tolist(), catalog.categories[rows].tolist(), catalog.features[rows].tolist())
                for i, c, f in items:
                    fragments[i] = json.dumps({"item_id": i, "category_id": c, "feature": f}, separators=(",", ":"))
            items_json = ",".join(fragments[i] for i in o.item_ids)
            fh.write(f'{{"outfit_id":{int(o.outfit_id)},"likes":{int(o.likes)},"items":[{items_json}]}}\n')


def _int64(value) -> int:
    """An id or count field's JSON integer, checked to fit the int64 arrays it lands in.

    Any other JSON value (a float, even an integral one, a string or a
    boolean) is rejected, not converted.
    """
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {type(value).__name__} {value!r}")
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{value} is outside the int64 range")
    return value


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
    rejected. An item's first record is parsed; a repeat must hold the same
    category and an equal feature list (1 equals 1.0, NaN equals nothing).
    Errors name the offending line. An empty file yields (None, []).
    """
    outfits: list[Outfit] = []
    items: dict[int, tuple] = {}  # item id -> (category, feature list, whether NaN-free) of its first record
    dim = None
    for lineno, record in _records(path):
        try:
            if set(record) - _OUTFIT_KEYS:
                raise ValueError(f"unknown fields {sorted(set(record) - _OUTFIT_KEYS)}")
            ids = []
            for it in record["items"]:
                if set(it) - _ITEM_KEYS:
                    raise ValueError(f"unknown item fields {sorted(set(it) - _ITEM_KEYS)}")
                iid, category, feature = _int64(it["item_id"]), _int64(it["category_id"]), it["feature"]
                first = items.get(iid)
                if first is None:
                    parsed = _feature(feature, dim)
                    dim = parsed.shape[0]
                    # json.loads gives one NaN object, which list == takes as equal to itself
                    items[iid] = (category, feature, not np.isnan(parsed).any())
                elif not first[2] or first[1] != feature:
                    raise ValueError(f"item {iid} seen with two different features")
                elif first[0] != category:
                    raise ValueError(f"item {iid} seen with two different categories")
                if iid in ids:
                    raise ValueError(f"item {iid} appears twice in the outfit")
                ids.append(iid)
            outfits.append(Outfit(_int64(record["outfit_id"]), ids, _int64(record.get("likes", 0))))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:  # OverflowError: an integer too large for a float in a feature
            raise ValueError(f"{path}: line {lineno}: {exc}") from exc
    if not items:
        return None, outfits
    categories, features, _ = zip(*items.values())
    return Catalog(list(items), categories, np.array(features, dtype=np.float64)), outfits


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
