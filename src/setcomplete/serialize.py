"""Artifact writers: a deterministic binary container for named float
arrays plus JSON metadata, and the JSON and CSV text files.

Container layout: a single UTF-8 JSON header line (sorted keys, ends with
``\\n``) followed by the raw C-order little-endian bytes of each array in
header order. The same arrays and metadata always produce identical bytes,
which zip-based formats do not guarantee (they embed timestamps).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MAGIC = "setcomplete/arrays"
VERSION = 1

_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}


def pack_arrays(arrays: dict[str, np.ndarray], meta: dict | None = None) -> bytes:
    """Encode named arrays (float64 or int64) and a JSON-safe meta dict.

    The bytes are copied once, into the result; only a non-contiguous array
    is first made contiguous.
    """
    entries = []
    blobs = []
    for name in sorted(arrays):
        arr = np.asarray(arrays[name])
        if arr.dtype == np.float64:
            code = "<f8"
        elif arr.dtype == np.int64:
            code = "<i8"
        else:
            raise ValueError(f"unsupported dtype {arr.dtype} for array {name!r}")
        entries.append({"name": name, "dtype": code, "shape": list(arr.shape)})
        blobs.append(arr.astype(_DTYPES[code], order="C", copy=False))
    header = {
        "magic": MAGIC,
        "version": VERSION,
        "arrays": entries,
        "meta": meta or {},
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    return b"".join([head, *blobs])


def _entry(entry) -> tuple[str, np.dtype, tuple[int, ...]]:
    """Name, dtype and shape of one header entry."""
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise ValueError(f"malformed array entry {entry!r}")
    name, code, shape = entry["name"], entry.get("dtype"), entry.get("shape")
    if not isinstance(code, str) or code not in _DTYPES:
        raise ValueError(f"array {name!r} has unsupported dtype {code!r}")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"array {name!r} has malformed shape {shape!r}")
    return name, _DTYPES[code], tuple(shape)


def unpack_arrays(data: bytes) -> tuple[dict[str, np.ndarray], dict]:
    """Decode bytes produced by :func:`pack_arrays`; malformed bytes raise ValueError."""
    cut = data.find(b"\n")
    if cut < 0:
        raise ValueError("no header line")
    try:
        header = json.loads(data[:cut].decode())
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise ValueError(f"header is not JSON: {exc}") from None
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        raise ValueError("not a setcomplete array container")
    if header.get("version") != VERSION:
        raise ValueError(f"unsupported container version {header.get('version')}")
    if not isinstance(header.get("arrays"), list) or not isinstance(header.get("meta"), dict):
        raise ValueError("header needs an 'arrays' list and a 'meta' object")
    arrays: dict[str, np.ndarray] = {}
    offset = cut + 1
    for entry in header["arrays"]:
        name, dtype, shape = _entry(entry)
        count = math.prod(shape)
        if offset + count * dtype.itemsize > len(data):
            raise ValueError("truncated array container")
        # a view into `data`, so the copy is the only one
        arrays[name] = np.frombuffer(data, dtype=dtype, count=count, offset=offset).reshape(shape).copy()
        offset += count * dtype.itemsize
    if offset != len(data):
        raise ValueError("trailing bytes in array container")
    return arrays, header["meta"]


@contextmanager
def reading(path: str | Path):
    """Re-raise a ValueError from inside the block as one that starts with `path`.

    Every artifact loader reads its file inside this block, so a malformed
    file fails with one line naming it.
    """
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_arrays(path: str | Path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    Path(path).write_bytes(pack_arrays(arrays, meta))


def load_arrays(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    data = Path(path).read_bytes()
    with reading(path):
        return unpack_arrays(data)


def write_json(path: str | Path, obj) -> None:
    """Pretty JSON with sorted keys and a final newline."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def write_csv(path: str | Path, rows, columns) -> None:
    """A header of `columns`, then one line per row dict; a key the row lacks
    is written empty and a key outside `columns` is dropped. Lines end in \\r\\n."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def config_from_meta(cls, raw, what: str):
    """Build the config dataclass `cls` from the dict `raw` (named `what` in
    errors), rejecting keys `cls` lacks and values whose type differs from the
    field default's (an int passes for a float)."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be an object, got {type(raw).__name__}")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - set(defaults))
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}")
    for name, value in raw.items():
        kind = type(defaults[name])
        if not isinstance(value, (int, float) if kind is float else kind):
            raise ValueError(f"{what}: {name!r} must be {kind.__name__}, got {type(value).__name__}")
    return cls(**raw)
