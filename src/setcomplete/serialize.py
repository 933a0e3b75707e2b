"""Deterministic binary container for named float arrays plus JSON metadata.

Layout: a single UTF-8 JSON header line (sorted keys, ends with ``\\n``)
followed by the raw C-order little-endian bytes of each array in header
order. The same arrays and metadata always produce identical bytes, which
zip-based formats do not guarantee (they embed timestamps).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

MAGIC = "setcomplete/arrays"
VERSION = 1

_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}


def pack_arrays(arrays: dict[str, np.ndarray], meta: dict | None = None) -> bytes:
    """Encode named arrays (float64 or int64) and a JSON-safe meta dict."""
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
        raw = arr.astype(_DTYPES[code], copy=False).tobytes()
        entries.append({"name": name, "dtype": code, "shape": list(arr.shape)})
        blobs.append(raw)
    header = {
        "magic": MAGIC,
        "version": VERSION,
        "arrays": entries,
        "meta": meta or {},
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    return head + b"".join(blobs)


def unpack_arrays(data: bytes) -> tuple[dict[str, np.ndarray], dict]:
    """Decode bytes produced by :func:`pack_arrays`."""
    cut = data.index(b"\n")
    header = json.loads(data[:cut].decode())
    if header.get("magic") != MAGIC:
        raise ValueError("not a setcomplete array container")
    if header.get("version") != VERSION:
        raise ValueError(f"unsupported container version {header.get('version')}")
    arrays: dict[str, np.ndarray] = {}
    offset = cut + 1
    for entry in header["arrays"]:
        dtype = _DTYPES[entry["dtype"]]
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * dtype.itemsize
        chunk = data[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise ValueError("truncated array container")
        arrays[entry["name"]] = np.frombuffer(chunk, dtype=dtype).reshape(shape).copy()
        offset += nbytes
    if offset != len(data):
        raise ValueError("trailing bytes in array container")
    return arrays, header["meta"]


def save_arrays(path: str | Path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    Path(path).write_bytes(pack_arrays(arrays, meta))


def load_arrays(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    return unpack_arrays(Path(path).read_bytes())


def config_from_meta(cls, raw, path: str | Path, field: str):
    """Build the config dataclass `cls` from the metadata entry `field`, rejecting keys it lacks."""
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: metadata field {field!r} must be an object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ValueError(f"{path}: metadata field {field!r} has unknown keys {unknown}")
    return cls(**raw)
