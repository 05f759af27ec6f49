"""Versioned binary snapshot format shared by all trained-parameter files.

Layout: magic line, little-endian uint32 header length, JSON header (kind,
metadata, array names and shapes), then each array as raw little-endian
float64 bytes in header order. Loading verifies the magic, the kind and the
exact byte count, so truncation and format drift fail loudly.

Every workspace artifact, snapshot or not, is written through
:func:`atomic_write`: a write that fails leaves the previous file as it was.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_MAGIC = b"EXSIMBIN1\n"


class SnapshotFormatError(ValueError):
    pass


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a temporary file beside ``path`` for writing (text is UTF-8) and
    rename it over ``path`` once the block completes; on failure the
    temporary file is removed and ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_arrays(path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    header = json.dumps({
        "version": 1,
        "kind": kind,
        "meta": meta,
        "arrays": [{"name": k, "shape": list(v.shape)} for k, v in arrays.items()],
    }, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for v in arrays.values():
            fh.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def load_arrays(path, expect_kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise SnapshotFormatError(f"{path}: not an exsim snapshot (bad magic)")
        raw = fh.read(4)
        if len(raw) != 4:
            raise SnapshotFormatError(f"{path}: truncated header")
        header_len = struct.unpack("<I", raw)[0]
        header_bytes = fh.read(header_len)
        if len(header_bytes) != header_len:
            raise SnapshotFormatError(f"{path}: truncated header")
        header = json.loads(header_bytes)
        if header.get("kind") != expect_kind:
            raise SnapshotFormatError(
                f"{path}: snapshot kind {header.get('kind')!r}, expected {expect_kind!r}")
        arrays = {}
        for spec in header["arrays"]:
            shape = tuple(spec["shape"])
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise SnapshotFormatError(f"{path}: truncated array {spec['name']!r}")
            arrays[spec["name"]] = np.frombuffer(buf, dtype="<f8").astype(
                np.float64).reshape(shape)
        if fh.read(1):
            raise SnapshotFormatError(f"{path}: trailing bytes")
    return header["meta"], arrays


def file_digest(path) -> str:
    """Short content hash used as the snapshot version in caches and reports."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()[:12]
