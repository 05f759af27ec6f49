"""Versioned binary snapshot format shared by the corpus snapshot and all
trained-parameter files.

Layout: magic line, little-endian uint32 header length, JSON header (format
version, kind, metadata, array names and shapes), then each array as raw
little-endian float64 bytes in header order. The corpus snapshot keeps its
records, each with its image count, in the metadata and every exercise's
image vectors as one ``image_features`` array of shape (total images,
d_img), in record order. The encoder snapshot keeps its vocabulary in the
metadata. Loading verifies the magic, the header's form, the kind, the
format version and the exact byte count, so corruption, truncation and
format drift fail loudly, naming the file.

Format version. Every header records ``_FORMAT``, and a snapshot of any
other version is refused (``SnapshotFormatError``) naming its path, its
kind and the build step that writes it again: a layout change raises the
version instead of adding a branch per older layout to a loader. Every
trained snapshot (encoder, dedup and variant heads, ranker) also records
``made_from`` in its metadata, the short digests of the workspace files
its step read; ``pipeline`` refuses one whose inputs have since changed.

Every workspace artifact, snapshot or not, is written through
:func:`atomic_write`: a write that fails leaves the previous file as it was.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_MAGIC = b"EXSIMBIN1\n"
_FORMAT = 3

# the build step that writes each kind of snapshot
WRITTEN_BY = {"corpus": "step_synth or step_ingest", "encoder": "step_pretrain",
              "dedup": "step_index", "variant": "step_index",
              "ranker": "step_train_rank or step_clean"}


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


def save_arrays(path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> str:
    """Write the snapshot; the hex sha256 of the bytes written."""
    header = json.dumps({
        "version": _FORMAT,
        "kind": kind,
        "meta": meta,
        "arrays": [{"name": k, "shape": list(v.shape)} for k, v in arrays.items()],
    }, sort_keys=True).encode("utf-8")
    h = hashlib.sha256()
    with atomic_write(path, "wb") as fh:
        for part in (_MAGIC, struct.pack("<I", len(header)), header):
            fh.write(part)
            h.update(part)
        for v in arrays.values():
            data = np.ascontiguousarray(v, dtype="<f8").tobytes()
            fh.write(data)
            h.update(data)
    return h.hexdigest()


def load_arrays(path, expect_kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        return read_arrays(fh, path, expect_kind)


def read_arrays(fh, path, expect_kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The metadata and arrays of the snapshot ``fh``, a binary file read
    from its current position to its end; ``path`` names it in errors."""
    if fh.read(len(_MAGIC)) != _MAGIC:
        raise SnapshotFormatError(f"{path}: not an exsim snapshot (bad magic)")
    raw = fh.read(4)
    if len(raw) != 4:
        raise SnapshotFormatError(f"{path}: truncated header")
    header_len = struct.unpack("<I", raw)[0]
    header_bytes = fh.read(header_len)
    if len(header_bytes) != header_len:
        raise SnapshotFormatError(f"{path}: truncated header")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise SnapshotFormatError(f"{path}: header is not UTF-8 JSON ({exc})") from None
    if not isinstance(header, dict):
        raise SnapshotFormatError(f"{path}: header is not a JSON object")
    if header.get("kind") != expect_kind:
        raise SnapshotFormatError(
            f"{path}: snapshot kind {header.get('kind')!r}, expected {expect_kind!r}")
    if header.get("version") != _FORMAT:
        raise SnapshotFormatError(
            f"{path}: {expect_kind} snapshot of format version {header.get('version')!r}, "
            f"expected {_FORMAT}; rerun {WRITTEN_BY[expect_kind]} to rewrite it")
    specs = header.get("arrays")
    if "meta" not in header or not isinstance(specs, list) or not all(
            isinstance(spec, dict) and isinstance(spec.get("name"), str)
            and isinstance(spec.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in spec["shape"]) for spec in specs):
        raise SnapshotFormatError(f"{path}: header needs 'meta' and 'arrays', a list of "
                                  f"entries each with a name and a list of sizes as shape")
    arrays = {}
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    for spec in specs:
        shape = tuple(spec["shape"])
        # math.prod, unlike np.prod, cannot wrap; no byte is read that the
        # file does not hold
        size = math.prod(shape) * 8
        if size > left:
            raise SnapshotFormatError(f"{path}: truncated array {spec['name']!r}")
        left -= size
        values = np.frombuffer(fh.read(size), dtype="<f8").astype(np.float64)
        try:
            arrays[spec["name"]] = values.reshape(shape)
        except ValueError as exc:
            raise SnapshotFormatError(
                f"{path}: array {spec['name']!r} of shape {list(shape)} cannot be "
                f"built ({exc})") from None
    if fh.read(1):
        raise SnapshotFormatError(f"{path}: trailing bytes")
    return header["meta"], arrays


def sha256_hex(fh) -> str:
    """The hex sha256 of the binary file ``fh``, read from its current
    position to its end."""
    h = hashlib.sha256()
    for chunk in iter(lambda: fh.read(65536), b""):
        h.update(chunk)
    return h.hexdigest()


def short_digest(sha256: str) -> str:
    """The short form of a hex sha256, the version of a snapshot in caches
    and reports."""
    return sha256[:12]


def file_digest(path) -> str:
    """Short content hash used as the snapshot version in caches and reports."""
    with open(path, "rb") as fh:
        return short_digest(sha256_hex(fh))
