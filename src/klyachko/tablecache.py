"""Versioned binary cache for group tables.

Layout (little-endian):

    magic     8 bytes  b"KLYGRP\\x00\\x04"  (includes format version)
    n, p, e   3 x u8
    reserved  u8       0
    count     u32      number of elements
    digest    32 bytes sha256 of every other byte of the file
    labels    count * u16: the values of class_of, keys in lex order

The file holds no elements: the loader pairs the labels with a fresh
`groups.gl_elements` enumeration, which gives the keys in the same lex
order, and `groups.class_records` derives the class records from the
map.  The loader rejects a file whose version, (n, p, e), count, length,
digest or class labels do not match; the caller then recomputes the
table and overwrites the file.  Files of earlier formats fail the
version check.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

from .errors import CacheError, InvariantViolation
from .gf import FiniteField
from .groups import GroupTable, class_records, gl_elements

# importing hashlib loads OpenSSL (about 3.5 MiB resident), so take the
# lean builtin SHA-256 where it exists, as the stdlib's random does
try:
    from _sha256 import sha256
except ImportError:  # Python >= 3.12 renamed it
    from hashlib import sha256

MAGIC = b"KLYGRP\x00\x04"
HEADER = struct.Struct("<BBBBI")
DIGEST_AT = len(MAGIC) + HEADER.size
BODY_AT = DIGEST_AT + sha256().digest_size


def cache_path(cache_dir: str | Path, n: int, q: int) -> Path:
    return Path(cache_dir) / f"gl{n}_q{q}.tbl"


def _digest(head: bytes, body) -> bytes:
    h = sha256(head)
    h.update(body)
    return h.digest()


def save_table(table: GroupTable, path: str | Path) -> None:
    """Write the table through a temp file of this process, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    head = MAGIC + HEADER.pack(table.n, table.field.p, table.field.e, 0, table.order)
    body = struct.pack(f"<{table.order}H", *table.class_of.values())
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(head + _digest(head, body) + body)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_table(path: str | Path, field: FiniteField, n: int) -> GroupTable:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CacheError(f"cannot read cache {path}: {exc}") from exc
    if raw[: len(MAGIC)] != MAGIC:
        raise CacheError(f"{path}: bad magic/version")
    if len(raw) < BODY_AT:
        raise CacheError(f"{path}: truncated cache")
    fn, fp, fe, _, count = HEADER.unpack_from(raw, len(MAGIC))
    if (fn, fp, fe) != (n, field.p, field.e):
        raise CacheError(
            f"{path}: cache is for (n={fn}, p={fp}, e={fe}), "
            f"wanted (n={n}, p={field.p}, e={field.e})"
        )
    if count != math.prod(field.q**n - field.q**i for i in range(n)):
        raise CacheError(f"{path}: {count} elements is not the order of GL_{n}(F_{field.q})")
    if len(raw) != BODY_AT + 2 * count:
        raise CacheError(f"{path}: truncated or corrupt cache")
    if raw[DIGEST_AT:BODY_AT] != _digest(raw[:DIGEST_AT], memoryview(raw)[BODY_AT:]):
        raise CacheError(f"{path}: digest mismatch")
    labels = struct.unpack_from(f"<{count}H", raw, BODY_AT)
    class_of = dict(zip(gl_elements(n, field, count), labels))
    try:
        classes = class_records(class_of, n, field)
    except (KeyError, InvariantViolation) as exc:
        raise CacheError(f"{path}: class labels do not name conjugacy classes") from exc
    return GroupTable(field, n, class_of, classes)

