"""Versioned binary cache for group tables, plus JSON export of classes.

Layout (little-endian):

    magic     8 bytes  b"KLYGRP\\x00\\x02"  (includes format version)
    n, p, e   3 x u8
    reserved  u8       0
    count     u32      number of elements
    digest    32 bytes sha256 of every other byte of the file
    elements  count * n^2 bytes of entry codes
    num_classes u16
    per class: rep_index u32, size u32, inverse u16,
               nfactors u8, then per factor: len u8 + coeff bytes
    class_of  count * u16

Entry codes fit one byte since q <= 16 by default; the loader rejects
anything whose version, (n, p, e) or digest does not match, and the
caller then recomputes the table and overwrites the file.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

from .errors import CacheError
from .gf import FiniteField
from .groups import ConjClass, GroupTable

# importing hashlib loads OpenSSL (about 3.5 MiB resident), so take the
# lean builtin SHA-256 where it exists, as the stdlib's random does
try:
    from _sha256 import sha256
except ImportError:  # Python >= 3.12 renamed it
    from hashlib import sha256

MAGIC = b"KLYGRP\x00\x02"
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
    body = bytearray()
    for el in table.elements:
        body += bytes(el)
    body += struct.pack("<H", len(table.classes))
    for cls in table.classes:
        body += struct.pack(
            "<IIH", table.index_of[cls.representative], cls.size, cls.inverse_class
        )
        body += struct.pack("<B", len(cls.invariant_factors))
        for poly in cls.invariant_factors:
            body += struct.pack("<B", len(poly)) + bytes(poly)
    body += struct.pack(f"<{table.order}H", *table.class_of)
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
    try:
        fn, fp, fe, _, count = HEADER.unpack_from(raw, len(MAGIC))
        if (fn, fp, fe) != (n, field.p, field.e):
            raise CacheError(
                f"{path}: cache is for (n={fn}, p={fp}, e={fe}), "
                f"wanted (n={n}, p={field.p}, e={field.e})"
            )
        if raw[DIGEST_AT:BODY_AT] != _digest(raw[:DIGEST_AT], memoryview(raw)[BODY_AT:]):
            raise CacheError(f"{path}: digest mismatch")
        off = BODY_AT
        nsq = n * n
        elements = []
        for _ in range(count):
            elements.append(tuple(raw[off:off + nsq]))
            off += nsq
        (num_classes,) = struct.unpack_from("<H", raw, off)
        off += 2
        classes = []
        for _ in range(num_classes):
            rep_idx, size, inverse = struct.unpack_from("<IIH", raw, off)
            off += struct.calcsize("<IIH")
            (nfac,) = struct.unpack_from("<B", raw, off)
            off += 1
            factors = []
            for _ in range(nfac):
                (plen,) = struct.unpack_from("<B", raw, off)
                off += 1
                factors.append(tuple(raw[off:off + plen]))
                off += plen
            classes.append(ConjClass(elements[rep_idx], size, tuple(factors), inverse))
        class_of = struct.unpack_from(f"<{count}H", raw, off)
    except (struct.error, IndexError) as exc:
        raise CacheError(f"{path}: truncated or corrupt cache") from exc
    return GroupTable(field, n, tuple(elements), tuple(classes), class_of)


def classes_to_json(table: GroupTable) -> dict:
    n = table.n
    return {
        "n": n,
        "q": table.q,
        "order": table.order,
        "classes": [
            {
                "index": i,
                "size": cls.size,
                "representative": [
                    list(cls.representative[r * n:(r + 1) * n]) for r in range(n)
                ],
                "invariant_factors": [list(p) for p in cls.invariant_factors],
                "inverse_class": cls.inverse_class,
            }
            for i, cls in enumerate(table.classes)
        ],
    }
