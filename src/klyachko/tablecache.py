"""Versioned binary caches: the group table and its character tables.

Group table `gl{n}_q{q}.tbl` (little-endian):

    magic     8 bytes  b"KLYGRP\\x00\\x04"  (includes format version)
    n, p, e   3 x u8
    reserved  u8       0
    count     u32      number of elements
    digest    32 bytes sha256 of every other byte of the file
    labels    count * u16: the class label of every element, in
                       increasing order of element codes (lex order)

The file holds no elements: the loader pairs the labels with a fresh
`groups.gl_elements` enumeration, which gives the element codes in the
same order, and `groups.class_records` scatters them into the table's
label array and derives the class records, with no tuple or dict per
element.  The loader rejects a file whose version, (n, p, e), count,
length, digest or class labels do not match (labels that are not the
classes numbered in the order of their least members); the caller then
recomputes the table and overwrites the file.  Files of earlier formats
fail the version check.

Character table `gl{n}_q{q}_ell{ell}.chr`, one per arena prime
(little-endian):

    magic        8 bytes  b"KLYCHR\\x00\\x01"  (includes format version)
    n, p, e      3 x u8
    classes      u32      N, the class count
    width        u8       bytes per residue: the byte length of ell
    ell          width bytes
    fingerprint  32 bytes sha256 of the class records the table is for
    digest       32 bytes sha256 of every other byte of the file
    values       N * N residues of width bytes, one row per character,
                 rows and columns in `character_table`'s order

The fingerprint hashes each class's representative, size and inverse
class, in class order, so a file written for other class records is not
read.  The loader rejects a file whose version, (n, p, e), class count,
width, ell, length, digest or fingerprint do not match, with a value
>= ell, with rows out of `character_table`'s order, or that fails
`verify_orthogonality` (row orthogonality, which implies column
orthogonality over Z/ell, and the dimension identity), which runs on
every load; the caller then recomputes the characters and overwrites
the file.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

from .arena import ModularArena
from .characters import ClassFunction, verify_orthogonality
from .errors import CacheError, InvariantViolation
from .gf import FiniteField
from .groups import GroupTable, class_records, gl_elements

# importing hashlib loads OpenSSL (about 3.5 MiB resident), so take the
# lean builtin SHA-256 where it exists, as the stdlib's random does
try:
    from _sha256 import sha256
except ImportError:  # Python >= 3.12 renamed it
    from hashlib import sha256

HASH_SIZE = sha256().digest_size

MAGIC = b"KLYGRP\x00\x04"
HEADER = struct.Struct("<BBBBI")
DIGEST_AT = len(MAGIC) + HEADER.size
BODY_AT = DIGEST_AT + HASH_SIZE

CHARS_MAGIC = b"KLYCHR\x00\x01"
CHARS_HEADER = struct.Struct("<BBBIB")  # n, p, e, class count, value width
ELL_AT = len(CHARS_MAGIC) + CHARS_HEADER.size


def cache_path(cache_dir: str | Path, n: int, q: int) -> Path:
    return Path(cache_dir) / f"gl{n}_q{q}.tbl"


def characters_path(cache_dir: str | Path, n: int, q: int, ell: int) -> Path:
    return Path(cache_dir) / f"gl{n}_q{q}_ell{ell}.chr"


def _digest(head: bytes, body) -> bytes:
    h = sha256(head)
    h.update(body)
    return h.digest()


def _write(path: Path, data: bytes) -> None:
    """Write through a temp file of this process, then rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise CacheError(f"cannot read cache {path}: {exc}") from exc


def save_table(table: GroupTable, path: str | Path) -> None:
    head = MAGIC + HEADER.pack(table.n, table.field.p, table.field.e, 0, table.order)
    body = struct.pack(f"<{table.order}H", *map(table.labels.__getitem__, table.codes))
    _write(Path(path), head + _digest(head, body) + body)


def load_table(path: str | Path, field: FiniteField, n: int) -> GroupTable:
    path = Path(path)
    raw = _read(path)
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
    codes = gl_elements(n, field, count)
    try:
        classes, labels = class_records(codes, struct.unpack_from(f"<{count}H", raw, BODY_AT),
                                        n, field)
    except InvariantViolation as exc:
        raise CacheError(f"{path}: class labels do not name conjugacy classes") from exc
    return GroupTable(field, n, codes, labels, classes)


def class_fingerprint(table: GroupTable) -> bytes:
    """SHA-256 of each class's representative, size and inverse class, in
    class order."""
    h = sha256()
    for cls in table.classes:
        h.update(struct.pack(f"<{len(cls.representative)}I", *cls.representative))
        h.update(struct.pack("<QQ", cls.size, cls.inverse_class))
    return h.digest()


def _width(ell: int) -> int:
    return (ell.bit_length() + 7) // 8


def save_characters(chars: list[ClassFunction], table: GroupTable, path: str | Path) -> None:
    ell = chars[0].arena.ell
    width = _width(ell)
    head = (CHARS_MAGIC
            + CHARS_HEADER.pack(table.n, table.field.p, table.field.e, len(chars), width)
            + ell.to_bytes(width, "little") + class_fingerprint(table))
    body = b"".join(v.to_bytes(width, "little") for cf in chars for v in cf.values)
    _write(Path(path), head + _digest(head, body) + body)


def load_characters(path: str | Path, table: GroupTable,
                    arena: ModularArena) -> list[ClassFunction]:
    """The character table of `table` in `arena` from a file that
    `save_characters` wrote, checked as the module docstring says."""
    path = Path(path)
    raw = _read(path)
    if raw[: len(CHARS_MAGIC)] != CHARS_MAGIC:
        raise CacheError(f"{path}: bad magic/version")
    if len(raw) < ELL_AT:
        raise CacheError(f"{path}: truncated cache")
    fn, fp, fe, count, width = CHARS_HEADER.unpack_from(raw, len(CHARS_MAGIC))
    field, ell = table.field, arena.ell
    if (fn, fp, fe) != (table.n, field.p, field.e):
        raise CacheError(
            f"{path}: cache is for (n={fn}, p={fp}, e={fe}), "
            f"wanted (n={table.n}, p={field.p}, e={field.e})"
        )
    if count != len(table.classes):
        raise CacheError(f"{path}: {count} classes, the table has {len(table.classes)}")
    if width != _width(ell):
        raise CacheError(f"{path}: values of {width} bytes, ell = {ell} needs {_width(ell)}")
    fingerprint_at = ELL_AT + width
    digest_at = fingerprint_at + HASH_SIZE
    body_at = digest_at + HASH_SIZE
    if len(raw) != body_at + count * count * width:
        raise CacheError(f"{path}: truncated or corrupt cache")
    if raw[digest_at:body_at] != _digest(raw[:digest_at], memoryview(raw)[body_at:]):
        raise CacheError(f"{path}: digest mismatch")
    file_ell = int.from_bytes(raw[ELL_AT:fingerprint_at], "little")
    if file_ell != ell:
        raise CacheError(f"{path}: cache is for ell = {file_ell}, wanted {ell}")
    if raw[fingerprint_at:digest_at] != class_fingerprint(table):
        raise CacheError(f"{path}: written for other class records")
    values = [int.from_bytes(raw[at:at + width], "little")
              for at in range(body_at, len(raw), width)]
    if max(values) >= ell:
        raise CacheError(f"{path}: a value is not below ell = {ell}")
    chars = [ClassFunction(arena, tuple(values[at:at + count]))
             for at in range(0, len(values), count)]
    e_idx = table.identity_class()
    keys = [(cf.values[e_idx], cf.values) for cf in chars]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise CacheError(f"{path}: characters out of order")
    try:
        verify_orthogonality(chars, table, arena)
    except InvariantViolation as exc:
        raise CacheError(f"{path}: not a character table: {exc}") from exc
    return chars
