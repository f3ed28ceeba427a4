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
same order.  On a little-endian host the labels are read in place, a
u16 view of the file's bytes with no copy; a big-endian host reads them
into one byteswapped array('H').  One loop writes each label into a
fresh label array and each code into the members of its class, with no
tuple or dict per element: the one per-element pass of a load, where the
search's orbits give a computed table its members.  A loaded class's
members are in increasing order, so its least member is first, as in a
computed table.  `groups.class_records` then builds the table from the
members as it does for the search, reading the class records off them.
The enumeration is a local of the load, freed once the table is built,
which keeps only the labels and members.
The writer takes the label array `LABEL_CHUNK` entries at a time as
little-endian bytes and drops the `SINGULAR` ones, with no int per
element (`save_table`).  The loader rejects a file whose version,
(n, p, e), count (checked against `groups.gl_order`), length, digest or
class labels do not match (a label
at or above the class count, a class with no member, or labels that
are otherwise not the classes numbered in the order of their least
members, as `class_records` checks them); the caller then
recomputes the table and overwrites the file.  Files of earlier formats
fail the version check.  The label checks cannot see two members of two
classes of equal size, neither the least of its class, trading labels:
the sizes, least members and keys stay the same.  So the digest guards
against accidents, not against edits: a file edited so, with its digest
made to match, loads as a wrong table.

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

Both formats are framed alike: magic, a header whose first fields are
n, p, e, the bytes up to the digest (none in a `.tbl`), the digest, then
the body.  One writer (`_write`) computes the digest and one reader
(`_read`) checks the magic, the header length, (n, p, e), the total
length and the digest, so each loader makes only its own checks.
"""

from __future__ import annotations

import os
import struct
import sys
from array import array
from pathlib import Path

from .arena import ModularArena
from .characters import verify_orthogonality
from .errors import CacheError, InvariantViolation
from .gf import FiniteField
from .groups import SINGULAR, GroupTable, class_count, class_records, gl_elements, gl_order

# importing hashlib loads OpenSSL (about 3.5 MiB resident), so take the
# lean builtin SHA-256 where it exists, as the stdlib's random does
try:
    from _sha256 import sha256
except ImportError:  # Python >= 3.12 renamed it
    from hashlib import sha256

HASH_SIZE = sha256().digest_size

MAGIC = b"KLYGRP\x00\x04"
HEADER = struct.Struct("<BBBBI")  # n, p, e, reserved, element count

LABEL_CHUNK = 1 << 16  # entries of the label array per bytes pass in save_table

CHARS_MAGIC = b"KLYCHR\x00\x01"
CHARS_HEADER = struct.Struct("<BBBIB")  # n, p, e, class count, value width


def cache_path(cache_dir: str | Path, n: int, q: int) -> Path:
    return Path(cache_dir) / f"gl{n}_q{q}.tbl"


def characters_path(cache_dir: str | Path, n: int, q: int, ell: int) -> Path:
    return Path(cache_dir) / f"gl{n}_q{q}_ell{ell}.chr"


def _digest(head: bytes, body) -> bytes:
    """SHA-256 of `head` and then each part of `body`."""
    h = sha256(head)
    for part in body:
        h.update(part)
    return h.digest()


def _write(path: Path, head: bytes, body: list[bytes]) -> None:
    """Write `head`, the digest of `head` and the parts of `body`, then
    the parts, through a temp file of this process, then rename; the
    parts are never joined, so the body is held once."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as out:
            out.write(head)
            out.write(_digest(head, body))
            out.writelines(body)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read(path: str | Path, magic: bytes, header: struct.Struct, n: int, field: FiniteField,
          sizes) -> tuple[tuple, bytes, memoryview]:
    """The header fields, the bytes between header and digest, and the
    body of a file that `_write` wrote with `magic` and `header`, whose
    first fields are n, p, e.  `sizes(*fields)` gives the byte lengths
    of the part between header and digest and of the body.  Checks the
    magic, the header length, (n, p, e), the total length and the
    digest, raising CacheError."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CacheError(f"cannot read cache {path}: {exc}") from exc
    if raw[: len(magic)] != magic:
        raise CacheError(f"{path}: bad magic/version")
    head_end = len(magic) + header.size
    if len(raw) < head_end:
        raise CacheError(f"{path}: truncated cache")
    fields = header.unpack_from(raw, len(magic))
    if fields[:3] != (n, field.p, field.e):
        raise CacheError(
            f"{path}: cache is for (n={fields[0]}, p={fields[1]}, e={fields[2]}), "
            f"wanted (n={n}, p={field.p}, e={field.e})"
        )
    middle, body_size = sizes(*fields)
    digest_at = head_end + middle
    body_at = digest_at + HASH_SIZE
    if len(raw) != body_at + body_size:
        raise CacheError(f"{path}: truncated or corrupt cache")
    body = memoryview(raw)[body_at:]
    if raw[digest_at:body_at] != _digest(raw[:digest_at], [body]):
        raise CacheError(f"{path}: digest mismatch")
    return fields, raw[head_end:digest_at], body


def save_table(table: GroupTable, path: str | Path) -> None:
    """Write the table's labels in increasing order of element codes: the
    label array, `LABEL_CHUNK` entries at a time, as little-endian bytes
    (a byteswapped copy of each chunk on a big-endian host) with every
    b"\\xff\\xff" removed.

    That removes exactly the `SINGULAR` entries.  Every other label is
    below the class count, under 0xFF00, so `SINGULAR` is the only label
    whose high byte is 0xff.  A match found from the left, at or after
    an even offset, therefore starts at an even offset: one at an odd
    offset would begin at the high byte of a `SINGULAR` entry, whose low
    byte, one before, is 0xff too and would have matched first.  So the
    matches are the `SINGULAR` entries themselves.  A table with 0xFF00
    classes or more raises InvariantViolation."""
    if len(table.classes) >= 0xFF00:
        raise InvariantViolation(f"{len(table.classes)} classes do not fit below 0xFF00")
    head = MAGIC + HEADER.pack(table.n, table.field.p, table.field.e, 0, table.order)
    labels = table.labels
    body = []
    for at in range(0, len(labels), LABEL_CHUNK):
        chunk = labels[at:at + LABEL_CHUNK]
        if sys.byteorder == "big":
            chunk.byteswap()
        body.append(chunk.tobytes().replace(b"\xff\xff", b""))
    _write(Path(path), head, body)


def load_table(path: str | Path, field: FiniteField, n: int) -> GroupTable:
    (_, _, _, _, count), _, body = _read(path, MAGIC, HEADER, n, field,
                                         lambda n, p, e, reserved, count: (0, 2 * count))
    if count != gl_order(n, field.q):
        raise CacheError(f"{path}: {count} elements is not the order of GL_{n}(F_{field.q})")
    codes = gl_elements(n, field, count)
    labels = array("H", [SINGULAR]) * field.q ** (n * n)
    members = tuple(array("I") for _ in range(class_count(n, field.q)))
    append = [m.append for m in members]
    if sys.byteorder == "little":
        file_labels = body.cast("H")  # read in place, no copy of the body
    else:
        file_labels = array("H")
        file_labels.frombytes(body)
        file_labels.byteswap()
    try:
        for code, label in zip(codes, file_labels):
            labels[code] = label
            append[label](code)
    except IndexError:  # a label at or above the class count, SINGULAR too
        raise CacheError(f"{path}: class labels do not name conjugacy classes") from None
    try:
        return class_records(members, labels, n, field)
    except InvariantViolation as exc:
        raise CacheError(f"{path}: class labels do not name conjugacy classes") from exc


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


def save_characters(chars: list[tuple[int, ...]], table: GroupTable, ell: int,
                    path: str | Path) -> None:
    width = _width(ell)
    head = (CHARS_MAGIC
            + CHARS_HEADER.pack(table.n, table.field.p, table.field.e, len(chars), width)
            + ell.to_bytes(width, "little") + class_fingerprint(table))
    body = b"".join(v.to_bytes(width, "little") for chi in chars for v in chi)
    _write(Path(path), head, [body])


def load_characters(path: str | Path, table: GroupTable,
                    arena: ModularArena) -> list[tuple[int, ...]]:
    """The character table of `table` in `arena` from a file that
    `save_characters` wrote, checked as the module docstring says."""
    (_, _, _, count, width), middle, body = _read(
        path, CHARS_MAGIC, CHARS_HEADER, table.n, table.field,
        lambda n, p, e, count, width: (width + HASH_SIZE, count * count * width))
    ell = arena.ell
    if count != len(table.classes):
        raise CacheError(f"{path}: {count} classes, the table has {len(table.classes)}")
    if width != _width(ell):
        raise CacheError(f"{path}: values of {width} bytes, ell = {ell} needs {_width(ell)}")
    file_ell = int.from_bytes(middle[:width], "little")
    if file_ell != ell:
        raise CacheError(f"{path}: cache is for ell = {file_ell}, wanted {ell}")
    if middle[width:] != class_fingerprint(table):
        raise CacheError(f"{path}: written for other class records")
    values = [int.from_bytes(body[at:at + width], "little") for at in range(0, len(body), width)]
    if max(values) >= ell:
        raise CacheError(f"{path}: a value is not below ell = {ell}")
    chars = [tuple(values[at:at + count]) for at in range(0, len(values), count)]
    e_idx = table.identity_class()
    keys = [(chi[e_idx], chi) for chi in chars]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise CacheError(f"{path}: characters out of order")
    try:
        verify_orthogonality(chars, table, arena)
    except InvariantViolation as exc:
        raise CacheError(f"{path}: not a character table: {exc}") from exc
    return chars
