import dataclasses
import gc
import hashlib
import json
import shutil
import struct
import weakref
from array import array

import pytest

from klyachko import gelfand, groups, tablecache
from klyachko.arena import build_arena, is_prime
from klyachko.characters import character_table
from klyachko.cli import main
from klyachko.errors import CacheError, InvariantViolation
from klyachko.gelfand import load_or_compute_table
from klyachko.gf import field_make, mat_inv
from klyachko.groups import SINGULAR, decode, gl_elements
from klyachko.tablecache import (
    CHARS_MAGIC,
    LABEL_CHUNK,
    MAGIC,
    cache_path,
    characters_path,
    class_fingerprint,
    load_characters,
    load_table,
    save_characters,
    save_table,
)
from oracles import element_labels, gl_order

RETIRED_MAGIC = b"KLYGRP\x00\x02"  # format 2 also stored a record per class
FORMAT_3_MAGIC = b"KLYGRP\x00\x03"  # format 3 also stored the elements


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)])
def test_save_load_with_classes(n, q, tmp_path, table_store):
    """The table loaded from a file equals the orbit sweep's in its
    label array, class members (as sets, each with its least member
    first), class records, order, elements and inverses."""
    table = table_store(n, q)
    path = tmp_path / "t.tbl"
    save_table(table, path)
    loaded = load_table(path, table.field, n)
    assert loaded.labels == table.labels
    assert [sorted(m) for m in loaded.members] == [sorted(m) for m in table.members]
    assert all(m[0] == min(m) for tab in (loaded, table) for m in tab.members)
    assert loaded.classes == table.classes
    assert loaded.order == table.order
    assert loaded.elements == table.elements
    assert loaded.inverses() == table.inverses()


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (2, 5), (3, 3), (3, 4)])
def test_order_elements_and_inverses_come_from_members_and_labels(n, q, tmp_path, table_store):
    """A table holds no element list: computed or loaded, its order is
    |GL_n(F_q)| by the closed form, its elements are the decoded codes
    of a fresh `gl_elements` enumeration, in the same order, and its
    inverses are those elements inverted one by one.  `inverses()` reads
    only `elements`, which both tables are checked on, so it is checked
    on the loaded table alone."""
    table = table_store(n, q)
    path = tmp_path / "t.tbl"
    save_table(table, path)
    field = table.field
    want = tuple(decode(code, n, q) for code in gl_elements(n, field))
    loaded = load_table(path, field, n)
    for tab in (table, loaded):
        assert tab.order == gl_order(n, q)
        assert tab.elements == want
    assert loaded.inverses() == [mat_inv(el, n, field) for el in want]


def test_the_enumeration_is_freed_once_the_table_is_built(tmp_path, monkeypatch, table_store):
    """The codes that `gl_elements` gives `gl_enumerate` and `load_table`
    are freed when the call returns, with the cyclic collector off:
    neither the table nor a reference cycle of the enumeration holds
    them."""
    table = table_store(3, 3)
    path = tmp_path / "t.tbl"
    save_table(table, path)
    made = []

    def recorded(*args):
        codes = gl_elements(*args)
        made.append(weakref.ref(codes))
        return codes

    monkeypatch.setattr(groups, "gl_elements", recorded)
    monkeypatch.setattr(tablecache, "gl_elements", recorded)
    gc.disable()
    try:
        built = [groups.gl_enumerate(3, table.field), load_table(path, table.field, 3)]
    finally:
        gc.enable()
    assert [tab.classes for tab in built] == [table.classes] * 2
    assert len(made) == 2 and all(ref() is None for ref in made)


def test_round_trip_over_several_label_chunks(tmp_path, table_store):
    """GL_3(F_4) has more elements than one `LABEL_CHUNK`: its file holds
    one u16 label per element in code order, as one pack of them all
    would, and loads back to the same labels, members and classes."""
    table = table_store(3, 4)
    assert table.order > 2 * LABEL_CHUNK
    path = tmp_path / "t.tbl"
    save_table(table, path)
    raw = path.read_bytes()
    assert raw[48:] == struct.pack(f"<{table.order}H", *element_labels(table))
    loaded = load_table(path, table.field, 3)
    assert loaded.labels == table.labels
    assert [sorted(m) for m in loaded.members] == [sorted(m) for m in table.members]
    assert loaded.classes == table.classes


def test_saved_labels_with_a_0xff_byte_next_to_singular_entries(tmp_path, table_store):
    """Labels 0x00ff, 0x01ff and 0xfdff (a low byte 0xff), 0xfe00 and
    0xfefe, the largest label below 0xff00 classes, each beside a
    `SINGULAR` entry on one side or both, in a table of 0xfeff classes:
    only the `SINGULAR` entries leave the bytes, as the pack over the
    codes says."""
    table = table_store(2, 3)
    tricky = [0x00FF, 0x01FF, 0xFDFF, 0xFE00, 0xFEFE, 0]
    labels = array("H", table.labels)
    codes = gl_elements(2, table.field)
    for at, code in enumerate(codes):
        labels[code] = tricky[at % len(tricky)]
    assert any(labels[c - 1] == SINGULAR and labels[c + 1] == SINGULAR for c in codes[1:-1])
    synthetic = dataclasses.replace(table, labels=labels,
                                    classes=(table.classes[0],) * 0xFEFF)
    path = tmp_path / "t.tbl"
    save_table(synthetic, path)
    assert path.read_bytes()[48:] == struct.pack(f"<{table.order}H", *element_labels(synthetic))


def test_save_rejects_0xff00_classes(tmp_path, table_store):
    """At 0xff00 classes a label could have the high byte 0xff, and its
    removal could start at an odd offset."""
    table = table_store(2, 2)
    synthetic = dataclasses.replace(table, classes=(table.classes[0],) * 0xFF00)
    with pytest.raises(InvariantViolation, match="0xFF00"):
        save_table(synthetic, tmp_path / "t.tbl")
    assert not list(tmp_path.iterdir())


def test_load_rejects_wrong_parameters(tmp_path, table_store):
    table = table_store(2, 3)
    path = tmp_path / "t.tbl"
    save_table(table, path)
    with pytest.raises(CacheError):
        load_table(path, field_make(2, 1), 2)
    with pytest.raises(CacheError):
        load_table(path, table.field, 3)


def test_load_rejects_corrupt(tmp_path):
    path = tmp_path / "bad.tbl"
    path.write_bytes(b"KLYGRP\x00\x01geschnitten")
    with pytest.raises(CacheError):
        load_table(path, field_make(2, 1), 2)
    with pytest.raises(CacheError):
        load_table(tmp_path / "missing.tbl", field_make(2, 1), 2)


def _rewrite_labels(path, relabel, redigest=False):
    """Apply `relabel` to the class labels in place, the file's trailing
    u16 array, one per element; the element count is the u32 at 12.  With
    `redigest` the digest is made to match, so only the labels are wrong."""
    raw = bytearray(path.read_bytes())
    (count,) = struct.unpack_from("<I", raw, 12)
    off = len(raw) - 2 * count
    labels = relabel(list(struct.unpack_from(f"<{count}H", raw, off)))
    struct.pack_into(f"<{count}H", raw, off, *labels)
    if redigest:
        raw[16:48] = hashlib.sha256(raw[:16] + raw[48:]).digest()
    path.write_bytes(bytes(raw))


def _swap_class_labels(path, i, j):
    def swap(labels):
        assert labels[i] != labels[j]
        labels[i], labels[j] = labels[j], labels[i]
        return labels

    _rewrite_labels(path, swap)


def test_digest_is_sha256_of_the_rest(tmp_path, table_store):
    path = tmp_path / "t.tbl"
    save_table(table_store(2, 3), path)
    raw = path.read_bytes()
    assert raw[16:48] == hashlib.sha256(raw[:16] + raw[48:]).digest()


def test_load_rejects_digest_mismatch(tmp_path, table_store):
    table = table_store(2, 3)
    path = tmp_path / "t.tbl"
    save_table(table, path)
    _swap_class_labels(path, 1, 2)
    with pytest.raises(CacheError, match="digest"):
        load_table(path, table.field, 2)


def test_load_rejects_old_version(tmp_path, table_store):
    table = table_store(2, 2)
    path = tmp_path / "t.tbl"
    save_table(table, path)
    raw = path.read_bytes()
    assert raw.startswith(MAGIC)
    path.write_bytes(RETIRED_MAGIC + raw[len(MAGIC):])
    with pytest.raises(CacheError, match="version"):
        load_table(path, table.field, 2)


def _skip_label_1(labels):
    return [c + (c > 0) for c in labels]


def _split_a_class(labels):
    """The last member of the first class with two members gets a label
    of its own: two classes then share invariant factors."""
    c = next(c for c in labels if labels.count(c) > 1)
    labels[len(labels) - 1 - labels[::-1].index(c)] = max(labels) + 1
    return labels


def _merge_label_2_into_1(labels):
    """Class 2 joins class 1 and the labels above move down by one: no
    label is skipped and no two classes share invariant factors, but
    there is one label fewer than GL_n(F_q) has classes."""
    return [c - (c >= 2) for c in labels]


def _swap_labels_1_and_2(labels):
    """Classes 1 and 2 trade labels everywhere: the labels are still the
    classes, but class 2's least member now comes first, so the class
    order differs from the sweep's."""
    return [{1: 2, 2: 1}.get(c, c) for c in labels]


def _singular_label(labels):
    """The last element labelled `SINGULAR`, the label array's mark for a
    code that is not an element: a label at or above the class count."""
    labels[-1] = SINGULAR
    return labels


@pytest.mark.parametrize("relabel", [_skip_label_1, _split_a_class, _merge_label_2_into_1,
                                     _swap_labels_1_and_2, _singular_label])
def test_load_rejects_labels_that_are_not_classes(tmp_path, table_store, relabel):
    table = table_store(2, 3)
    path = tmp_path / "t.tbl"
    save_table(table, path)
    _rewrite_labels(path, relabel, redigest=True)
    with pytest.raises(CacheError, match="t.tbl: class labels do not name conjugacy classes$"):
        load_table(path, table.field, 2)


def test_load_rejects_wrong_length(tmp_path, table_store, capsys):
    """Files cut inside the header (after the magic), inside the digest
    or by one byte, or one byte too long: load_table raises, and
    verify-gelfand recomputes and rewrites the file."""
    table = table_store(2, 2)
    path = tmp_path / "t.tbl"
    save_table(table, path)
    raw = path.read_bytes()
    for cut in (raw[:12], raw[:40], raw[:-1], raw + b"\x00"):
        path.write_bytes(cut)
        with pytest.raises(CacheError, match="truncated"):
            load_table(path, table.field, 2)
        _verify_over_corrupt_cache(2, 2, lambda p: p.write_bytes(cut), tmp_path, capsys)


def test_save_does_not_touch_another_writers_temp_file(tmp_path, table_store):
    table = table_store(2, 2)
    other = tmp_path / "gl2_q2.tmp"
    other.write_bytes(b"half-written by another process")
    save_table(table, tmp_path / "gl2_q2.tbl")
    assert other.read_bytes() == b"half-written by another process"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gl2_q2.tbl", "gl2_q2.tmp"]
    assert load_table(tmp_path / "gl2_q2.tbl", table.field, 2).labels == table.labels


def test_corrupt_cache_is_recomputed_and_replaced(tmp_path, capsys):
    d = str(tmp_path)
    assert main(["verify-gelfand", "--n", "2", "--q", "3", "--cache-dir", d]) == 0
    path = cache_path(tmp_path, 2, 3)
    _swap_class_labels(path, 1, 2)
    assert main(["verify-gelfand", "--n", "2", "--q", "3", "--cache-dir", d]) == 0
    capsys.readouterr()
    table = load_table(path, field_make(3, 1), 2)
    assert table.order == 48 and len(table.classes) == 8


def _rewrite_body(path, edit):
    """Apply `edit` to the labels after the digest and make the digest
    match, so the file is well formed but its content is wrong; the count
    at 12 is updated to the number of labels left."""
    raw = bytearray(path.read_bytes())
    (count,) = struct.unpack_from("<I", raw, 12)
    labels = edit(list(struct.unpack_from(f"<{count}H", raw, 48)))
    struct.pack_into("<I", raw, 12, len(labels))
    raw[48:] = struct.pack(f"<{len(labels)}H", *labels)
    raw[16:48] = hashlib.sha256(raw[:16] + raw[48:]).digest()
    path.write_bytes(bytes(raw))


def _drop_last_element(labels):
    return labels[:-1]


def _add_an_element(labels):
    return labels + [0]


@pytest.mark.parametrize("edit,match", [
    (_drop_last_element, "not the order"),
    (_add_an_element, "not the order"),
])
def test_load_rejects_elements_that_are_not_the_group(edit, match, tmp_path, table_store):
    table = table_store(2, 3)
    path = tmp_path / "t.tbl"
    save_table(table, path)
    _rewrite_body(path, edit)
    with pytest.raises(CacheError, match=match):
        load_table(path, table.field, 2)


def _format_3_bytes(table, edit):
    """The table as a format-3 file, which stored every element as n^2
    entry codes ahead of the labels, with `edit` applied to the element
    bytes and the digest made to match."""
    head = FORMAT_3_MAGIC + struct.pack("<BBBBI", table.n, table.field.p, table.field.e, 0,
                                        table.order)
    elements = bytearray(b"".join(bytes(el) for el in table.elements))
    edit(elements, table.n * table.n)
    body = bytes(elements) + struct.pack(f"<{table.order}H", *element_labels(table))
    return head + hashlib.sha256(head + body).digest() + body


def _repeat_element(i, j):
    def edit(elements, nsq):
        elements[i * nsq:(i + 1) * nsq] = elements[j * nsq:(j + 1) * nsq]

    return edit


def _zero_element(i):
    def edit(elements, nsq):
        elements[i * nsq:(i + 1) * nsq] = bytes(nsq)

    return edit


def _verify_over_corrupt_cache(n, q, corrupt, tmp_path, capsys):
    """verify-gelfand over a cache file that `corrupt(path)` rewrote exits
    0 with the report of --no-cache apart from meta, and leaves the
    format-4 file a fresh run writes."""
    d = str(tmp_path)
    argv = ["verify-gelfand", "--n", str(n), "--q", str(q), "--format", "json"]
    assert main(argv + ["--no-cache"]) == 0
    want = json.loads(capsys.readouterr().out)
    assert main(argv + ["--cache-dir", d]) == 0
    capsys.readouterr()
    path = cache_path(tmp_path, n, q)
    current = path.read_bytes()
    assert current.startswith(MAGIC)
    corrupt(path)
    assert main(argv + ["--cache-dir", d]) == 0
    got = json.loads(capsys.readouterr().out)
    for report in (want, got):
        report.pop("meta")
    assert got == want
    assert path.read_bytes() == current


def _verify_over_format_3(n, q, edit, tmp_path, capsys, table_store):
    """The same over an edited format-3 file."""
    table = table_store(n, q)
    _verify_over_corrupt_cache(n, q, lambda path: path.write_bytes(_format_3_bytes(table, edit)),
                               tmp_path, capsys)


@pytest.mark.parametrize("n,q,i", [(2, 3, 47), (3, 2, 5), (2, 2, 3)])
def test_repeated_element_cache_is_recomputed_and_replaced(n, q, i, tmp_path, capsys, table_store):
    _verify_over_format_3(n, q, _repeat_element(i, 0), tmp_path, capsys, table_store)


def test_format_3_cache_with_a_non_member_is_recomputed_as_format_4(tmp_path, capsys, table_store):
    """Element 47 of GL_2(F_3) zeroed, digest valid: format 3 could load
    it, and a product then missed the map with a KeyError."""
    _verify_over_format_3(2, 3, _zero_element(47), tmp_path, capsys, table_store)


def test_merged_class_labels_are_recomputed_and_replaced(tmp_path, capsys):
    """GL_2(F_3) with classes 1 and 2 merged and the digest made valid:
    seven labels for eight classes, so the file is recomputed, not
    handed to the split as a table."""
    _verify_over_corrupt_cache(
        2, 3, lambda path: _rewrite_labels(path, _merge_label_2_into_1, redigest=True),
        tmp_path, capsys)


def test_save_writes_labels_only(tmp_path, table_store):
    """Format 4: header, digest and one u16 label per element."""
    for n, q in ((2, 3), (3, 2)):
        table = table_store(n, q)
        path = tmp_path / f"{n}_{q}.tbl"
        save_table(table, path)
        raw = path.read_bytes()
        assert raw[:8] == MAGIC == b"KLYGRP\x00\x04"
        assert len(raw) == 48 + 2 * table.order
        assert list(struct.unpack_from(f"<{table.order}H", raw, 48)) == element_labels(table)


def test_permuted_class_labels_are_recomputed_and_replaced(tmp_path, capsys):
    """GL_2(F_3) with labels 1 and 2 swapped and the digest made valid,
    the character file removed: `table` recomputes and rewrites the
    table file and prints the classes in the order of --no-cache."""
    argv = ["table", "--n", "2", "--q", "3", "--format", "json"]
    assert main(argv + ["--no-cache"]) == 0
    want = json.loads(capsys.readouterr().out)
    assert main(argv + ["--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    path = cache_path(tmp_path, 2, 3)
    good = path.read_bytes()
    _rewrite_labels(path, _swap_labels_1_and_2, redigest=True)
    for chars in tmp_path.glob("*.chr"):
        chars.unlink()
    assert main(argv + ["--cache-dir", str(tmp_path)]) == 0
    got = json.loads(capsys.readouterr().out)
    for report in (want, got):
        report.pop("meta")
    assert got == want
    assert path.read_bytes() == good


def test_format_2_cache_is_recomputed_and_replaced(tmp_path, capsys):
    d = str(tmp_path)
    assert main(["verify-gelfand", "--n", "2", "--q", "3", "--cache-dir", d]) == 0
    path = cache_path(tmp_path, 2, 3)
    current = path.read_bytes()
    path.write_bytes(RETIRED_MAGIC + current[len(MAGIC):])
    assert main(["verify-gelfand", "--n", "2", "--q", "3", "--cache-dir", d]) == 0
    capsys.readouterr()
    assert path.read_bytes() == current


# -- the character table cache -------------------------------------------------

PARENT_TBL_SHA256 = {  # the format-4 files, unchanged by the character cache
    (2, 3): "dd2818ed7fe38e00da4b71486c27116c6b8819dcacc75471642cf0ab96182d88",
    (3, 3): "8ef19e5231339bc459aa3345692cefa4a9a1876c959742e04ad6c9fb6a326418",
    (4, 2): "ae0c5acef39b986a90f838c75976d6faa4ca6fb4ea68b4483f1e445464bd7e7b",
}


@pytest.mark.parametrize("n,q", sorted(PARENT_TBL_SHA256))
def test_table_file_bytes_are_unchanged(n, q, tmp_path):
    load_or_compute_table(n, q, cache_dir=tmp_path)
    assert hashlib.sha256(cache_path(tmp_path, n, q).read_bytes()).hexdigest() == \
        PARENT_TBL_SHA256[(n, q)]


def _next_ell(arena):
    """The least valid arena prime above the default one."""
    ell = arena.ell + arena.m
    while not is_prime(ell):
        ell += arena.m
    return ell


def _chr_layout(raw):
    """(width, ell offset, fingerprint offset, digest offset, body offset)
    of a .chr file: the value width is the u8 at 15, ell follows it."""
    width = raw[15]
    return width, 16, 16 + width, 48 + width, 80 + width


def _chr_values(raw):
    width, _, _, _, body = _chr_layout(raw)
    return [int.from_bytes(raw[at:at + width], "little") for at in range(body, len(raw), width)]


def _chr_rewrite(path, edit_head=None, edit_values=None):
    """Apply the edits to a .chr file and make its digest match, so only
    the content is wrong."""
    raw = bytearray(path.read_bytes())
    width, _, _, digest, body = _chr_layout(raw)
    if edit_head:
        edit_head(raw)
    if edit_values:
        values = edit_values(_chr_values(raw))
        raw[body:] = b"".join(v.to_bytes(width, "little") for v in values)
    raw[digest:body] = hashlib.sha256(raw[:digest] + raw[body:]).digest()
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("n,q", [(1, 5), (2, 2), (2, 3), (3, 2), (2, 5)])
def test_characters_round_trip(n, q, tmp_path, table_store, arena_store):
    table, arena = table_store(n, q), arena_store(n, q)
    chars = character_table(table, arena)
    path = characters_path(tmp_path, n, q, arena.ell)
    save_characters(chars, table, arena.ell, path)
    assert path.name == f"gl{n}_q{q}_ell{arena.ell}.chr"
    loaded = load_characters(path, table, arena)
    assert loaded == chars
    assert all(type(chi) is tuple for chi in chars + loaded)


def test_characters_file_layout(tmp_path, table_store, arena_store):
    table, arena = table_store(2, 3), arena_store(2, 3)
    chars = character_table(table, arena)
    path = tmp_path / "t.chr"
    save_characters(chars, table, arena.ell, path)
    raw = path.read_bytes()
    width, ell_at, fingerprint, digest, body = _chr_layout(raw)
    n_cls = len(table.classes)
    assert raw[:8] == CHARS_MAGIC == b"KLYCHR\x00\x01"
    assert struct.unpack_from("<BBBIB", raw, 8) == (2, 3, 1, n_cls, width)
    assert width == (arena.ell.bit_length() + 7) // 8
    assert int.from_bytes(raw[ell_at:fingerprint], "little") == arena.ell
    assert raw[fingerprint:digest] == class_fingerprint(table)
    assert raw[digest:body] == hashlib.sha256(raw[:digest] + raw[body:]).digest()
    assert len(raw) == body + n_cls * n_cls * width
    assert _chr_values(raw) == [v for chi in chars for v in chi]


def _other_fingerprint(raw):
    _, _, fingerprint, _, _ = _chr_layout(raw)
    raw[fingerprint] ^= 0xFF


def _swap_rows(values, n_cls):
    return values[n_cls:2 * n_cls] + values[:n_cls] + values[2 * n_cls:]


def _swap_columns(values, n_cls, a, b, e_idx):
    """Columns a and b swapped, the rows sorted again as character_table
    sorts them, so only the orthogonality check can see it."""
    rows = [values[at:at + n_cls] for at in range(0, len(values), n_cls)]
    for row in rows:
        row[a], row[b] = row[b], row[a]
    return [v for row in sorted(rows, key=lambda r: (r[e_idx], r)) for v in row]


def _chr_corruptions(table, arena):
    """name -> (corrupt(path), message of load_characters)."""
    n_cls, ell = len(table.classes), arena.ell
    a = next(c for c, cls in enumerate(table.classes) if cls.size > 1)
    b = next(c for c, cls in enumerate(table.classes) if cls.size not in (1, table.classes[a].size))
    e_idx = table.identity_class()

    def rewrite(**edits):
        return lambda path: _chr_rewrite(path, **edits)

    def write(data):
        return lambda path: path.write_bytes(data(path.read_bytes()))

    return {
        # the last value byte flipped, the digest not made to match
        "digest": (write(lambda raw: raw[:-1] + bytes([raw[-1] ^ 1])), "digest"),
        "fingerprint": (rewrite(edit_head=_other_fingerprint), "other class records"),
        "columns permuted": (rewrite(edit_values=lambda v: _swap_columns(v, n_cls, a, b, e_idx)),
                             "not a character table"),
        "rows permuted": (rewrite(edit_values=lambda v: _swap_rows(v, n_cls)), "out of order"),
        "value >= ell": (rewrite(edit_values=lambda v: v[:-1] + [v[-1] + ell]), "not below ell"),
        "truncated": (write(lambda raw: raw[:-1]), "truncated"),
        # cut after the magic, inside the header
        "cut in header": (write(lambda raw: raw[:12]), "truncated"),
        # cut after the header, before the last byte of ell
        "cut in ell": (write(lambda raw: raw[:15 + raw[15]]), "truncated"),
        # cut half way through the fingerprint
        "cut in fingerprint": (write(lambda raw: raw[:32 + raw[15]]), "truncated"),
        "version": (write(lambda raw: b"KLYCHR\x00\x00" + raw[8:]), "version"),
    }


CORRUPTIONS = ["digest", "fingerprint", "columns permuted", "rows permuted", "value >= ell",
               "truncated", "cut in header", "cut in ell", "cut in fingerprint", "version"]


@pytest.mark.parametrize("kind", CORRUPTIONS)
def test_load_characters_rejects(kind, tmp_path, table_store, arena_store):
    table, arena = table_store(2, 3), arena_store(2, 3)
    path = tmp_path / "t.chr"
    save_characters(character_table(table, arena), table, arena.ell, path)
    corrupt, message = _chr_corruptions(table, arena)[kind]
    corrupt(path)
    with pytest.raises(CacheError, match=message):
        load_characters(path, table, arena)


def test_load_characters_rejects_other_ell_and_other_group(tmp_path, table_store, arena_store):
    table, arena = table_store(2, 3), arena_store(2, 3)
    path = tmp_path / "t.chr"
    save_characters(character_table(table, arena), table, arena.ell, path)
    other = build_arena(table.order, table.exponent(), 3, ell=_next_ell(arena))
    with pytest.raises(CacheError, match="ell"):
        load_characters(path, table, other)
    with pytest.raises(CacheError, match="cache is for"):
        load_characters(path, table_store(3, 3), arena_store(3, 3))


def _gelfand_json(argv, capsys):
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    report["meta"].pop("seconds", None)
    return report


@pytest.mark.parametrize("kind", CORRUPTIONS + ["another ell"])
def test_corrupt_characters_are_recomputed_and_replaced(kind, tmp_path, capsys, table_store,
                                                        arena_store):
    """verify-gelfand over a corrupt .chr exits 0 with the report of
    --no-cache and leaves the file a fresh run writes."""
    table, arena = table_store(2, 3), arena_store(2, 3)
    argv = ["verify-gelfand", "--n", "2", "--q", "3", "--format", "json"]
    want = _gelfand_json(argv + ["--no-cache"], capsys)
    d = str(tmp_path)
    assert _gelfand_json(argv + ["--cache-dir", d], capsys) == want
    path = characters_path(tmp_path, 2, 3, arena.ell)
    good = path.read_bytes()
    if kind == "another ell":
        other = _next_ell(arena)
        _gelfand_json(argv + ["--cache-dir", d, "--ell", str(other)], capsys)
        shutil.copyfile(characters_path(tmp_path, 2, 3, other), path)
        with pytest.raises(CacheError, match="ell"):
            load_characters(path, table, arena)
    else:
        _chr_corruptions(table, arena)[kind][0](path)
    assert path.read_bytes() != good
    assert _gelfand_json(argv + ["--cache-dir", d], capsys) == want
    assert path.read_bytes() == good


def test_no_cache_writes_no_character_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KLYACHKO_CACHE_DIR", str(tmp_path / "env"))
    monkeypatch.chdir(tmp_path)
    for command in ("verify-gelfand", "table"):
        assert main([command, "--n", "2", "--q", "3", "--no-cache"]) == 0
    capsys.readouterr()
    assert list(tmp_path.iterdir()) == []


def _refuse_character_table(*args):
    raise AssertionError("the character table was computed")


WARM_GROUPS = [(2, 2), (2, 3), (3, 2), (2, 4)]


@pytest.mark.parametrize("n,q", WARM_GROUPS)
def test_warm_character_cache_gives_the_no_cache_json(n, q, tmp_path, capsys, monkeypatch,
                                                      arena_store):
    """verify-gelfand with a non-default psi, verify-gelfand with an --ell
    override, and table: a run that reads the .chr file (character_table
    is not called) prints the JSON of --no-cache, meta.seconds aside."""
    psi = "2" if q % 2 else "3"  # nontrivial mod p
    group = ["--n", str(n), "--q", str(q), "--format", "json"]
    commands = [
        ["verify-gelfand", *group, "--psi", psi],
        ["verify-gelfand", *group, "--ell", str(_next_ell(arena_store(n, q)))],
        ["table", *group],
    ]
    d = str(tmp_path)
    for argv in commands:
        want = _gelfand_json(argv + ["--no-cache"], capsys)
        assert _gelfand_json(argv + ["--cache-dir", d], capsys) == want  # writes the .chr
        with monkeypatch.context() as patch:
            patch.setattr(gelfand, "character_table", _refuse_character_table)
            assert _gelfand_json(argv + ["--cache-dir", d], capsys) == want
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted([f"gl{n}_q{q}.tbl", f"gl{n}_q{q}_ell{arena_store(n, q).ell}.chr",
                            f"gl{n}_q{q}_ell{_next_ell(arena_store(n, q))}.chr"])


def test_character_file_that_is_a_directory_is_bad_usage(tmp_path, capsys, arena_store):
    path = characters_path(tmp_path, 2, 2, arena_store(2, 2).ell)
    path.mkdir()
    assert main(["verify-gelfand", "--n", "2", "--q", "2", "--cache-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("refused: cannot write the table cache") and str(path) in err


def test_failed_character_write_is_bad_usage(tmp_path, capsys, monkeypatch, arena_store):
    def deny(chars, table, ell, path):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(gelfand, "save_characters", deny)
    assert main(["table", "--n", "2", "--q", "2", "--cache-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("refused: cannot write the table cache")
    assert str(characters_path(tmp_path, 2, 2, arena_store(2, 2).ell)) in err
