import hashlib
import json
import struct

import pytest

from klyachko.cli import main
from klyachko.errors import CacheError
from klyachko.gf import field_make
from klyachko.tablecache import MAGIC, cache_path, load_table, save_table

RETIRED_MAGIC = b"KLYGRP\x00\x02"  # format 2 also stored a record per class
FORMAT_3_MAGIC = b"KLYGRP\x00\x03"  # format 3 also stored the elements


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)])
def test_save_load_with_classes(n, q, tmp_path, table_store):
    """The class records derived at load equal those of the orbit sweep."""
    table = table_store(n, q)
    path = tmp_path / "t.tbl"
    save_table(table, path)
    loaded = load_table(path, table.field, n)
    assert loaded.elements == table.elements
    assert loaded.class_of == table.class_of
    assert loaded.classes == table.classes


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
    """Apply `relabel` to the class_of labels in place; class_of is the
    file's trailing u16 array, the element count the u32 at 12.  With
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


@pytest.mark.parametrize("relabel", [_skip_label_1, _split_a_class, _merge_label_2_into_1])
def test_load_rejects_labels_that_are_not_classes(tmp_path, table_store, relabel):
    table = table_store(2, 3)
    path = tmp_path / "t.tbl"
    save_table(table, path)
    _rewrite_labels(path, relabel, redigest=True)
    with pytest.raises(CacheError, match="class labels"):
        load_table(path, table.field, 2)


def test_load_rejects_wrong_length(tmp_path, table_store):
    table = table_store(2, 2)
    path = tmp_path / "t.tbl"
    save_table(table, path)
    raw = path.read_bytes()
    for cut in (raw[:40], raw[:-1], raw + b"\x00"):
        path.write_bytes(cut)
        with pytest.raises(CacheError, match="truncated"):
            load_table(path, table.field, 2)


def test_save_does_not_touch_another_writers_temp_file(tmp_path, table_store):
    table = table_store(2, 2)
    other = tmp_path / "gl2_q2.tmp"
    other.write_bytes(b"half-written by another process")
    save_table(table, tmp_path / "gl2_q2.tbl")
    assert other.read_bytes() == b"half-written by another process"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gl2_q2.tbl", "gl2_q2.tmp"]
    assert load_table(tmp_path / "gl2_q2.tbl", table.field, 2).class_of == table.class_of


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
    body = bytes(elements) + struct.pack(f"<{table.order}H", *table.class_of.values())
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
        assert list(struct.unpack_from(f"<{table.order}H", raw, 48)) == list(table.class_of.values())


def test_format_2_cache_is_recomputed_and_replaced(tmp_path, capsys):
    d = str(tmp_path)
    assert main(["verify-gelfand", "--n", "2", "--q", "3", "--cache-dir", d]) == 0
    path = cache_path(tmp_path, 2, 3)
    current = path.read_bytes()
    path.write_bytes(RETIRED_MAGIC + current[len(MAGIC):])
    assert main(["verify-gelfand", "--n", "2", "--q", "3", "--cache-dir", d]) == 0
    capsys.readouterr()
    assert path.read_bytes() == current
