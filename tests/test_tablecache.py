import hashlib
import struct

import pytest

from klyachko.cli import main
from klyachko.errors import CacheError
from klyachko.gf import field_make
from klyachko.tablecache import MAGIC, cache_path, classes_to_json, load_table, save_table


def test_save_load_with_classes(tmp_path, table_store):
    table = table_store(2, 3)
    path = tmp_path / "t.tbl"
    save_table(table, path)
    loaded = load_table(path, table.field, 2)
    assert loaded.class_of == table.class_of
    for ours, theirs in zip(table.classes, loaded.classes):
        assert ours.representative == theirs.representative
        assert ours.size == theirs.size
        assert ours.invariant_factors == theirs.invariant_factors
        assert ours.inverse_class == theirs.inverse_class


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


def test_classes_json(table_store):
    js = classes_to_json(table_store(2, 2))
    assert js["order"] == 6 and js["n"] == 2 and js["q"] == 2
    assert len(js["classes"]) == 3
    sizes = sorted(c["size"] for c in js["classes"])
    assert sizes == [1, 2, 3]
    for cls in js["classes"]:
        assert len(cls["representative"]) == 2
        assert all(len(row) == 2 for row in cls["representative"])


def _swap_class_labels(path, i, j):
    """Swap the class_of labels of elements i and j in place; class_of
    is the file's trailing u16 array, the element count the u32 at 12."""
    raw = bytearray(path.read_bytes())
    (count,) = struct.unpack_from("<I", raw, 12)
    off = len(raw) - 2 * count
    labels = list(struct.unpack_from(f"<{count}H", raw, off))
    assert labels[i] != labels[j]
    labels[i], labels[j] = labels[j], labels[i]
    struct.pack_into(f"<{count}H", raw, off, *labels)
    path.write_bytes(bytes(raw))


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
    path.write_bytes(b"KLYGRP\x00\x01" + raw[len(MAGIC):])
    with pytest.raises(CacheError, match="version"):
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
