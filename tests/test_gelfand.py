import json

import pytest

from klyachko.gelfand import load_or_compute_table, verify_gelfand


def test_gl2_f2_report(table_store):
    report = verify_gelfand(table_store(2, 2))
    flags = report["flags"]
    assert flags["gelfand"] and flags["existence"] and flags["disjointness"] and flags["uniqueness"]
    assert [d for _, d in report["model_dims"]] == [3, 1]
    assert report["dim_check"]["model_total"] == 4 == report["dim_check"]["irreducible_total"]
    assert all(row["total"] == 1 for row in report["rows"])
    assert report["class_count"] == 3


def test_gl2_f3_report(table_store):
    report = verify_gelfand(table_store(2, 3))
    assert report["flags"]["gelfand"]
    assert [d for _, d in report["model_dims"]] == [16, 2]
    assert report["dim_check"]["model_total"] == 18 == report["dim_check"]["irreducible_total"]


def test_gl3_f2_report(table_store):
    report = verify_gelfand(table_store(3, 2))
    assert report["flags"]["gelfand"]
    assert [d for _, d in report["model_dims"]] == [21, 7]
    assert report["dim_check"]["model_total"] == 28 == report["dim_check"]["irreducible_total"]
    assert len(report["rows"]) == 6
    # each irreducible sits in exactly one model
    for row in report["rows"]:
        nonzero = [(k, m) for k, m in row["mults"] if m]
        assert len(nonzero) == 1 and nonzero[0][1] == 1


@pytest.mark.parametrize("n,q", [(1, 4), (2, 2), (2, 3), (3, 2)])
def test_n_and_q_come_from_the_table(table_store, n, q):
    report = verify_gelfand(table_store(n, q))
    assert (report["n"], report["q"]) == (n, q)
    assert report["dim_check"]["model_total"] == report["dim_check"]["irreducible_total"]


def test_gl1_regular_representation(table_store):
    # n = 1: the single model is induction from the trivial group,
    # i.e. the regular representation of the abelian GL_1
    report = verify_gelfand(table_store(1, 3))
    assert report["flags"]["gelfand"]
    assert report["class_count"] == 2
    assert [d for _, d in report["model_dims"]] == [2]


def test_report_deterministic(table_store):
    a = verify_gelfand(table_store(2, 3))
    b = verify_gelfand(table_store(2, 3))
    assert a == b
    assert json.dumps(a) == json.dumps(b)


def test_psi_choice_does_not_change_multiplicities(table_store):
    base = verify_gelfand(table_store(2, 3))
    other = verify_gelfand(table_store(2, 3), psi=2)
    assert other["psi_seed"] == 2
    assert [row["mults"] for row in other["rows"]] == [row["mults"] for row in base["rows"]]


def test_ell_override_flows_through(table_store):
    report = verify_gelfand(table_store(2, 2), ell=19)
    assert report["ell"] == 19
    assert report["flags"]["gelfand"]


def test_arena_mismatch_rejected(table_store, arena_store):
    from klyachko.characters import induced_klyachko_character
    from klyachko.errors import ArenaMismatch

    wrong_arena = arena_store(2, 3)
    with pytest.raises(ArenaMismatch, match="arena built for"):
        induced_klyachko_character(table_store(2, 2), 0, 1, wrong_arena)


def test_json_shape(table_store):
    js = verify_gelfand(table_store(2, 2))
    assert list(js) == [
        "n", "q", "ell", "psi_seed", "class_count", "rows", "flags",
        "model_dims", "dim_check",
    ]
    assert js["flags"] == {
        "existence": True, "disjointness": True, "uniqueness": True, "gelfand": True
    }
    assert js["dim_check"]["equal"]
    assert list(js["rows"][0]) == ["index", "dim", "mults", "total"]
    json.dumps(js)  # serializable


def test_cache_round_trip(tmp_path):
    first = load_or_compute_table(2, 3, cache_dir=tmp_path)
    assert (tmp_path / "gl2_q3.tbl").exists()
    second = load_or_compute_table(2, 3, cache_dir=tmp_path)
    assert second.elements == first.elements
    assert second.labels == first.labels
    assert [c.invariant_factors for c in second.classes] == [
        c.invariant_factors for c in first.classes
    ]
    report = verify_gelfand(second)
    assert report["flags"]["gelfand"]


def test_cache_corruption_recovers(tmp_path):
    load_or_compute_table(2, 2, cache_dir=tmp_path)
    path = tmp_path / "gl2_q2.tbl"
    path.write_bytes(b"garbage")
    table = load_or_compute_table(2, 2, cache_dir=tmp_path)
    assert table.order == 6
