import json
import time

import pytest

from klyachko import __version__, cli, gelfand
from klyachko.cli import build_parser, main
from klyachko.paramparse import parse_parameter
from oracles import residue_terms_closed_form


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_verify_gelfand_small(capsys):
    code, js, _ = run_json(capsys, "verify-gelfand", "--n", "2", "--q", "2", "--no-cache")
    assert code == 0
    assert js["flags"]["gelfand"] is True
    assert len(js["rows"]) == 3
    assert all(row["total"] == 1 for row in js["rows"])
    assert js["meta"]["version"]


def test_verify_gelfand_gl3_f2(capsys):
    code, js, _ = run_json(capsys, "verify-gelfand", "--n", "3", "--q", "2", "--no-cache")
    assert code == 0
    assert len(js["rows"]) == 6
    assert js["dim_check"] == {"model_total": 28, "irreducible_total": 28, "equal": True}


def test_verify_gelfand_uses_cache(capsys, tmp_path):
    code, _, _ = run_json(capsys, "verify-gelfand", "--n", "2", "--q", "3",
                          "--cache-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "gl2_q3.tbl").exists()
    code2, js, _ = run_json(capsys, "verify-gelfand", "--n", "2", "--q", "3",
                            "--cache-dir", str(tmp_path))
    assert code2 == 0 and js["flags"]["gelfand"]


def test_seconds_cover_the_table_load(capsys, monkeypatch):
    load = cli.load_or_compute_table

    def slow_load(*args, **kwargs):
        time.sleep(0.2)
        return load(*args, **kwargs)

    monkeypatch.setattr(cli, "load_or_compute_table", slow_load)
    code, js, _ = run_json(capsys, "verify-gelfand", "--n", "2", "--q", "2", "--no-cache")
    assert code == 0
    assert js["meta"]["seconds"] >= 0.2


def test_verify_gelfand_env_cache(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("KLYACHKO_CACHE_DIR", str(tmp_path))
    code, _, _ = run_json(capsys, "verify-gelfand", "--n", "2", "--q", "2")
    assert code == 0
    assert (tmp_path / "gl2_q2.tbl").exists()


def test_empty_env_cache_dir_means_no_cache(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("KLYACHKO_CACHE_DIR", "")
    code, _, _ = run_json(capsys, "verify-gelfand", "--n", "2", "--q", "2")
    assert code == 0
    assert list(tmp_path.iterdir()) == []


def _file_as_cache_parent(tmp_path):
    (tmp_path / "file").write_text("")
    return tmp_path / "file" / "x"  # NotADirectoryError


def _file_as_cache_dir(tmp_path):
    (tmp_path / "file").write_text("")
    return tmp_path / "file"  # FileExistsError


def _directory_as_cache_file(tmp_path):
    (tmp_path / "gl2_q2.tbl").mkdir()
    return tmp_path  # IsADirectoryError when the temp file is renamed onto it


UNWRITABLE_CACHE_DIRS = pytest.mark.parametrize("command,make_dir", [
    ("verify-gelfand", _file_as_cache_parent),
    ("table", _file_as_cache_dir),
    ("verify-gelfand", _directory_as_cache_file),
])


@UNWRITABLE_CACHE_DIRS
def test_unwritable_cache_dir_is_bad_usage(capsys, tmp_path, command, make_dir):
    cache_dir = make_dir(tmp_path)
    code, out, err = run(capsys, command, "--n", "2", "--q", "2", "--cache-dir", str(cache_dir))
    assert code == 2 and out == ""
    assert err.startswith("refused: cannot write the table cache")
    assert str(cache_dir / "gl2_q2.tbl") in err


@UNWRITABLE_CACHE_DIRS
def test_unwritable_cache_dir_is_refused_before_enumerating(capsys, tmp_path, monkeypatch,
                                                            command, make_dir):
    def refuse(*args, **kwargs):
        raise AssertionError("the group was enumerated")

    monkeypatch.setattr(gelfand, "gl_enumerate", refuse)
    test_unwritable_cache_dir_is_bad_usage(capsys, tmp_path, command, make_dir)


def test_resource_refusal_exit_2(capsys):
    code, _, err = run(capsys, "verify-gelfand", "--n", "4", "--q", "3",
                       "--max-elements", "1000", "--no-cache")
    assert code == 2
    assert "refused" in err


def test_resource_refusal_env(capsys, monkeypatch):
    monkeypatch.setenv("KLYACHKO_MAX_ELEMENTS", "10")
    code, _, _ = run(capsys, "verify-gelfand", "--n", "2", "--q", "3", "--no-cache")
    assert code == 2


def test_cached_table_obeys_max_elements(capsys, tmp_path):
    code, _, _ = run(capsys, "verify-gelfand", "--n", "2", "--q", "3", "--cache-dir", str(tmp_path))
    assert code == 0 and (tmp_path / "gl2_q3.tbl").exists()
    for source in (["--cache-dir", str(tmp_path)], ["--no-cache"]):
        code, out, err = run(capsys, "verify-gelfand", "--n", "2", "--q", "3",
                             "--max-elements", "10", *source)
        assert code == 2
        assert "exceeds cap 10" in err and out == ""


def test_table_has_no_psi_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--n", "2", "--q", "2", "--psi", "2", "--no-cache"])
    assert exc.value.code == 2
    assert "--psi" in capsys.readouterr().err


def test_bad_max_elements_env_is_bad_usage(capsys, monkeypatch):
    monkeypatch.setenv("KLYACHKO_MAX_ELEMENTS", "abc")
    code, out, err = run(capsys, "verify-gelfand", "--n", "2", "--q", "2", "--no-cache")
    assert code == 2
    assert "KLYACHKO_MAX_ELEMENTS" in err and "'abc'" in err
    assert out == ""


@pytest.mark.parametrize("value", ["-1", "0"])
def test_non_positive_max_elements_is_bad_usage(capsys, monkeypatch, value):
    # a bad option value, not a cap that the group exceeds
    code, out, err = run(capsys, "verify-gelfand", "--n", "2", "--q", "2",
                         "--max-elements", value, "--no-cache")
    assert code == 2 and out == ""
    assert err.startswith("refused: --max-elements") and "exceeds cap" not in err
    monkeypatch.setenv("KLYACHKO_MAX_ELEMENTS", value)
    code, out, err = run(capsys, "verify-gelfand", "--n", "2", "--q", "2", "--no-cache")
    assert code == 2 and out == ""
    assert err.startswith("refused: KLYACHKO_MAX_ELEMENTS") and "exceeds cap" not in err


@pytest.mark.parametrize("n,q", [("0", "2"), ("-1", "2"), ("100000", "2"), ("2", "2147483647"),
                                 ("2", "12"), ("2", "1"), ("2", "0")])
def test_bad_group_parameters_refused_at_once(capsys, n, q):
    # bad input, not an engine bug; 100000 and 2147483647 must be refused
    # before the group order is multiplied out and before q is factored
    code, out, err = run(capsys, "verify-gelfand", "--n", n, "--q", q, "--no-cache")
    assert code == 2
    assert err.startswith("refused:") and out == ""


@pytest.mark.parametrize("psi", ["0", "3", "-6"])
def test_psi_zero_mod_p_is_bad_usage(capsys, monkeypatch, psi):
    # refused before any table is loaded or computed
    def no_work(*args, **kwargs):
        raise AssertionError("group work started for a bad --psi")

    monkeypatch.setattr(cli, "load_or_compute_table", no_work)
    code, out, err = run(capsys, "verify-gelfand", "--n", "2", "--q", "3", "--psi", psi,
                         "--no-cache")
    assert code == 2 and out == ""
    assert err.startswith("refused: --psi")


def test_bad_ell_override_is_refused(capsys):
    code, _, err = run(capsys, "verify-gelfand", "--n", "2", "--q", "2",
                       "--ell", "7", "--no-cache")
    assert code == 2
    assert "refused" in err


def test_kappa_examples(capsys):
    code, js, _ = run_json(capsys, "kappa", "U(rho:1,1,3)@0")
    assert code == 0
    assert js["n"] == 3
    assert js["kappa"] == {"r": 1, "k": 1}
    assert js["model"] == "H_{1,2} with psi_1"
    assert js["unitary_valid"] is True

    code, js, _ = run_json(capsys, "kappa", "U(rho:1,1,2)@0")
    assert js["kappa"] == {"r": 0, "k": 1}

    code, js, _ = run_json(capsys, "kappa", "U(a:1,1,1)@0 x U(b:1,1,1)@0")
    assert js["kappa"] == {"r": 2, "k": 0}
    assert js["model"] == "H_{2,0} with psi_2"


def test_kappa_parse_error_exit_4(capsys):
    code, _, err = run(capsys, "kappa", "U(rho:1,1")
    assert code == 4
    assert "position" in err


@pytest.mark.parametrize("argv", [["kappa", "U(rho:²,1,1)"], ["kappa", "U(rho:1,1,3)@1/²"],
                                  ["derive", "U(rho:1,1,²)"], ["kappa", "U(rho:１,1,1)"]])
def test_non_ascii_digit_is_parse_error_exit_4(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 4
    assert err.startswith("parse error: expected an integer, found ")
    assert "(at position " in err


@pytest.mark.parametrize("name", ["rho²", "ｒho"])
def test_non_ascii_name_is_parse_error_exit_4(capsys, name):
    code, out, err = run(capsys, "kappa", f"U({name}:1,1,1)")
    assert code == 4
    assert out == ""
    assert err.startswith("parse error: ")
    assert "(at position " in err


def test_kappa_degree_mismatch_exit_5(capsys):
    code, _, err = run(capsys, "kappa", "U(rho:1,1,3)@0", "--n", "5")
    assert code == 5


def test_kappa_degree_check_passes(capsys):
    code, _, _ = run(capsys, "kappa", "U(rho:1,1,3)@0", "--n", "3")
    assert code == 0


def test_derive_chain(capsys):
    code, js, _ = run_json(capsys, "derive", "U(rho:1,1,3)@0")
    assert code == 0
    assert js["orders"] == [1, 1, 1]
    assert js["stages"][-1]["param"] is None
    assert js["stages"][0]["param"] == "U(rho:1,1,2)@-1/2"


def test_derive_single_step_order(capsys):
    code, js, _ = run_json(capsys, "derive", "U(rho:2,2,1)@0")
    assert code == 0
    assert js["orders"] == [4]
    assert js["steps"] == 1


def test_derive_empty_param_is_parse_error(capsys):
    code, _, _ = run(capsys, "derive", "")
    assert code == 4


def test_period_text_and_value(capsys):
    code, out, _ = run(capsys, "period", "--t", "2", "--zeta")
    assert code == 0
    assert "L(2)/Res" in out
    assert "1.6449341" in out


def test_period_json(capsys):
    code, js, _ = run_json(capsys, "period", "--t", "3", "--zeta")
    assert code == 0
    assert js["formula"] == "alpha*L(2)/(Res*L(3))"
    assert js["normalization"] == "up to measure normalization"
    assert js["intertwining_eigenvalue"] == "Res/L(3)"
    assert abs(js["value"] - 1.3684327) < 1e-5


def test_period_tol_without_zeta_is_bad_usage(capsys):
    code, out, err = run(capsys, "period", "--t", "3", "--tol", "1e-6")
    assert code == 2 and out == ""
    assert err.startswith("refused: --tol")


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_period_non_positive_tol_is_bad_usage(capsys, tol):
    code, out, err = run(capsys, "period", "--t", "3", "--zeta", "--tol", tol)
    assert code == 2 and out == ""
    assert err.startswith("refused: --tol must be positive")


def test_residue_survival_cmd(capsys):
    code, js, _ = run_json(capsys, "residue-survival", "--t", "5")
    assert code == 0
    assert js["survivors"] == [5]
    assert js["terms"][1]["bookkeeping"] == [3, 4]
    assert js["terms"][1]["descents"] == [1]


def test_residue_survival_json_bytes_match_closed_form(capsys):
    terms, survivors = residue_terms_closed_form(101)
    payload = {"t": 101, "m": 50, "required_order": 100, "terms": terms,
               "survivors": survivors, "w_q_index": 101, "meta": {"version": __version__}}
    code, out, _ = run(capsys, "residue-survival", "--t", "101", "--format", "json")
    assert code == 0
    assert out == json.dumps(payload, indent=2) + "\n"


def test_residue_survival_even_t_fails(capsys):
    code, _, _ = run(capsys, "residue-survival", "--t", "4")
    assert code == 1


def test_table_dump(capsys):
    code, js, _ = run_json(capsys, "table", "--n", "2", "--q", "2", "--no-cache")
    assert code == 0
    assert js["order"] == 6
    assert sorted(js["dims"]) == [1, 1, 2]
    assert len(js["characters"]) == 3
    assert len(js["classes"]) == 3


def test_table_classes_json(capsys):
    code, js, _ = run_json(capsys, "table", "--n", "2", "--q", "2", "--no-cache")
    assert code == 0
    assert js["order"] == 6 and js["n"] == 2 and js["q"] == 2
    assert len(js["classes"]) == 3
    sizes = sorted(c["size"] for c in js["classes"])
    assert sizes == [1, 2, 3]
    for cls in js["classes"]:
        assert len(cls["representative"]) == 2
        assert all(len(row) == 2 for row in cls["representative"])


def test_verify_gelfand_gl2_f7(capsys):
    # |GL_2(F_7)| = (49 - 1)(49 - 7) = 2016; still desk scale
    code, js, _ = run_json(capsys, "verify-gelfand", "--n", "2", "--q", "7", "--no-cache")
    assert code == 0
    assert js["class_count"] == 48
    assert js["flags"]["gelfand"] is True


def test_round_trip_parameter_strings(capsys):
    code, js, _ = run_json(capsys, "kappa", "P(U(s:2,2,2),1/4) x U(rho~:1,1,3)@-1/2")
    assert code == 0
    rebuilt = parse_parameter(" x ".join(js["blocks"]))
    assert [str(e) for e in rebuilt.entries] == js["blocks"]


PARSER_ARGVS = [
    ["verify-gelfand", "--n", "2", "--q", "3", "--no-cache", "--format", "json"],
    ["kappa", "U(rho:1,1,3)@0", "--n", "3"],
    ["derive", "U(rho:2,2,1)@0", "--format", "json"],
    ["period", "--t", "3", "--zeta", "--tol", "1e-6"],
    ["residue-survival", "--t", "5"],
    ["table", "--n", "2", "--q", "2", "--ell", "19", "--cache-dir", "d"],
]


def test_reused_parser_matches_fresh_parser():
    shared = build_parser()
    assert build_parser() is shared
    order = list(range(len(PARSER_ARGVS)))
    for index in order + order[::-1]:
        argv = PARSER_ARGVS[index]
        fresh = build_parser.__wrapped__().parse_args(argv)
        assert vars(shared.parse_args(argv)) == vars(fresh)
