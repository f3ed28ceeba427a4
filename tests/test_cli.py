import hashlib
import json
import random
import sys
import time
from enum import IntEnum

import pytest

from klyachko import __version__, cli, gelfand, speh
from klyachko.cli import build_parser, main
from klyachko.paramparse import parse_parameter
from klyachko.speh import block_text
from oracles import residue_terms_closed_form
from textcheck import assert_same_text


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
    return tmp_path  # IsADirectoryError, raised before the group is enumerated


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


def test_failed_cache_write_is_bad_usage(capsys, tmp_path, monkeypatch):
    """A directory whose write fails is refused after the enumeration,
    when save_table raises (a chmod cannot stop root from writing)."""
    def deny(table, path):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(gelfand, "save_table", deny)
    code, out, err = run(capsys, "verify-gelfand", "--n", "2", "--q", "2",
                         "--cache-dir", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("refused: cannot write the table cache")
    assert str(tmp_path / "gl2_q2.tbl") in err


def test_resource_refusal_exit_2(capsys):
    code, _, err = run(capsys, "verify-gelfand", "--n", "4", "--q", "3",
                       "--max-elements", "1000", "--no-cache")
    assert code == 2
    assert "refused" in err


# the least strong pseudoprimes to the prime bases up to 37 and up to 41;
# both are 1 mod 6, so they pass every other check for GL_2(F_2)
PSEUDOPRIMES = ["318665857834031151167461", "3317044064679887385961981"]


@pytest.mark.parametrize("command", ["verify-gelfand", "table"])
@pytest.mark.parametrize("ell", PSEUDOPRIMES)
def test_pseudoprime_ell_override_is_refused(capsys, command, ell):
    code, out, err = run(capsys, command, "--n", "2", "--q", "2", "--ell", ell, "--no-cache")
    assert code == 2 and out == ""
    assert err.startswith(f"refused: ell = {ell} ")


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


# the steps of a derive whose block t sum to exactly MAX_T = 1001, a paired
# block counting twice
AT_THE_CAP = {"U(rho:1,1,1001)@0": 1001, "P(U(rho:1,1,500),1/4) x U(a:1,1,1)": 500}


@pytest.mark.parametrize("param", sorted(AT_THE_CAP))
def test_derive_at_the_cap_is_accepted(capsys, param):
    code, js, err = run_json(capsys, "derive", param)
    assert (code, err) == (0, "")
    assert cli.MAX_T == 1001
    assert js["steps"] == AT_THE_CAP[param]
    assert js["stages"][-1]["param"] is None


# the block t sum of each parameter above the cap
ABOVE_THE_CAP = {"U(rho:1,1,1002)@0": 1002, "P(U(rho:1,1,1002),1/4) x U(a:1,1,1)": 2005}


@pytest.mark.parametrize("param", sorted(ABOVE_THE_CAP))
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_derive_above_the_cap_is_refused_before_any_derivative(capsys, monkeypatch, param, fmt):
    def no_work(blocks):
        raise AssertionError("derivative taken above the cap")

    monkeypatch.setattr(cli, "product_highest_derivative", no_work)
    assert run(capsys, "derive", param, "--format", fmt) == (
        2, "", f"refused: sum of block t {ABOVE_THE_CAP[param]} is above the cap 1001\n")


def test_derive_of_many_blocks_each_under_the_cap_is_refused(capsys, monkeypatch):
    """100 blocks of t = 1001 would list 100100 blocks over the stages:
    the sum of the block t is capped, not each t."""
    def no_work(blocks):
        raise AssertionError("derivative taken above the cap")

    monkeypatch.setattr(cli, "product_highest_derivative", no_work)
    param = " x ".join(f"U(a{i}:1,1,1001)@0" for i in range(100))
    assert run(capsys, "derive", param, "--format", "json") == (
        2, "", "refused: sum of block t 100100 is above the cap 1001\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_derive_formats_each_stepped_block_once(capsys, monkeypatch, fmt):
    """Ten blocks U(a_i:1,1,100-i)@0 step through 945 blocks: a stage's
    `param` joins the texts of its `blocks` in sorted order, so at most
    one `block_text` call per stepped block and one per input block."""
    calls = []

    def counted(b):
        calls.append(b)
        return block_text(b)

    monkeypatch.setattr(cli, "block_text", counted)
    monkeypatch.setattr(speh, "block_text", counted)
    param = " x ".join(f"U(a{i}:1,1,{100 - i})@0" for i in range(10))
    code, out, err = run(capsys, "derive", param, "--format", fmt)
    assert (code, err) == (0, "")
    assert 0 < len(calls) <= 945 + 10
    if fmt == "json":
        stages = json.loads(out)["stages"]
        assert sum(len(s["blocks"]) for s in stages) == 945
        for s in stages[:-1]:
            blocks = parse_parameter(" x ".join(s["blocks"]))
            assert s["param"] == " x ".join(map(block_text, blocks))


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="the interpreter has no limit on integer digits")
@pytest.mark.parametrize("template", ["U(rho:1,1,{})@0", "U(rho:1,1,3)@-1/{}", "P(U(rho:{},1,1),1/4)"])
def test_integer_past_the_digit_limit_is_parse_error_exit_4(capsys, template):
    digits = sys.get_int_max_str_digits()
    if digits == 0:
        pytest.skip("the integer digit limit is switched off")
    param = template.format("9" * (digits + 1))
    code, out, err = run(capsys, "kappa", param)
    assert (code, out) == (4, "")
    assert err == (f"parse error: integer of {digits + 1} digits is too long "
                   f"(at position {param.index('9' * 10)})\n")


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
    payload = {**residue_terms_closed_form(101), "meta": {"version": __version__}}
    code, out, _ = run(capsys, "residue-survival", "--t", "101", "--format", "json")
    assert code == 0
    assert_same_text(out, json.dumps(payload, indent=2) + "\n", "the closed form")


RESIDUE_SURVIVAL_TEXT = {
    3: """\
t = 3 (m = 1), required pole order 2:
  w^(1) =              e  descents []  set [2]  order 1  dies
  w^(2) =          (1 2)  descents [1]  set []  order 1  dies
  w^(3) =        (1 2 3)  descents [2]  set [1]  order 2  survives
survivors: [3] (w_Q is i = 3)
""",
    7: """\
t = 7 (m = 3), required pole order 6:
  w^(1) =              e  descents []  set [2, 3, 4, 5, 6]  order 5  dies
  w^(2) =          (1 2)  descents [1]  set [3, 4, 5, 6]  order 5  dies
  w^(3) =        (1 2 3)  descents [2]  set [1, 4, 5, 6]  order 5  dies
  w^(4) =      (1 2 3 4)  descents [3]  set [1, 2, 5, 6]  order 5  dies
  w^(5) =    (1 2 3 4 5)  descents [4]  set [1, 2, 3, 6]  order 5  dies
  w^(6) =  (1 2 3 4 5 6)  descents [5]  set [1, 2, 3, 4]  order 5  dies
  w^(7) = (1 2 3 4 5 6 7)  descents [6]  set [1, 2, 3, 4, 5]  order 6  survives
survivors: [7] (w_Q is i = 7)
""",
}


@pytest.mark.parametrize("t", sorted(RESIDUE_SURVIVAL_TEXT))
def test_residue_survival_text_output(capsys, t):
    code, out, err = run(capsys, "residue-survival", "--t", str(t))
    assert (code, err) == (0, "")
    assert_same_text(out, RESIDUE_SURVIVAL_TEXT[t], "RESIDUE_SURVIVAL_TEXT")


def test_residue_survival_even_t_fails(capsys):
    code, _, _ = run(capsys, "residue-survival", "--t", "4")
    assert code == 1


def test_largest_t_is_accepted(capsys):
    code, out, err = run(capsys, "residue-survival", "--t", "1001")
    assert (code, err) == (0, "")
    assert out.endswith("survivors: [1001] (w_Q is i = 1001)\n")
    code, js, err = run_json(capsys, "period", "--t", "1001")
    assert (code, err) == (0, "")
    assert js["t"] == 1001


RESIDUE_SURVIVAL_AT_THE_CAP = {  # --format: size in bytes and sha256 of stdout at t = 1001
    "json": (14952992, "88adcef9b93210bf4c697139b5a45ff4da6cb50539567d393e80ecf2cd7deb0c"),
    "text": (6843853, "e8148845d919d75aee4f26c0944b1f656ad3d35d2964f3e342a778bf3b8d7540"),
}


@pytest.mark.parametrize("fmt", sorted(RESIDUE_SURVIVAL_AT_THE_CAP))
def test_residue_survival_at_the_cap_keeps_its_bytes(capsys, fmt):
    """The whole report at t = 1001, pinned by its size and sha256: the
    walk over the representatives writes the bytes that building each
    one from scratch wrote."""
    size, digest = RESIDUE_SURVIVAL_AT_THE_CAP[fmt]
    code, out, err = run(capsys, "residue-survival", "--t", "1001", "--format", fmt)
    assert (code, err) == (0, "")
    data = out.encode()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["residue-survival", "--t", "1003"],
    ["residue-survival", "--t", "1003", "--format", "json"],
    ["residue-survival", "--t", "1004"],
    ["period", "--t", "1002", "--zeta"],
])
def test_t_above_the_cap_is_refused_before_any_work(capsys, monkeypatch, argv):
    def no_work(t):
        raise AssertionError("engine called above the cap")

    monkeypatch.setattr(cli, "residue_survival", no_work)
    monkeypatch.setattr(cli, "period_formula", no_work)
    t = argv[2]
    assert run(capsys, *argv) == (2, "", f"refused: --t {t} is above the cap 1001\n")


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
    assert [block_text(b) for b in rebuilt] == js["blocks"]


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


class Colour(IntEnum):
    RED = 1
    BLUE = -7


SCALARS = [0, 1, -1, 2**64, -(3**200), True, False, None, 0.0, -0.0, 1.5, -2.5e-300, 1e300,
           float("nan"), float("inf"), float("-inf"), Colour.RED, Colour.BLUE,
           "", "plain", 'a "quoted" word', "back\\slash", "\x00\x1f\n\t\x7f", "caf\u00e9",
           "\u65e5\u672c", "\U0001f600", "\u2028\ud800"]
CHARACTERS = "az09 \"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600"


def _random_json_value(rng, depth):
    """A nested value of dicts, lists and tuples, with runs of plain ints
    and lists that mix ints with the other scalars."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        if rng.random() < 0.5:
            return rng.choice(SCALARS)
        if rng.random() < 0.5:
            return rng.randint(-10**30, 10**30)
        return "".join(rng.choices(CHARACTERS, k=rng.randint(0, 6)))
    if roll < 0.5:
        ints = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(0, 6))]
        return ints if rng.random() < 0.5 else tuple(ints)
    if roll < 0.75:
        items = [_random_json_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
        return items if rng.random() < 0.5 else tuple(items)
    return {"".join(rng.choices(CHARACTERS, k=rng.randint(0, 4))): _random_json_value(rng, depth - 1)
            for _ in range(rng.randint(0, 4))}


def test_emitter_writes_the_stdlib_bytes_on_random_values(capsys):
    """cli._emit against json.dumps(indent=2) on 600 seeded nested values."""
    rng = random.Random(2718)
    values = [[], (), {}, [[]], {"a": {}}, [1, True], [0, None], [2, 1.0], [Colour.RED, 3],
              [10**40, -0.0, float("nan")], *SCALARS]
    values += [_random_json_value(rng, 4) for _ in range(600)]
    for value in values:
        cli._emit(value, "json", None)
        assert capsys.readouterr().out == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("value", [{1: "a"}, {"a": [{None: 1}]}, {(1, 2): 3}, {b"k": 1}, [object()],
                                   {"a": {1, 2}}, b"bytes"])
def test_emitter_refuses_what_it_cannot_encode(value):
    """A key that is not a str, or a value of no JSON type, raises
    TypeError (json.dumps would convert int, float, bool and None keys)."""
    with pytest.raises(TypeError):
        cli._emit(value, "json", None)
