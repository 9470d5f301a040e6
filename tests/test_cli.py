import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

import pathlib

import quivercy
from quivercy.cli import main

CORPUS = pathlib.Path(quivercy.__file__).parent / "corpus"


def corpus(stem):
    return str(CORPUS / (stem + ".alg"))


@pytest.fixture()
def runner():
    return CliRunner()


def run_json(runner, args):
    result = runner.invoke(main, args)
    doc = json.loads(result.output) if result.output.strip().startswith("{") else None
    return result, doc


def test_analyze_positive(runner):
    result, doc = run_json(runner, ["analyze", corpus("a3_stable"), "--n", "1"])
    assert result.exit_code == 0
    assert doc["schema_version"] == 1
    assert doc["is_nrf"] is True
    assert doc["homogeneous"] is True
    assert doc["b"] == 6


def test_analyze_negative(runner):
    result, doc = run_json(runner, ["analyze", corpus("a2_tensor_a2"), "--n", "2"])
    assert result.exit_code == 1
    assert doc["is_nrf"] is False


def test_analyze_undecided(runner):
    result, doc = run_json(runner, ["analyze", corpus("kronecker"), "--n", "1"])
    assert result.exit_code == 2
    assert doc["is_nrf"] == "undecided"


def test_parse_error_exit_code(runner, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("arrows:\n  a: 1 -> 2\n")
    result = runner.invoke(main, ["analyze", str(bad), "--n", "1"])
    assert result.exit_code == 64


def test_malformed_coefficient_exit_code(runner, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("vertices: 1 2\narrows:\n  a: 1 -> 2\nrelations:\n  1/0*a\n")
    result = runner.invoke(main, ["analyze", str(bad), "--n", "1"])
    assert result.exit_code == 64
    assert f"parse error at {bad}:5:3" in result.stderr


def test_unmatched_bracket_exit_code(runner, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("vertices: 1 2 3\narrows:\n  a: 1 -> 2\n  b: 2 -> 3\n"
                   "relations:\n  a*b - 2*[b\n")
    result = runner.invoke(main, ["analyze", str(bad), "--n", "1"])
    assert result.exit_code == 64
    assert f"parse error at {bad}:6:11" in result.stderr


# usage errors exit 64 like a parse error; click's own 2 would read as
# undecided


@pytest.mark.parametrize("args", [
    ["analyze", corpus("a2"), "--n", "1", "--seed", "3"],
    ["cy", corpus("a2"), "--bogus", "3"],
    ["typea", "--n", "1", "--s", "3", "--bogus"],
    ["tensor", corpus("a2"), "--n", "1", "--ell", "3", "--seed", "0"],
    ["preproj", corpus("a2"), "--n", "1", "--seed", "0"],
    ["auslander", corpus("a2"), "--n", "1", "--seed", "0"],
    ["--bogus"],
], ids=lambda a: a[0])
def test_unknown_option_exit_code(runner, args):
    assert runner.invoke(main, args).exit_code == 64


@pytest.mark.parametrize("args", [
    ["analyze", corpus("a2")],
    ["typea", "--s", "3"],
    ["tensor", corpus("a2"), "--ell", "3"],
    ["preproj", corpus("a2")],
    ["auslander", corpus("a2")],
], ids=lambda a: a[0])
def test_missing_option_exit_code(runner, args):
    assert runner.invoke(main, args).exit_code == 64


@pytest.mark.parametrize("opt,val", [("--ell", "5"), ("--m", "1")])
def test_cy_point_check_needs_both_ell_and_m(runner, opt, val):
    # either one alone used to be ignored, and the search ran instead
    result = runner.invoke(main, ["cy", corpus("a2"), opt, val])
    assert result.exit_code == 64
    assert "--ell and --m" in result.output
    assert "Traceback" not in result.output


# a number out of its option's range is a usage error too: click's message,
# no traceback, and no verdict computed from it


def _out_of_range_cases():
    base = {
        "analyze": ["analyze", corpus("a2"), "--n", "1"],
        "cy": ["cy", corpus("a2")],
        "typea": ["typea", "--n", "1", "--s", "3"],
        "tensor": ["tensor", corpus("a2"), "--n", "1", "--ell", "3"],
        "preproj": ["preproj", corpus("a2"), "--n", "1"],
        "auslander": ["auslander", corpus("a2"), "--n", "1"],
    }
    bad = [(cmd, "--n", "0") for cmd in base if cmd != "cy"]
    bad += [("analyze", "--n", "-1"), ("typea", "--s", "0"), ("cy", "--ell", "0"),
            ("tensor", "--ell", "0"), ("cy", "--ell-max", "0"), ("cy", "--m", "-1"),
            ("cy", "--m-max", "-1"), ("cy", "--dim-ceiling", "-1")]
    bad += [(cmd, "--cap", "-1") for cmd in base]
    cases = []
    for cmd, opt, val in bad:
        args = list(base[cmd])
        if opt in args:
            args[args.index(opt) + 1] = val
        else:
            args += [opt, val]
        if cmd == "cy" and opt == "--ell":
            args += ["--m", "1"]
        cases.append(pytest.param(args, opt, id=f"{cmd}{opt}={val}"))
    return cases


@pytest.mark.parametrize("args,opt", _out_of_range_cases())
def test_out_of_range_number_exit_code(runner, args, opt):
    result = runner.invoke(main, args)
    assert result.exit_code == 64
    assert isinstance(result.exception, SystemExit)
    assert f"Invalid value for '{opt}'" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command", ["analyze", "cy", "tensor", "preproj", "auslander"])
def test_missing_file_exit_code(runner, tmp_path, command):
    args = [command, str(tmp_path / "absent.alg")]
    if command != "cy":
        args += ["--n", "1"]
    if command == "tensor":
        args += ["--ell", "3"]
    assert runner.invoke(main, args).exit_code == 64


def test_cy_search(runner):
    result, doc = run_json(runner, ["cy", corpus("a2")])
    assert result.exit_code == 0
    assert doc["found"] is True
    assert (doc["ell"], doc["m"]) == (3, 1)
    assert doc["dimension"] == "1/3"


def test_cy_search_reports_its_route(runner):
    result, doc = run_json(runner, ["cy", corpus("a3_stable")])
    assert result.exit_code == 0
    assert (doc["ell"], doc["m"], doc["route"]) == (2, 1, "tau_n orbits")
    # the commutative square is not 2-representation-finite
    result, doc = run_json(runner, ["cy", corpus("a2_tensor_a2")])
    assert result.exit_code == 0
    assert (doc["ell"], doc["m"], doc["route"]) == (3, 2, "one-sided nakayama power")


def test_cy_point_check(runner):
    result, doc = run_json(runner, ["cy", corpus("a2"), "--ell", "3", "--m", "1"])
    assert result.exit_code == 0
    assert doc["passed"] is True
    result, doc = run_json(runner, ["cy", corpus("a2"), "--ell", "2", "--m", "1"])
    assert result.exit_code == 1


def test_cy_none_found(runner):
    result, doc = run_json(runner, ["cy", corpus("kronecker"),
                                    "--ell-max", "4", "--m-max", "4"])
    assert result.exit_code == 1
    assert doc["found"] is False


def test_cy_none_found_reports_k0_candidates(runner):
    # no power of the Kronecker algebra's Nakayama matrix on K_0 is a
    # signed permutation, so no ell up to the default ell_max can carry
    # a certificate
    result, doc = run_json(runner, ["cy", corpus("kronecker")])
    assert result.exit_code == 1
    assert doc["found"] is False
    assert doc["k0_candidates"] == []


def test_capped_algebra_is_undecided(runner, tmp_path):
    # a 2-cycle with rad^2 = 0 has infinite global dimension, so both the
    # representation-finiteness decision and the certificate search hit
    # the cap and must say undecided, not no
    path = tmp_path / "cycle2.alg"
    path.write_text("vertices: 1 2\narrows:\n  a: 1 -> 2\n  b: 2 -> 1\n"
                    "relations:\n  a*b\n  b*a\n")
    result, doc = run_json(runner, ["analyze", str(path), "--n", "1"])
    assert result.exit_code == 2
    assert doc["reason"] == "global dimension exceeds the cap"
    result = runner.invoke(main, ["cy", str(path)])
    assert result.exit_code == 2


def test_capped_preproj_is_undecided(runner):
    # the orbit of the injective at 1 has three stages, over the cap of 1
    result = runner.invoke(main, ["preproj", corpus("a3_linear"), "--n", "1", "--cap", "1"])
    assert result.exit_code == 2
    assert "orbit of injective at 1 exceeds the cap" in result.output


def test_capped_tensor_factor_is_undecided(runner):
    result = runner.invoke(main, ["tensor", corpus("a3_stable"), corpus("a3_stable"),
                                  "--n", "1", "--n", "1", "--ell", "2", "--cap", "1"])
    assert result.exit_code == 2
    assert "exceeds the cap" in result.output


def test_cy_untwisted_point(runner):
    result, doc = run_json(runner, ["cy", corpus("a2"), "--untwisted",
                                    "--ell", "3", "--m", "1"])
    assert result.exit_code == 0
    assert doc["passed"] is True


@pytest.mark.parametrize("args, ell, m, twisted", [
    # the least certificate (2, 1) is twisted; its double is not
    (["a3_stable"], 4, 2, False),
    (["d4"], 3, 2, False),
    (["a3_stable", "--ell-max", "2"], 2, 1, True),
])
def test_cy_untwisted_search(runner, args, ell, m, twisted):
    result, doc = run_json(runner, ["cy", corpus(args[0]), "--untwisted"] + args[1:])
    assert result.exit_code == 0
    assert (doc["ell"], doc["m"], doc["twisted"]) == (ell, m, twisted)


def test_cy_untwisted_dim_ceiling(runner):
    result = runner.invoke(main, ["cy", corpus("a2"), "--untwisted",
                                  "--dim-ceiling", "2", "--ell", "3", "--m", "1"])
    assert result.exit_code == 2


def test_cy_capped_point(runner):
    # the orbits give a2's certificate (3, 1) with no Nakayama power, so
    # the width cap is never met; the commutative square's orbits give
    # none, and its first power exceeds a cap of 2
    result, doc = run_json(runner, ["cy", corpus("a2"), "--ell", "3", "--m", "1", "--cap", "1"])
    assert result.exit_code == 0
    assert doc["passed"] is True
    result = runner.invoke(main, ["cy", corpus("a2_tensor_a2"), "--ell", "3", "--m", "2",
                                  "--cap", "2"])
    assert result.exit_code == 2


def test_typea_counts(runner):
    result, doc = run_json(runner, ["typea", "--n", "1", "--s", "3",
                                    "--enumerate-cuts"])
    assert result.exit_code == 0
    assert doc["cut_count"] == 4
    assert doc["omega_stable_count"] == 2
    assert doc["cycles"] == 2


def test_typea_verify(runner):
    result, doc = run_json(runner, ["typea", "--n", "1", "--s", "3", "--verify"])
    assert result.exit_code == 0
    assert doc["verified"] is True
    assert doc["ell"] == 2


def test_typea_verify_undecided_says_so(runner):
    # at cap 1 no cut is decided: the theorem check is undecided, not false
    result, doc = run_json(runner, ["typea", "--n", "1", "--s", "3", "--verify", "--cap", "1"])
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert doc["verified"] == "undecided"


def test_tensor_rejects_inhomogeneous(runner):
    result = runner.invoke(main, ["tensor", corpus("a2"), corpus("a2"),
                                  "--n", "1", "--n", "1", "--ell", "2"])
    assert result.exit_code == 1


def test_tensor_positive(runner):
    result, doc = run_json(runner, ["tensor", corpus("a3_stable"), corpus("a3_stable"),
                                    "--n", "1", "--n", "1", "--ell", "2"])
    assert result.exit_code == 0
    assert doc["is_nrf"] is True
    assert doc["cy_combined"]["dimension"] == "1"


def test_preproj(runner):
    result, doc = run_json(runner, ["preproj", corpus("a3_stable"), "--n", "1"])
    assert result.exit_code == 0
    assert doc["dim"] == 10
    assert doc["selfinjective"] is True
    assert doc["matches_sigma"] is True


def test_auslander(runner):
    result, doc = run_json(runner, ["auslander", corpus("a3_stable"), "--n", "1"])
    assert result.exit_code == 0
    assert doc["dim"] == 15
    assert doc["gl_dim"] == 2
    assert doc["dom_dim"] == 2
    assert doc["quiver_arrows"] == 6
    assert doc["relation_count"] == 3


def test_auslander_undecided_says_so(runner):
    result = runner.invoke(main, ["auslander", corpus("kronecker"), "--n", "1", "--cap", "0"])
    assert result.exit_code == 2
    assert "undecided: global dimension exceeds the cap" in result.stderr
    assert "not representation-finite" not in result.stderr


def test_odd_vertex_labels_are_labels(runner, tmp_path):
    # "--1" and "²" are not ints; reading them as ints crashed the parser
    path = tmp_path / "labels.alg"
    path.write_text("vertices: --1 ²\narrows:\n  a: --1 -> ²\n")
    result, doc = run_json(runner, ["analyze", str(path), "--n", "1"])
    assert result.exception is None and result.exit_code == 0
    assert "Traceback" not in result.output
    assert doc["is_nrf"] is True and doc["b"] == 3


def test_pretty_output(runner):
    result = runner.invoke(main, ["cy", corpus("a2"), "--pretty"])
    assert result.exit_code == 0
    assert "dimension: 1/3" in result.output


def _run_python(code):
    src = pathlib.Path(quivercy.__file__).parent.parent
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    return out.stdout.strip()


def test_importing_the_cli_does_not_load_sympy():
    # sympy is a test dependency only: no program path may import it
    assert _run_python("import sys, quivercy.cli; print('sympy' in sys.modules)") == "False"


def test_decompose_runs_without_sympy():
    # a None entry in sys.modules makes every import of sympy fail
    code = ("import sys; sys.modules['sympy'] = None\n"
            "import quivercy.cli\n"
            "from quivercy.module import decompose, regular_module\n"
            "from quivercy.parsing import load_algebra_file\n"
            f"alg = load_algebra_file({corpus('a3_linear')!r}).build()\n"
            "print(decompose(regular_module(alg))[1])")
    assert _run_python(code) == "True"


@pytest.mark.parametrize("target,args", [
    ("quivercy.ar.decide_nrf", ["analyze", corpus("a2"), "--n", "1"]),
    ("quivercy.cy.find_twisted_cy", ["cy", corpus("a2")]),
])
def test_out_of_memory_is_undecided(runner, monkeypatch, target, args):
    # exit 1 would read as a definite negative
    def exhausted(*args, **kwargs):
        raise MemoryError("no room for the next stage")

    monkeypatch.setattr(target, exhausted)
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "out of memory: no room for the next stage" in result.stderr
    assert "Traceback" not in result.output


def test_tensor_algebra_cap_is_undecided(runner, monkeypatch):
    # tensor powers that outlast the cap leave preproj undecided: exit 2,
    # not the exit 1 of a definite negative
    from quivercy.errors import NotNilpotent

    def persisting(*args, **kwargs):
        raise NotNilpotent("tensor powers persist past 24")

    monkeypatch.setattr("quivercy.ar.tensor_algebra", persisting)
    result = runner.invoke(main, ["preproj", corpus("a3_stable"), "--n", "1"])
    assert result.exit_code == 2
    assert "cap exceeded: tensor powers persist past 24" in result.stderr
    assert "Traceback" not in result.output
