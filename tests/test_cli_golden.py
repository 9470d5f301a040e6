"""The CLI documents and exit codes, pinned byte for byte.

Each file in tests/golden/ holds the argv of one CLI call, its exit code and
the JSON document it printed, without the run-dependent "elapsed_s".  The
calls run from the corpus directory, so the "input" fields are bare file
names.  After a deliberate change of a document, rewrite the files with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import pathlib
import re

import pytest
from click.testing import CliRunner

import quivercy
from quivercy.cli import main

CORPUS = pathlib.Path(quivercy.__file__).parent / "corpus"
GOLDEN = pathlib.Path(__file__).parent / "golden"
STEMS = sorted(p.stem for p in CORPUS.glob("*.alg"))


def _cases():
    cases = {}
    for stem in STEMS:
        for n in (1, 2):
            cases[f"analyze_{stem}_n{n}"] = ["analyze", f"{stem}.alg", "--n", str(n)]
        cases[f"cy_{stem}"] = ["cy", f"{stem}.alg"]
    cases["cy_untwisted_a2_tensor_a2_3_2"] = ["cy", "a2_tensor_a2.alg", "--untwisted",
                                              "--ell", "3", "--m", "2"]
    cases["cy_untwisted_a2_3_1"] = ["cy", "a2.alg", "--untwisted", "--ell", "3", "--m", "1"]
    cases["cy_a3_stable_2_1"] = ["cy", "a3_stable.alg", "--ell", "2", "--m", "1"]
    cases["typea_2_4_verify"] = ["typea", "--n", "2", "--s", "4", "--verify"]
    cases["typea_2_4_cuts"] = ["typea", "--n", "2", "--s", "4", "--enumerate-cuts"]
    cases["tensor_a3_stable_a3_stable"] = ["tensor", "a3_stable.alg", "a3_stable.alg",
                                           "--n", "1", "--n", "1", "--ell", "2"]
    for stem in ("a3_stable", "a5_stable", "d4"):
        cases[f"preproj_{stem}"] = ["preproj", f"{stem}.alg", "--n", "1"]
        cases[f"auslander_{stem}"] = ["auslander", f"{stem}.alg", "--n", "1"]
    return cases


CASES = _cases()


def _run(argv):
    """The exit code and the printed text, without the "elapsed_s" line."""
    result = CliRunner().invoke(main, argv)
    return result.exit_code, re.sub(r'\n  "elapsed_s": [0-9.e-]+,', "", result.stdout)


def _render(doc):
    # the CLI's own layout: a document renders to the text the CLI printed
    return json.dumps(doc, indent=2, default=str, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_document_matches_golden(name, monkeypatch):
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    assert golden["argv"] == CASES[name]
    monkeypatch.chdir(CORPUS)
    code, text = _run(CASES[name])
    assert code == golden["exit_code"]
    assert text == _render(golden["document"])


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


if __name__ == "__main__":
    import os

    GOLDEN.mkdir(exist_ok=True)
    os.chdir(CORPUS)
    for name, argv in sorted(CASES.items()):
        code, text = _run(argv)
        doc = json.loads(text)
        assert _render(doc) == text, name
        record = {"argv": argv, "exit_code": code, "document": doc}
        (GOLDEN / f"{name}.json").write_text(_render(record))
        print(name, code)
