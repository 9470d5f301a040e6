"""The verdicts of the library, pinned byte for byte.

tests/verdicts/verdicts.json holds, per algebra, `decide_nrf(alg, n).to_dict()`
for n = 1, 2, 3 and the certificate of `find_twisted_cy(alg)` (its
`to_dict`, null when there is none, or the text of its CapExceeded), for
the corpus, all 65 cuts of the (2,4) family, every 24th (2,5) cut and
every 80th (3,4) cut, plus one capped call.  Each algebra is built fresh
and asked in that order.  After a deliberate change of a verdict, rewrite
the file with

    PYTHONPATH=src python tests/test_verdicts_golden.py
"""

import json
import pathlib

import quivercy
from quivercy.ar import decide_nrf
from quivercy.constructions import TypeAQuiver, cut_algebra, enumerate_cuts
from quivercy.cy import find_twisted_cy
from quivercy.errors import CapExceeded
from quivercy.parsing import load_algebra_file

CORPUS = pathlib.Path(quivercy.__file__).parent / "corpus"
GOLDEN = pathlib.Path(__file__).parent / "verdicts" / "verdicts.json"
FAMILIES = {(2, 4): 1, (2, 5): 24, (3, 4): 80}  # (n, s): step through the cuts


def _algebras():
    for path in sorted(CORPUS.glob("*.alg")):
        yield f"corpus/{path.stem}", load_algebra_file(str(path)).build(name=path.stem)
    for (n, s), step in FAMILIES.items():
        q = TypeAQuiver(n, s)
        for i, cut in enumerate(enumerate_cuts(q)):
            if i % step == 0:
                yield f"cut_{n}_{s}/{i}", cut_algebra(q, cut)


def _certificate(alg):
    try:
        cert = find_twisted_cy(alg)
    except CapExceeded as exc:
        return f"CapExceeded: {exc}"
    return cert and cert.to_dict()


def verdicts():
    doc = {}
    for key, alg in _algebras():
        doc[key] = {"nrf": {str(n): decide_nrf(alg, n).to_dict() for n in (1, 2, 3)},
                    "cy": _certificate(alg)}
    a3 = load_algebra_file(str(CORPUS / "a3_linear.alg")).build(name="a3_linear")
    doc["capped/a3_linear_n1_cap1"] = decide_nrf(a3, 1, cap=1).to_dict()
    return doc


def _render(doc):
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def test_verdicts_match_golden():
    text = GOLDEN.read_text()
    doc = verdicts()
    golden = json.loads(text)
    changed = sorted(k for k in golden.keys() | doc.keys() if golden.get(k) != doc.get(k))
    assert not changed, f"verdicts changed for {changed}"
    assert _render(doc) == text


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    doc = verdicts()
    GOLDEN.write_text(_render(doc))
    print(len(doc), "entries")
