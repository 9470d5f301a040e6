"""The untwisted Calabi-Yau check takes Nakayama powers of the enveloping
algebra E = A (x) A^op, and a bimodule becomes an E-module through its
stored blocks only.  The oracles in conftest are the routes these
replaced: the tensor powers of complexes of E-projectives over A written
out in coordinates, and the action of every pair of basis elements."""

import pytest

from conftest import (
    CORPUS,
    bimodule_to_env_module_oracle,
    dense_action,
    check_untwisted_cy_oracle,
    corpus_algebra,
)
from quivercy import cy
from quivercy.constructions import TypeAQuiver, cut_algebra, enumerate_cuts
from quivercy.cy import check_untwisted_cy
from quivercy.module import bimodule_to_env_module, dual_regular_bimodule, regular_bimodule

STEMS = sorted(p.stem for p in CORPUS.glob("*.alg"))


def _cuts(s, step):
    q = TypeAQuiver(2, s)
    return [cut_algebra(q, c) for c in enumerate_cuts(q)[::step]]


def _assert_same_env_module(alg):
    for bimodule in (regular_bimodule, dual_regular_bimodule):
        X = bimodule(alg)
        got, want = bimodule_to_env_module(X), bimodule_to_env_module_oracle(X)
        assert got.alg is want.alg
        assert got.dims == want.dims
        assert list(dense_action(got).items()) == list(dense_action(want).items())


@pytest.mark.parametrize("stem", STEMS)
def test_env_module_matches_pair_loop_on_corpus(stem):
    _assert_same_env_module(corpus_algebra(stem))


def test_env_module_matches_pair_loop_on_cuts():
    algs = _cuts(4, 1) + _cuts(5, 60)
    assert len(algs) == 65 + 8
    for alg in algs:
        _assert_same_env_module(alg)


# the (ell, m) with ell <= 6 and m <= 6 that pass the untwisted check
UNTWISTED = {
    "a2": {(3, 1), (6, 2)},
    "a2_tensor_a2": {(3, 2), (6, 4)},
    "a3_linear": {(4, 2)},
    "a3_stable": {(4, 2)},
    "a4_linear": {(5, 3)},
    "a5_stable": {(6, 4)},
    "d4": {(3, 2), (6, 4)},
    "kronecker": set(),
}


@pytest.mark.parametrize("stem", STEMS)
def test_untwisted_matches_tensor_power_oracle(stem):
    alg = corpus_algebra(stem)
    passed = set()
    for ell in range(1, 7):
        for m in range(7):
            got = check_untwisted_cy(alg, ell, m)
            assert got == check_untwisted_cy_oracle(alg, ell, m), (ell, m)
            if got:
                passed.add((ell, m))
    assert passed == UNTWISTED[stem]


@pytest.mark.parametrize("ell, m, replacements", [(3, 2, 0), (6, 4, 2)])
def test_untwisted_is_a_power_of_nu_e(a2sq, monkeypatch, ell, m, replacements):
    # DA^(x ell) = nu_E^(ell // 2) of DA or A: every power but the last is
    # a `nakayama` of E, and the last is DE (x)_E with no projective
    # replacement
    calls = []

    def counted(name, fn):
        def wrapped(*args, **kw):
            calls.append((name, args[-1].alg))
            return fn(*args, **kw)
        return wrapped

    monkeypatch.setattr(cy, "nakayama", counted("nakayama", cy.nakayama))
    monkeypatch.setattr(cy, "tensor_complex", counted("tensor", cy.tensor_complex))
    assert check_untwisted_cy(a2sq, ell, m) is True
    assert [name for name, _ in calls] == ["nakayama"] * replacements + ["tensor"]
    assert all(alg.tensor_info[0] is a2sq for _, alg in calls)
