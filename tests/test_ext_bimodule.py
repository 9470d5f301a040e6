"""T = Ext^n(D(reg), reg), the bimodule whose tensor algebra is the
(n+1)-preprojective algebra, is computed over the algebra itself: the
right action from the transposed resolution of DA, the left action from
chain maps lifted over the right action on DA (`homology.lift`).  Two
oracles check it: the route over the enveloping algebra that it replaced
(`ext_bimodule_env_oracle` of conftest) and the Hom construction before
that (`ext_bimodule_oracle`); all three must give isomorphic bimodules.
Independently, the left module of T is tau_n^-(reg), since tau_n^- =
Ext^n(D(reg), -)."""

import functools

import pytest

from conftest import (
    corpus_algebra,
    ext_bimodule_env_oracle,
    ext_bimodule_oracle,
)
from quivercy.algebra import enveloping
from quivercy.ar import decide_nrf, ext_bimodule, preprojective, tau_n_minus
from quivercy.constructions import TypeAQuiver, cut_algebra, enumerate_cuts, omega_on_cuts
from quivercy.cy import check_untwisted_cy
from quivercy.homology import env_resolution, global_dimension, injective_resolutions
from quivercy.module import (
    bimodule_to_env_module,
    column_sum,
    is_isomorphic,
    regular_bimodule,
    regular_module,
)
from quivercy.parsing import parse_algebra_file

N1_STEMS = ["a2", "a3_linear", "a3_stable", "a4_linear", "a5_stable", "d4"]
# cyclic quivers of global dimension 2: 1 <-> 2 with one path of length 2
# zero, and a 3-vertex quiver on which T has a left action at n = 2
CYCLIC = {
    "two_cycle": "vertices: 1 2\narrows:\n  a: 1 -> 2\n  b: 2 -> 1\nrelations:\n  a*b\n",
    "three_vertices": ("vertices: 1 2 3\narrows:\n  a: 1 -> 2\n  b: 2 -> 1\n  c: 3 -> 2\n"
                       "  d: 1 -> 3\nrelations:\n  a*b\n  d*c\n"),
}
ORACLE_CASES = ([(stem, 1) for stem in N1_STEMS] + [("a2_tensor_a2", 2)]
                + [((2, 4, i), 2) for i in range(65)]
                + [((2, 5, i), 2) for i in (0, 240)] + [((3, 4, 0), 3)]
                + [(name, n) for name in CYCLIC for n in (1, 2)])
TAU_CASES = ([(stem, 1) for stem in N1_STEMS + ["kronecker"]] + [("a2_tensor_a2", 2)]
             + [((2, 4, i), 2) for i in (0, 32, 64)])


@functools.lru_cache(maxsize=None)
def _algebra(case):
    if case in CYCLIC:
        return parse_algebra_file(CYCLIC[case]).build(name=case)
    if isinstance(case, str):
        return corpus_algebra(case)
    n, s, idx = case
    q = TypeAQuiver(n, s)
    return cut_algebra(q, enumerate_cuts(q)[idx])


@pytest.mark.parametrize("case,n", ORACLE_CASES, ids=str)
def test_ext_bimodule_matches_the_hom_construction(case, n):
    alg = _algebra(case)
    T = ext_bimodule(alg, n)
    assert T.total_dim
    T_env = bimodule_to_env_module(T)
    for O in (ext_bimodule_env_oracle(alg, n), ext_bimodule_oracle(alg, n)):
        assert dict(T.dims) == dict(O.dims)
        assert is_isomorphic(T_env, bimodule_to_env_module(O))


@pytest.mark.parametrize("case", list(CYCLIC))
def test_cyclic_inputs_resolve_da_in_one_split(case):
    # no kept injective slices: ext_bimodule resolves DA itself, and the
    # inputs have finite global dimension 2
    alg = _algebra(case)
    assert injective_resolutions(alg) is None
    assert global_dimension(alg) == 2
    assert ext_bimodule(alg, 3).total_dim == 0


def test_the_three_vertex_cyclic_input_has_a_left_action():
    T = ext_bimodule(_algebra("three_vertices"), 2)
    assert T.lact_by_col and T.ract_by_elt


@pytest.mark.parametrize("case,n", TAU_CASES, ids=str)
def test_left_module_of_ext_bimodule_is_tau_n_minus_of_reg(case, n):
    alg = _algebra(case)
    left = column_sum(ext_bimodule(alg, n), alg.vertices)
    assert is_isomorphic(left, tau_n_minus(regular_module(alg), n))


def test_ext_bimodule_beyond_global_dimension_is_zero(a2):
    assert ext_bimodule(a2, 2).total_dim == 0


def _stable_cuts(n, s):
    q = TypeAQuiver(n, s)
    return [(q, c) for c in enumerate_cuts(q) if omega_on_cuts(q, c) == c]


PREPROJ_CASES = ([(stem, 1) for stem in ("a3_stable", "a5_stable", "d4")]
                 + [(k, 2) for k in range(len(_stable_cuts(2, 4)))])


@pytest.mark.parametrize("case,n", PREPROJ_CASES, ids=str)
def test_preprojective_builds_no_enveloping_algebra(monkeypatch, case, n):
    # after decide_nrf, preprojective reads the injectives' slices that
    # global_dimension kept: no enveloping algebra, no resolution over it,
    # and one resolution of DA in all
    builds = []
    for fn in (enveloping, env_resolution, injective_resolutions):
        monkeypatch.setattr(fn, "__wrapped__",
                            lambda *args, real=fn.__wrapped__, name=fn.__name__, **caps:
                            builds.append(name) or real(*args, **caps))
    if isinstance(case, str):
        alg = corpus_algebra(case)
    else:
        alg = cut_algebra(*_stable_cuts(2, 4)[case])
    rep = decide_nrf(alg, n)
    assert builds == ["injective_resolutions"]
    preprojective(alg, n, report=rep)
    assert builds == ["injective_resolutions"]


def test_one_enveloping_resolution_serves_ext_and_the_untwisted_check(monkeypatch):
    # the untwisted check resolves the regular bimodule over the enveloping
    # algebra at its default cap, kept per algebra; ext_bimodule resolves
    # nothing over it
    builds = []
    real = env_resolution.__wrapped__

    def counting(alg, bimodule, max_len):
        builds.append(bimodule)
        return real(alg, bimodule, max_len)

    monkeypatch.setattr(env_resolution, "__wrapped__", counting)
    alg = corpus_algebra("a2")
    assert ext_bimodule(alg, 1).total_dim
    assert builds == []
    assert check_untwisted_cy(alg, 6, 2)
    assert builds == [regular_bimodule]
