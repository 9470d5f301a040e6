"""T = Ext^n(D(reg), reg), the bimodule whose tensor algebra is the
(n+1)-preprojective algebra, is computed as Ext^n over the enveloping
algebra from the dual of the resolution of the regular bimodule.  The Hom
construction it replaced is the oracle `ext_bimodule_oracle` of conftest;
both must give isomorphic bimodules.  Independently, the left module of T
is tau_n^-(reg), since tau_n^- = Ext^n(D(reg), -)."""

import functools

import pytest

from conftest import corpus_algebra, ext_bimodule_oracle
from quivercy.ar import ext_bimodule, tau_n_minus
from quivercy.constructions import TypeAQuiver, cut_algebra, enumerate_cuts
from quivercy.cy import check_untwisted_cy
from quivercy.homology import env_resolution
from quivercy.module import (
    bimodule_to_env_module,
    column_sum,
    is_isomorphic,
    regular_bimodule,
    regular_module,
)

N1_STEMS = ["a2", "a3_linear", "a3_stable", "a4_linear", "a5_stable", "d4"]
ORACLE_CASES = ([(stem, 1) for stem in N1_STEMS] + [("a2_tensor_a2", 2)]
                + [((2, 4, i), 2) for i in range(0, 65, 5)]
                + [((2, 5, i), 2) for i in (0, 240)])
TAU_CASES = ([(stem, 1) for stem in N1_STEMS + ["kronecker"]] + [("a2_tensor_a2", 2)]
             + [((2, 4, i), 2) for i in (0, 32, 64)])


@functools.lru_cache(maxsize=None)
def _algebra(case):
    if isinstance(case, str):
        return corpus_algebra(case)
    n, s, idx = case
    q = TypeAQuiver(n, s)
    return cut_algebra(q, enumerate_cuts(q)[idx])


@pytest.mark.parametrize("case,n", ORACLE_CASES, ids=str)
def test_ext_bimodule_matches_the_hom_construction(case, n):
    alg = _algebra(case)
    T, O = ext_bimodule(alg, n), ext_bimodule_oracle(alg, n)
    assert T.total_dim
    assert dict(T.dims) == dict(O.dims)
    assert is_isomorphic(bimodule_to_env_module(T), bimodule_to_env_module(O))


@pytest.mark.parametrize("case,n", TAU_CASES, ids=str)
def test_left_module_of_ext_bimodule_is_tau_n_minus_of_reg(case, n):
    alg = _algebra(case)
    left = column_sum(ext_bimodule(alg, n), alg.vertices)
    assert is_isomorphic(left, tau_n_minus(regular_module(alg), n))


def test_ext_bimodule_beyond_global_dimension_is_zero(a2):
    assert ext_bimodule(a2, 2).total_dim == 0


def test_one_enveloping_resolution_serves_ext_and_the_untwisted_check(monkeypatch):
    # both resolve the regular bimodule over the enveloping algebra at its
    # default cap, kept per algebra, so it is built once between them
    builds = []
    real = env_resolution.__wrapped__

    def counting(alg, bimodule, max_len):
        builds.append(bimodule)
        return real(alg, bimodule, max_len)

    monkeypatch.setattr(env_resolution, "__wrapped__", counting)
    alg = corpus_algebra("a2")
    assert check_untwisted_cy(alg, 6, 2)
    assert ext_bimodule(alg, 1).total_dim
    assert builds == [regular_bimodule]
