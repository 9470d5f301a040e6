"""A bimodule keeps each side's action once, as its nonzero blocks grouped
the way the readers read them: lact_by_col[v][i] and ract_by_elt[j][u].
`tensor_bimod_bimod` reads only those blocks and projects each action
block by block.  The dense big-space construction it replaced is the
oracle `tensor_bimod_bimod_oracle` of conftest; both must agree entry for
entry, in the product's dims, its stored blocks and its tensor data, on
the Ext bimodules of the n-representation-finite corpus algebras, of
every 8th (2,4) cut and of the Kronecker algebra, and on the regular and
dual regular bimodules of the same algebras."""

import functools
import sys

import pytest

from conftest import assert_bimodule_store, corpus_algebra, tensor_bimod_bimod_oracle
from quivercy.algebra import opposite
from quivercy.ar import ext_bimodule
from quivercy.constructions import TypeAQuiver, cut_algebra, enumerate_cuts
from quivercy.linalg import Mat
from quivercy.module import (
    bimodule_to_env_module,
    dual_regular_bimodule,
    env_module_to_bimodule,
    regular_bimodule,
    tensor_bimod_bimod,
)

N1_STEMS = ["a2", "a3_linear", "a3_stable", "a4_linear", "a5_stable", "d4"]
# the Kronecker algebra is not representation-finite, but its two arrows
# make spaces of dimension 2, where the order of a kron shows
CASES = ([(stem, 1) for stem in N1_STEMS] + [((2, 4, i), 2) for i in range(0, 65, 8)]
         + [("kronecker", 1)])


@functools.lru_cache(maxsize=None)
def _algebra(case):
    if isinstance(case, str):
        return corpus_algebra(case)
    n, s, idx = case
    q = TypeAQuiver(n, s)
    return cut_algebra(q, enumerate_cuts(q)[idx])


def _products(alg, n):
    """(T, S) for T (x) T, A (x) DA and DA (x) DA, T the Ext bimodule."""
    T, R, D = ext_bimodule(alg, n), regular_bimodule(alg), dual_regular_bimodule(alg)
    return [(T, T), (R, D), (D, D)]


def _same_tensor(X, Y):
    assert dict(X.dims) == dict(Y.dims)
    assert X.lact_by_col == Y.lact_by_col
    assert X.ract_by_elt == Y.ract_by_elt
    assert X.tensor_data == Y.tensor_data


@pytest.mark.parametrize("case,n", CASES, ids=str)
def test_tensor_matches_the_dense_big_space(case, n):
    alg = _algebra(case)
    for T, S in _products(alg, n):
        X = tensor_bimod_bimod(T, S)
        _same_tensor(X, tensor_bimod_bimod_oracle(T, S))
        assert_bimodule_store(X)
        if X.total_dim:
            # a second power reads the blocks of a product
            _same_tensor(tensor_bimod_bimod(X, T), tensor_bimod_bimod_oracle(X, T))


@pytest.mark.parametrize("case,n", CASES, ids=str)
def test_every_builder_keeps_the_store_rule(case, n):
    alg = _algebra(case)
    op = opposite(alg)
    R, D, T = regular_bimodule(alg), dual_regular_bimodule(alg), ext_bimodule(alg, n)
    for X in (R, D, T, dual_regular_bimodule(op), env_module_to_bimodule(
            bimodule_to_env_module(T), alg)):
        assert_bimodule_store(X)


def test_tensor_fills_no_dense_action(monkeypatch):
    # the action blocks are krons of stored blocks, so tensor_bimod_bimod
    # itself asks for no zero matrix; the oracle asks for one per action
    callers = []
    zero = Mat.zero

    def spy(rows, cols):
        callers.append(sys._getframe(1).f_code.co_name)
        return zero(rows, cols)

    monkeypatch.setattr(Mat, "zero", staticmethod(spy))
    for case, n in CASES[:3]:
        for T, S in _products(_algebra(case), n):
            tensor_bimod_bimod_oracle(T, S)
            assert "tensor_bimod_bimod_oracle" in callers
            callers.clear()
            tensor_bimod_bimod(T, S)
            assert "tensor_bimod_bimod" not in callers
