"""Structural identities checked across the bundled examples: Serre
duality on the derived category, quasi-inverse translate identities,
vanishing of maps from translated summands to the algebra, scaling of
Calabi-Yau certificates and basic sanity of every produced complex."""

import pytest

from conftest import hom_dim, hom_in_D_dim, projective_module
from quivercy.ar import _match_projective, decide_nrf, tau_n, tau_n_minus
from quivercy.cy import check_twisted_cy
from quivercy.homology import (
    ext_dims_upto,
    min_proj_resolution,
    nakayama,
    stalk_regular,
)
from quivercy.module import (
    injective_module,
    is_isomorphic,
    regular_module,
    simple_module,
)


def perf(M):
    return min_proj_resolution(M)


def sample_modules(alg):
    mods = [simple_module(alg, v) for v in alg.vertices]
    mods.append(projective_module(alg, alg.vertices[0]))
    mods.append(injective_module(alg, alg.vertices[-1]))
    return mods


@pytest.mark.parametrize("stem", ["a2", "a3_stable", "a3_linear"])
def test_serre_duality(stem, request):
    alg = request.getfixturevalue(stem)
    mods = sample_modules(alg)
    for M in mods:
        nuM = nakayama(perf(M))
        for N in mods:
            PN = perf(N)
            for i in range(3):
                # dim Ext^i(M, N) = dim Hom(N, nu M [-i])
                assert ext_dims_upto(M, N, i)[i] == hom_in_D_dim(PN, nuM.shift(-i))


@pytest.mark.parametrize("stem", ["a3_stable", "a5_stable"])
def test_translate_quasi_inverse(stem, request):
    alg = request.getfixturevalue(stem)
    rep = decide_nrf(alg, 1)
    assert rep.is_nrf is True
    injs = [injective_module(alg, v) for v in alg.vertices]
    for X in rep.ct_summands:
        if _match_projective(X) is None:
            assert is_isomorphic(tau_n_minus(tau_n(X, 1), 1), X)
        if not any(X.dim_vector() == I.dim_vector() and is_isomorphic(X, I)
                   for I in injs):
            assert is_isomorphic(tau_n(tau_n_minus(X, 1), 1), X)


@pytest.mark.parametrize("stem", ["a3_stable", "a5_stable"])
def test_translated_summands_avoid_projectives(stem, request):
    # a cluster tilting summand that is not projective admits no nonzero
    # map to the algebra
    alg = request.getfixturevalue(stem)
    rep = decide_nrf(alg, 1)
    reg = regular_module(alg)
    for X in rep.ct_summands:
        if _match_projective(X) is None:
            assert hom_dim(X, reg) == 0


def test_cy_scaling(a2, a3_stable):
    for k in (2, 3):
        assert check_twisted_cy(a2, 3 * k, k)
        assert check_twisted_cy(a3_stable, 2 * k, k)
    # non-certificates do not scale into existence
    assert not check_twisted_cy(a2, 4, 2)


def test_produced_complexes_are_complexes(a3_stable, a4_linear):
    C = stalk_regular(a3_stable)
    for _ in range(4):
        C = nakayama(C)
        C.check()
        assert C.is_minimal()
    for v in a4_linear.vertices:
        P = perf(simple_module(a4_linear, v))
        P.check()
        assert P.is_minimal()
