import gc
import weakref

import pytest

from conftest import corpus_algebra, hom_in_D_dim
from quivercy.algebra import opposite
from quivercy.ar import tau_n_minus
from quivercy.errors import CapExceeded
from quivercy.homology import (
    _is_regular_module,
    _match_projective,
    dominant_dimension,
    ext_dims_upto,
    global_dimension,
    is_selfinjective,
    is_shifted_regular,
    min_proj_resolution,
    minimize,
    nakayama,
    projective_cover,
    stalk_regular,
    tensor_complex,
    to_projective_complex,
    tor,
)
from quivercy.module import (
    direct_sum,
    dual_regular_bimodule,
    injective_module,
    is_isomorphic,
    projective_module,
    regular_bimodule,
    regular_module,
    simple_module,
)


def test_min_proj_resolution(a3_linear):
    S2 = simple_module(a3_linear, 2)
    res = min_proj_resolution(S2)
    assert res.complete
    assert res.length == 1
    assert res.term_verts(0) == [2]
    assert res.term_verts(1) == [3]
    P = res.to_perf()
    P.check()
    assert P.is_minimal()
    assert res.proj_dim == 1


def test_resolution_of_projective_is_trivial(a3_linear):
    res = min_proj_resolution(projective_module(a3_linear, 1))
    assert res.complete and res.length == 0


def test_ext_oracles(a2, a3_linear):
    S1, S2 = simple_module(a2, 1), simple_module(a2, 2)
    assert ext_dims_upto(S1, S2, 1)[1] == 1
    assert ext_dims_upto(S2, S1, 1)[1] == 0
    assert ext_dims_upto(S1, S1, 0)[0] == 1
    assert ext_dims_upto(simple_module(a3_linear, 2), simple_module(a3_linear, 3), 1)[1] == 1
    assert ext_dims_upto(simple_module(a3_linear, 1),
                         regular_module(a3_linear), 2) == [0, 1, 0]


def test_tor_is_ar_translate(a2):
    # Tor_1(D reg, S1) is the AR translate of the nonprojective simple
    S1 = simple_module(a2, 1)
    t = tor(1, dual_regular_bimodule(a2), S1)
    assert t.dim_vector() == (0, 1)
    assert tor(1, dual_regular_bimodule(a2), projective_module(a2, 1)).total_dim == 0


@pytest.mark.parametrize("stem", ["a2", "a3_linear", "a3_stable", "a4_linear", "a5_stable",
                                  "d4", "kronecker", "a2_tensor_a2"])
def test_tor_window_matches_the_whole_complex(stem):
    # tor builds X (x) P only in degrees -i-1, -i, -i+1 of the resolution P
    alg = corpus_algebra(stem)
    mods = [simple_module(alg, v) for v in alg.vertices]
    mods += [injective_module(alg, v) for v in alg.vertices]
    for X in (dual_regular_bimodule(alg), regular_bimodule(alg)):
        for M in mods:
            res = min_proj_resolution(M)
            whole = tensor_complex(X, res.to_perf())
            for i in range(res.length + 2):
                T, H = tor(i, X, M), whole.cohomology(-i)
                assert T.dims == H.dims
                assert T.act.keys() == H.act.keys()
                assert all(T.act[k] == H.act[k] for k in T.act)


def test_global_and_dominant_dimension(a2, a3_linear, a2sq):
    assert global_dimension(a2) == 1
    assert global_dimension(a3_linear) == 1
    assert global_dimension(a2sq) == 2
    assert dominant_dimension(a3_linear) == 1


def test_global_dimension_cap(kronecker):
    # hereditary, so fine even though representation-infinite
    assert global_dimension(kronecker) == 1


def test_global_dimension_is_cached(monkeypatch):
    from quivercy import homology

    alg = corpus_algebra("a2_tensor_a2")  # fresh, so nothing is cached yet
    assert global_dimension(alg) == 2
    calls = []
    real = homology.min_proj_resolution

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(homology, "min_proj_resolution", counting)
    assert global_dimension(alg) == 2
    assert calls == []
    # a cap below the cached value raises as a fresh call does
    with pytest.raises(CapExceeded) as cached:
        global_dimension(alg, cap=1)
    with pytest.raises(CapExceeded) as fresh:
        global_dimension(corpus_algebra("a2_tensor_a2"), cap=1)
    assert str(cached.value) == str(fresh.value)
    assert global_dimension(alg, cap=2) == 2


def test_selfinjective(a2):
    assert not is_selfinjective(a2)


def test_stalk_and_nakayama(a2):
    C = stalk_regular(a2)
    assert is_shifted_regular(C) == 0
    N = nakayama(C)
    N.check()
    assert N.is_minimal()
    assert is_shifted_regular(N) is None
    # the third power of the Nakayama functor is the shift by one
    N3 = nakayama(nakayama(N))
    assert is_shifted_regular(N3) == 1


def test_shift_convention(a2):
    C = stalk_regular(a2)
    assert C.shift(2).degrees() == [-2]
    assert is_shifted_regular(C.shift(3)) == 3


def test_to_projective_complex_quasi_iso(a3_linear):
    from quivercy.homology import ModComplex

    S2 = simple_module(a3_linear, 2)
    C = ModComplex(a3_linear, {0: S2}, {})
    P = to_projective_complex(C)
    P.check()
    table = P.cohomology_table()
    assert set(table) == {0}
    assert is_isomorphic(table[0], S2)


def test_minimize_strips_contractible_summands(a3_linear):
    S2 = simple_module(a3_linear, 2)
    res = min_proj_resolution(S2).to_perf()
    M = minimize(res)
    assert M.width() == res.width()
    assert M.is_minimal()


def test_hom_in_D_dim(a3_linear):
    P = min_proj_resolution(simple_module(a3_linear, 2)).to_perf()
    Q = min_proj_resolution(simple_module(a3_linear, 3)).to_perf()
    assert hom_in_D_dim(P, P) == 1
    # Hom(S2, S3[1]) = Ext^1(S2, S3)
    assert hom_in_D_dim(P, Q.shift(1)) == 1
    assert hom_in_D_dim(P, Q) == 0


@pytest.mark.parametrize(
    "stem", ["a2", "a3_linear", "a3_stable", "a4_linear", "a5_stable", "d4", "kronecker", "a2sq"]
)
def test_projective_cover_matches_dense_reference(request, stem):
    # projective_cover skips idempotents and absent actions; rebuild every
    # column from the dense action matrices and compare
    alg = request.getfixturevalue(stem)
    R = regular_bimodule(alg)
    simples = [simple_module(alg, v) for v in alg.vertices]
    injectives = [injective_module(alg, v) for v in alg.vertices]
    reg = regular_module(alg)
    mods = simples + injectives + [reg, direct_sum(simples + injectives + [reg])]
    for M in mods:
        info, epi, units = projective_cover(M)
        epi.check()
        # the generator of summand r is its first coordinate at its vertex,
        # the idempotent, and goes to the unit vector at units[r]
        lifts = [epi.mats[v].column(info.offs[(r, v)]) for r, v in enumerate(info.verts)]
        assert lifts == [[int(j == u) for j in range(M.dims[v])]
                         for u, v in zip(units, info.verts)]
        for w in alg.vertices:
            assert epi.mats[w].rank() == M.dims[w]
            for r, v in enumerate(info.verts):
                for p, bidx in enumerate(R.basis_indices.get((w, v), ())):
                    dense = [sum((x * y for x, y in zip(row, lifts[r])), 0)
                             for row in M.act_mat(bidx).a]
                    assert epi.mats[w].column(info.offs[(r, w)] + p) == dense


def test_tau_n_minus_builds_opposite_once(monkeypatch):
    alg = corpus_algebra("a3_linear")  # fresh, so nothing is built yet
    calls = []
    build = opposite.__wrapped__

    def counting(a):
        calls.append(a)
        return build(a)

    # count the builds behind the per-algebra memo, not its hits
    monkeypatch.setattr(opposite, "__wrapped__", counting)
    S = simple_module(alg, 2)
    tau_n_minus(S, 1)
    tau_n_minus(S, 1)
    assert calls == [alg]


def test_resolution_dies_with_its_module(a3_linear):
    # the resolution ext_dims_upto computes is kept on X, not on the
    # algebra; the simple is built afresh, as the memoized injectives live
    # as long as their algebra
    X = simple_module(a3_linear, 2)
    ext_dims_upto(X, regular_module(a3_linear), 2)
    ref = weakref.ref(X)
    del X
    gc.collect()
    assert ref() is None



@pytest.mark.parametrize("stem", ["a2", "a3_linear", "a3_stable", "a4_linear",
                                  "a5_stable", "d4", "kronecker", "a2_tensor_a2"])
def test_projective_recognition_matches_is_isomorphic(stem):
    # the exact top-and-dimension test agrees with the Hom-space search
    alg = corpus_algebra(stem)
    reg = regular_module(alg)
    projs = {v: projective_module(alg, v) for v in alg.vertices}
    injs = [injective_module(alg, v) for v in alg.vertices]
    simples = [simple_module(alg, v) for v in alg.vertices]
    # the semisimple module with the dimension vector of the regular one
    flat = direct_sum([simple_module(alg, v) for v in alg.vertices for _ in range(reg.dims[v])])
    mods = [*projs.values(), *injs, *simples, reg, direct_sum(injs), flat]
    for M in mods:
        slow = next((v for v, P in projs.items() if is_isomorphic(M, P)), None)
        assert _match_projective(M) == slow, M
        assert _is_regular_module(M) == bool(is_isomorphic(M, reg)), M
