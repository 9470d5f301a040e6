import gc
import random
import weakref

import pytest

from conftest import (
    check_morphism,
    cohomology_table,
    corpus_algebra,
    dense_act_mat,
    dense_action,
    eltmat_compose_oracle,
    homology_module,
    hom_in_D_dim,
    is_regular_module_oracle,
    is_shifted_regular_oracle,
    match_projective_oracle,
    minimize_oracle,
    projective_module,
    shift,
)
from quivercy.algebra import opposite
from quivercy.ar import tau_n_minus
from quivercy.constructions import TypeAQuiver, cut_algebra, enumerate_cuts
from quivercy.errors import CapExceeded
from quivercy import homology
from quivercy.ar import decide_nrf
from quivercy.homology import (
    PerfComplex,
    _match_projective,
    dominant_dimension,
    eltmat_compose,
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
from quivercy.linalg import Mat
from quivercy.module import (
    action_matrix,
    direct_sum,
    dual_regular_bimodule,
    injective_module,
    is_isomorphic,
    kernel,
    regular_bimodule,
    regular_module,
    simple_module,
)


def test_min_proj_resolution(a3_linear):
    S2 = simple_module(a3_linear, 2)
    res = min_proj_resolution(S2)
    assert res.complete
    assert res.length == 1
    assert res.terms == {0: [2], -1: [3]}
    res.check()
    assert res.is_minimal()


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
            whole = tensor_complex(X, res)
            for i in range(res.length + 2):
                T, H = tor(i, X, M), whole.cohomology(-i)
                assert T.dims == H.dims
                assert dense_action(T).keys() == dense_action(H).keys()
                assert all(dense_action(T)[k] == dense_action(H)[k] for k in dense_action(T))


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
    assert sorted(shift(C, 2).terms) == [-2]
    assert is_shifted_regular(shift(C, 3)) == 3


def test_to_projective_complex_quasi_iso(a3_linear):
    from quivercy.homology import ModComplex

    S2 = simple_module(a3_linear, 2)
    C = ModComplex(a3_linear, {0: S2}, {})
    P = to_projective_complex(C)
    P.check()
    table = cohomology_table(P)
    assert set(table) == {0}
    assert is_isomorphic(table[0], S2)


def test_minimize_strips_contractible_summands(a3_linear):
    # res (+) (P_1 -> P_1), the identity from degree -1 to 0: minimize, and
    # the elimination it replaced, strip the identity and keep res
    res = min_proj_resolution(simple_module(a3_linear, 2))
    P = PerfComplex(a3_linear, {0: [2, 1], -1: [3, 1]},
                    {-1: [[res.diffs[-1][0][0], {}], [{}, {a3_linear.idem[1]: 1}]]})
    P.check()
    M, ref = minimize(P), minimize_oracle(P)
    assert (M.terms, M.diffs) == (ref.terms, ref.diffs) == (res.terms, res.diffs)
    assert M.width() == P.width() - 2


def test_hom_in_D_dim(a3_linear):
    P = min_proj_resolution(simple_module(a3_linear, 2))
    Q = min_proj_resolution(simple_module(a3_linear, 3))
    assert hom_in_D_dim(P, P) == 1
    # Hom(S2, S3[1]) = Ext^1(S2, S3)
    assert hom_in_D_dim(P, shift(Q, 1)) == 1
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
        check_morphism(epi)
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
                             for row in dense_act_mat(M, bidx).a]
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


def test_tor_and_ext_resolve_only_the_degrees_they_read(a3_linear, monkeypatch):
    # Tor_i reads the resolution up to degree -i - 1, and Ext^0..n up to
    # -n - 1, so neither resolves further
    lengths = []
    real = homology.min_proj_resolution

    def spy(M, max_len=None):
        lengths.append(max_len)
        return real(M, max_len)

    monkeypatch.setattr(homology, "min_proj_resolution", spy)
    S = simple_module(a3_linear, 2)
    for i in (0, 1, 2):
        tor(i, dual_regular_bimodule(a3_linear), S)
    ext_dims_upto(S, regular_module(a3_linear), 3)
    assert lengths == [1, 2, 3, 4]


def test_resolution_dies_with_its_module(a3_linear):
    # ext_dims_upto keeps no resolution, and none that points at X; the
    # simple is built afresh, as the memoized injectives live as long as
    # their algebra.  So X is freed by its reference count, with no
    # collection
    gc.disable()
    try:
        X = simple_module(a3_linear, 2)
        ext_dims_upto(X, regular_module(a3_linear), 2)
        ref = weakref.ref(X)
        del X
        assert ref() is None
    finally:
        gc.enable()


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
        assert is_regular_module_oracle(M) == bool(is_isomorphic(M, reg)), M


_MATCH_CASES = (["a2", "a3_linear", "a3_stable", "a4_linear", "a5_stable", "d4", "kronecker",
                 "a2_tensor_a2"] + [(2, 4, i) for i in range(65)])


@pytest.mark.parametrize("case", _MATCH_CASES, ids=str)
def test_projective_match_equals_the_top_first_oracle(case, monkeypatch):
    # the dimension vector is compared first, and the top is computed only
    # for a module with the dimension vector of some projective
    if isinstance(case, str):
        alg, n = corpus_algebra(case), 1
    else:
        q = TypeAQuiver(case[0], case[1])
        alg, n = cut_algebra(q, enumerate_cuts(q)[case[2]]), 2
    report = decide_nrf(alg, n)
    mods = [regular_module(alg), direct_sum([injective_module(alg, v) for v in alg.vertices])]
    for v in alg.vertices:
        inj = injective_module(alg, v)
        mods += [projective_module(alg, v), inj, simple_module(alg, v),
                 kernel(projective_cover(inj)[1])[0]]
    mods += [X for orbit in report.orbit_table.values() for X in orbit]
    tops = []
    real = homology.top_dim_vector

    def counting(M):
        tops.append(M)
        return real(M)

    monkeypatch.setattr(homology, "top_dim_vector", counting)
    projective_dims = {projective_module(alg, v).dim_vector() for v in alg.vertices}
    for M in mods:
        assert _match_projective(M) == match_projective_oracle(M), M
    assert [id(M) for M in tops] == [id(M) for M in mods if M.dim_vector() in projective_dims]


def _nakayama_cases():
    q = TypeAQuiver(2, 4)
    cuts = enumerate_cuts(q)
    cases = [(stem, lambda stem=stem: corpus_algebra(stem))
             for stem in ["a2", "a3_linear", "a3_stable", "a4_linear", "a5_stable", "d4",
                          "kronecker", "a2_tensor_a2"]]
    return cases + [(f"2_4/{i}", lambda c=cuts[i]: cut_algebra(q, c)) for i in range(0, 65, 5)]


NAKAYAMA_CASES = _nakayama_cases()


@pytest.mark.parametrize("build", [b for _, b in NAKAYAMA_CASES],
                         ids=[n for n, _ in NAKAYAMA_CASES])
def test_shifted_regular_reads_the_minimal_complex(build):
    # on nu^1..nu^8 of the regular module, minimal as nakayama returns
    # them, the term test agrees with the cohomology of the complex
    alg = build()
    C = stalk_regular(alg)
    assert is_shifted_regular(C) == is_shifted_regular_oracle(C) == 0
    for _ in range(8):
        C = nakayama(C)
        assert is_shifted_regular(C) == is_shifted_regular_oracle(C)


TOWER_STEMS = ["a2", "a3_linear", "a3_stable", "a4_linear", "a5_stable", "d4", "kronecker",
               "a2_tensor_a2"]


@pytest.mark.parametrize("stem", TOWER_STEMS)
def test_sparse_compose_matches_the_dense_one_on_the_nakayama_towers(stem):
    # every pair of consecutive differentials of nu^1..nu^8 A (Kronecker
    # nu^10), as the d∘d = 0 check of each power composes them; each
    # differential also composed with itself where the shapes allow
    alg = corpus_algebra(stem)
    P = stalk_regular(alg)
    for _ in range(10 if stem == "kronecker" else 8):
        P = nakayama(P)
        for i, d in P.diffs.items():
            for g in (P.diffs.get(i + 1), d):
                if g is not None and len(g[0]) == len(d):
                    assert eltmat_compose(alg, g, d) == eltmat_compose_oracle(alg, g, d)


@pytest.mark.parametrize("stem", TOWER_STEMS)
def test_sparse_compose_matches_the_dense_one_on_random_element_matrices(stem):
    alg = corpus_algebra(stem)
    rng = random.Random(5)

    def entry(src, tgt):
        # a random combination of the basis elements from src to tgt
        elts = [i for i, b in enumerate(alg.basis) if (b.src, b.tgt) == (src, tgt)]
        return {i: c for i in elts if rng.random() < 0.5 and (c := rng.choice([1, -1, 2]))}

    for _ in range(40):
        verts = [[rng.choice(alg.vertices) for _ in range(rng.randint(0, 4))] for _ in range(3)]
        f = [[entry(r, s) for s in verts[0]] for r in verts[1]]
        g = [[entry(t, r) for r in verts[1]] for t in verts[2]]
        assert eltmat_compose(alg, g, f) == eltmat_compose_oracle(alg, g, f)


def test_projective_cover_shares_one_empty_block_where_both_are_zero():
    alg = corpus_algebra("a4_linear")
    for v in alg.vertices:
        M = simple_module(alg, v)
        P, cover, _ = projective_cover(M)
        for w in alg.vertices:
            if not M.dims[w] and not P.dims[w]:
                assert cover.mats[w] is homology._EMPTY
            else:
                assert (cover.mats[w].rows, cover.mats[w].cols) == (M.dims[w], P.dims[w])


def test_kernel_reduces_only_where_the_source_is_nonzero(monkeypatch):
    alg = corpus_algebra("a4_linear")
    P, cover, _ = projective_cover(simple_module(alg, alg.vertices[0]))
    calls = []
    real = Mat.kernel_basis
    monkeypatch.setattr(Mat, "kernel_basis", lambda m: calls.append(m.cols) or real(m))
    K, cols, units = kernel(cover)
    assert calls and all(calls)
    assert len(calls) == sum(1 for w in alg.vertices if P.dims[w])
    assert all(cols[w] == units[w] == [] for w in alg.vertices if not P.dims[w])


@pytest.mark.parametrize("stem", TOWER_STEMS)
def test_cohomology_maps_are_a_section_and_the_class_map(stem):
    # on nu A as modules, and on the regular module's injectives' resolutions
    # tensored with DA: onto . into = 1, into lands in the cycles, onto
    # kills the boundaries, and the action is onto . act . into; H^i is the
    # kernel-then-quotient module it replaced, block for block
    alg = corpus_algebra(stem)
    complexes = [nakayama(stalk_regular(alg)).to_mod_complex()]
    complexes += [tensor_complex(dual_regular_bimodule(alg), min_proj_resolution(
        injective_module(alg, v))) for v in alg.vertices]
    for C in complexes:
        for i in C.terms:
            H, into, onto = C.cohomology_maps(i)
            old = homology_module(C.term(i), C.diff(i - 1), C.diff(i))
            assert H.dims == old.dims and H.blocks() == old.blocks()
            for v, d in H.dims.items():
                assert onto[v] * into[v] == Mat.identity(d)
                if C.diff(i) is not None:
                    assert (C.diff(i).mats[v] * into[v]).is_zero()
                if C.diff(i - 1) is not None:
                    assert (onto[v] * C.diff(i - 1).mats[v]).is_zero()
            for j in H.blocks():
                b = alg.basis[j]
                want = onto[b.tgt] * action_matrix(C.term(i), j) * into[b.src]
                assert action_matrix(H, j) == want
