from fractions import Fraction

import pytest

from conftest import (
    auslander_algebra_oracle,
    corpus_algebra,
    dense_action,
    dense_module,
    projective_module,
    recover_presentation,
    socle_permutation_oracle,
    tensor_algebra_oracle,
)
from quivercy import ar, homology
from quivercy.ar import (
    auslander_algebra,
    decide_nrf,
    ext_bimodule,
    homogeneity,
    nakayama_permutation,
    preprojective,
    presentation_size,
    tau_n,
    tau_n_minus,
    tensor_algebra,
    tensor_nrf,
)
from quivercy.constructions import TypeAQuiver, cut_algebra, enumerate_cuts, gamma_algebra
from quivercy.algebra import semisimple_algebra
from quivercy.errors import UNDECIDED, FactorNotHomogeneous, NotNilpotent, NotNRF, NotSelfinjective
from quivercy.homology import (
    dominant_dimension,
    ext_dims_upto,
    global_dimension,
    injective_resolutions,
    is_selfinjective,
)
from quivercy.linalg import Mat
from quivercy.module import (
    Morphism,
    dual_regular_bimodule,
    hom,
    injective_module,
    is_isomorphic,
    simple_module,
)
from quivercy.parsing import parse_algebra_file


def test_tau_on_a2(a2):
    S1 = simple_module(a2, 1)
    t = tau_n(S1, 1)
    assert t.dim_vector() == (0, 1)
    back = tau_n_minus(t, 1)
    assert is_isomorphic(back, S1)


def test_orbit_walk_cut_by_the_cap_is_not_kept():
    alg = corpus_algebra("a3_linear")  # fresh, so nothing is cached yet
    rep = decide_nrf(alg, 1, cap=1)
    assert rep.is_nrf is UNDECIDED
    assert rep.reason == "orbit of injective at 1 exceeds the cap"
    rep = decide_nrf(alg, 1)
    assert rep.is_nrf is True
    assert rep.ell == {1: 3, 2: 2, 3: 1}


def test_kept_orbit_walk_longer_than_the_cap_counts_as_cut():
    # a walk kept under the default cap gives a later capped call the
    # verdict, and the report, of the same call on a fresh algebra
    first = corpus_algebra("a3_linear")
    fresh = decide_nrf(first, 1, cap=1).to_dict()
    assert fresh["is_nrf"] == "undecided"
    # the capped call first: a default-cap call after it still decides
    assert decide_nrf(first, 1).is_nrf is True
    alg = corpus_algebra("a3_linear")
    assert decide_nrf(alg, 1).is_nrf is True
    rep = decide_nrf(alg, 1, cap=1)
    assert rep.is_nrf is UNDECIDED
    assert rep.reason == "orbit of injective at 1 exceeds the cap"
    assert rep.to_dict() == fresh
    # a cap as long as the longest orbit keeps the verdict
    assert decide_nrf(alg, 1, cap=3).is_nrf is True
    assert decide_nrf(alg, 1, cap=2).is_nrf is UNDECIDED
    rep = decide_nrf(alg, 1)
    assert rep.is_nrf is True
    assert rep.ell == {1: 3, 2: 2, 3: 1}


def test_orbit_walk_builds_one_nakayama_complex_per_stage(monkeypatch):
    # the orbits are walked in lockstep: each stage builds one nu X for
    # every orbit whose stage is not its last, on the resolutions of those
    # stages laid out orbit by orbit; Ext and tau_n are read off it
    q = TypeAQuiver(2, 5)
    alg = cut_algebra(q, enumerate_cuts(q)[240])  # fresh, so no walk is kept
    built, splits = [], []
    real_tensor, real_split = ar.tensor_complex, ar.split_resolution

    def tensor_complex(X, P, degrees=None):
        built.append((X, P))
        return real_tensor(X, P, degrees)

    def split_resolution(mods, max_len=None):
        splits.append((mods, real_split(mods, max_len)))
        return splits[-1][1]

    def forbidden(*args):
        raise AssertionError("the orbit walk reads Ext and tau_n off nu X")

    monkeypatch.setattr(ar, "tensor_complex", tensor_complex)
    monkeypatch.setattr(ar, "split_resolution", split_resolution)
    for mod in (homology, ar):
        monkeypatch.setattr(mod, "ext_dims_upto", forbidden, raising=False)
        monkeypatch.setattr(mod, "tor", forbidden)
    rep = decide_nrf(alg, 2)
    assert rep.is_nrf is True
    assert len(built) == max(rep.ell.values()) - 1 > 1
    # stage 0 is the injective with its slice of DA's resolution, which
    # global_dimension kept per algebra; each later stage is resolved by
    # one split of the stages of the orbits still walking
    assert all(orbit[0] is injective_module(alg, i) for i, orbit in rep.orbit_table.items())
    assert len(splits) == len(built) - 1
    for s, (X, P) in enumerate(built):
        walking = [i for i in alg.vertices if rep.ell[i] >= s + 2]
        assert X is dual_regular_bimodule(alg) and len(walking) > 1
        if s == 0:
            assert [id(res) for res in P] == [id(injective_resolutions(alg)[i]) for i in walking]
        else:
            mods, ress = splits[s - 1]
            assert P is ress
            assert [id(M) for M in mods] == [id(rep.orbit_table[i][s]) for i in walking]


def test_decide_nrf_a2(a2):
    rep = decide_nrf(a2, 1)
    assert rep.is_nrf is True
    assert rep.gl_dim == 1
    assert rep.a == 2 and rep.b == 3
    assert rep.ell == {1: 2, 2: 1}
    assert rep.sigma == {1: 2, 2: 1}
    assert rep.homogeneous is False
    assert homogeneity(rep) is False
    assert rep.ell_value() is None
    assert rep.ct_module.total_dim == sum(X.total_dim for X in rep.ct_summands)


def test_decide_nrf_linear_a3(a3_linear):
    rep = decide_nrf(a3_linear, 1)
    assert rep.is_nrf is True
    assert rep.ell == {1: 3, 2: 2, 3: 1}
    assert rep.sigma == {1: 3, 2: 2, 3: 1}
    assert rep.b == 6
    assert not rep.homogeneous


def test_decide_nrf_stable_a3(a3_stable):
    rep = decide_nrf(a3_stable, 1)
    assert rep.is_nrf is True
    assert rep.ell == {1: 2, 2: 2, 3: 2}
    assert rep.sigma == {1: 3, 2: 2, 3: 1}
    assert rep.homogeneous and homogeneity(rep)
    assert rep.ell_value() == 2
    # orbits start at the injectives
    for i in a3_stable.vertices:
        assert is_isomorphic(rep.orbit_table[i][0], injective_module(a3_stable, i))


def test_decide_nrf_d4(d4):
    rep = decide_nrf(d4, 1)
    assert rep.is_nrf is True
    assert rep.b == 12
    assert rep.ell_value() == 3
    assert rep.sigma == {1: 1, 2: 2, 3: 3, 4: 4}


def test_decide_nrf_negative(a2sq):
    rep = decide_nrf(a2sq, 2)
    assert rep.is_nrf is False
    assert "Ext" in rep.reason


def test_decide_nrf_wrong_degree(a2sq):
    # gl.dim 2 exceeds n = 1
    rep = decide_nrf(a2sq, 1)
    assert rep.is_nrf is False
    assert "gl.dim" in rep.reason


def test_decide_nrf_undecided(kronecker):
    rep = decide_nrf(kronecker, 1)
    assert rep.is_nrf is UNDECIDED
    assert rep.to_dict()["is_nrf"] == "undecided"


def test_homogeneity_requires_positive_report(kronecker):
    rep = decide_nrf(kronecker, 1)
    with pytest.raises(NotNRF):
        homogeneity(rep)


def test_ext_bimodule(a2, a3_stable):
    T = ext_bimodule(a2, 1)
    assert {k: v for k, v in T.dims.items() if v} == {(1, 2): 1}
    T3 = ext_bimodule(a3_stable, 1)
    assert sum(T3.dims.values()) == 5


def test_preprojective_a2(a2):
    pi = preprojective(a2, 1)
    assert pi.dim == 4
    assert pi.degree_dims == [3, 1]
    assert is_selfinjective(pi)
    assert nakayama_permutation(pi) == socle_permutation_oracle(pi) == {1: 2, 2: 1}


def test_preprojective_a3_stable(a3_stable):
    pi = preprojective(a3_stable, 1)
    assert pi.dim == 10
    assert pi.degree_dims == [5, 5]
    assert nakayama_permutation(pi) == socle_permutation_oracle(pi) == {1: 3, 2: 2, 3: 1}


@pytest.mark.parametrize("stem,dim,degree_dims", [
    ("a3_linear", 10, [6, 3, 1]),
    ("a4_linear", 20, [10, 6, 3, 1]),
    ("a5_stable", 35, [11, 13, 11]),
    ("d4", 28, [7, 14, 7]),
])
def test_preprojective_products_of_degree_two(request, stem, dim, degree_dims):
    # the classical preprojective dimensions; T (x) T != 0, so products of
    # two T coordinates (the basis after alg's own) go through the lift of
    # the right factor to T^(k-1) (x) T
    alg = request.getfixturevalue(stem)
    rep = decide_nrf(alg, 1)
    pi = preprojective(alg, 1, report=rep)
    assert (pi.dim, pi.degree_dims) == (dim, degree_dims)
    assert any(x >= alg.dim and y >= alg.dim for x, y in pi.mult)
    _assert_same_tensor_algebra(pi, tensor_algebra_oracle(alg, ext_bimodule(alg, 1)))
    assert is_selfinjective(pi)
    assert nakayama_permutation(pi) == socle_permutation_oracle(pi) == rep.sigma


def _assert_same_tensor_algebra(pi, oracle):
    def ends(p):
        return [(b.name, b.src, b.tgt, b.degree) for b in p.basis]

    assert ends(pi) == ends(oracle)
    assert list(pi.mult.items()) == list(oracle.mult.items())
    assert pi.degree_dims == oracle.degree_dims


def _oracle_cuts():
    # every cut of (1,3), (1,4) and (2,3), every 8th of (2,4), and the
    # (1,5) cut whose Pi has five degrees
    for n, s, step in [(1, 3, 1), (1, 4, 1), (2, 3, 1), (2, 4, 8)]:
        yield from ((n, s, k) for k in range(0, len(enumerate_cuts(TypeAQuiver(n, s))), step))
    yield (1, 5, 0)


@pytest.mark.parametrize("n,s,k", list(_oracle_cuts()))
def test_tensor_algebra_matches_the_chain_oracle_on_cuts(n, s, k):
    q = TypeAQuiver(n, s)
    lam = cut_algebra(q, enumerate_cuts(q)[k])
    T = ext_bimodule(lam, n)
    pi = tensor_algebra(lam, T)
    _assert_same_tensor_algebra(pi, tensor_algebra_oracle(lam, T))
    if (n, s) == (1, 5):
        assert pi.degree_dims == [15, 10, 6, 3, 1]


def test_tensor_algebra_cap_bounds_the_last_nonzero_power(a3_linear):
    T = ext_bimodule(a3_linear, 1)  # T (x) T (x) T = 0
    with pytest.raises(NotNilpotent):
        tensor_algebra(a3_linear, T, cap=1)
    assert tensor_algebra(a3_linear, T, cap=2).degree_dims == [6, 3, 1]


def test_preprojective_of_a_semisimple_algebra():
    alg = semisimple_algebra([0, 1])
    pi = preprojective(alg, 1)
    assert (pi.dim, pi.degree_dims) == (2, [2])
    assert is_selfinjective(pi)


def test_nakayama_permutation_rejects_non_selfinjective(a2):
    with pytest.raises(NotSelfinjective):
        nakayama_permutation(a2)


def test_auslander_algebra(a3_stable):
    rep = decide_nrf(a3_stable, 1)
    gamma = auslander_algebra(a3_stable, rep.ct_summands)
    assert gamma.dim == 15
    assert len(gamma.vertices) == 6
    assert global_dimension(gamma) == 2
    assert dominant_dimension(gamma) == 2


CYCLES = {"cycle2_ab": "vertices: 1 2\narrows:\n  a: 1 -> 2\n  b: 2 -> 1\nrelations:\n  a*b\n",
          "loop3": "vertices: 1\narrows:\n  x: 1 -> 1\nrelations:\n  x*x*x\n"}


def _twisted(M):
    """M with its basis at each vertex changed by the lower-triangular
    all-ones matrix L, so that b acts by L b L^-1: its radical
    endomorphisms get nonzero diagonal entries, and the identity is no
    longer a single `hom` basis element."""
    n = M.dims
    L = {v: Mat(d, d, [[int(i >= j) for j in range(d)] for i in range(d)]) for v, d in n.items()}
    Li = {v: Mat(d, d, [[(i == j) - (i == j + 1) for j in range(d)] for i in range(d)])
          for v, d in n.items()}
    basis = M.alg.basis
    act = {i: L[basis[i].tgt] * m * Li[basis[i].src] for i, m in dense_action(M).items()}
    return dense_module(M.alg, n, act, name=f"L{M.name}")


def _auslander_summands(case):
    """(algebra, summands): the cluster tilting summands of an n-RF
    algebra, whose endomorphism rings are k, or the indecomposable
    projectives or the twisted injectives of an algebra with an oriented
    cycle, whose endomorphism rings have a radical."""
    kind, name = case
    if kind == "ct":
        if name == "cut_2_4_25":
            q = TypeAQuiver(2, 4)
            alg, n = cut_algebra(q, enumerate_cuts(q)[25]), 2
        else:
            alg, n = corpus_algebra(name), 1
        return alg, decide_nrf(alg, n).ct_summands
    if name == "gamma_1_3":
        alg = gamma_algebra(TypeAQuiver(1, 3))
    elif name == "pi_a3":
        alg = preprojective(corpus_algebra("a3_linear"), 1)
    else:
        alg = parse_algebra_file(CYCLES[name]).build()
    if kind == "proj":
        return alg, [projective_module(alg, v) for v in alg.vertices]
    return alg, [_twisted(injective_module(alg, v)) for v in alg.vertices]


AUSLANDER_CASES = ([("ct", s) for s in ("a2", "a3_linear", "a3_stable", "a4_linear", "a5_stable",
                                        "d4", "cut_2_4_25")]
                   + [("proj", s) for s in ("gamma_1_3", "cycle2_ab", "pi_a3")]
                   + [("twisted_inj", s) for s in ("gamma_1_3", "cycle2_ab", "loop3", "pi_a3")])


@pytest.mark.parametrize("case", AUSLANDER_CASES, ids=str)
def test_auslander_algebra_matches_the_solved_oracle(case):
    # the same basis shape; the identities and the off-diagonal Hom bases
    # are the same morphisms in both, so a product of them has the same
    # coordinates off the diagonal and the same identity coefficient on
    # it; only the radical bases of the diagonal blocks differ
    alg, summands = _auslander_summands(case)
    gamma, oracle = auslander_algebra(alg, summands), auslander_algebra_oracle(alg, summands)
    shape = [[(b.src, b.tgt, b.degree) for b in g.basis] for g in (gamma, oracle)]
    assert gamma.vertices == oracle.vertices and shape[0] == shape[1]
    kept = [i for i, b in enumerate(gamma.basis) if b.src != b.tgt or not b.degree]
    assert [gamma.basis[i].name for i in kept] == [oracle.basis[i].name for i in kept]
    for x in kept:
        for y in kept:
            src, tgt = gamma.basis[y].src, gamma.basis[x].tgt
            new, old = gamma.mult.get((x, y), {}), oracle.mult.get((x, y), {})
            if src != tgt:
                assert new == old, (x, y)
            else:
                assert new.get(src, 0) == old.get(src, 0), (x, y)
    for f in (presentation_size, is_selfinjective):
        assert f(gamma) == f(oracle), f.__name__


@pytest.mark.parametrize("case", AUSLANDER_CASES, ids=str)
def test_auslander_products_are_the_compositions(case):
    # rebuild the basis morphisms as the docstring lays them out and check
    # that each product's coordinates recombine to the composite
    alg, summands = _auslander_summands(case)
    gamma = auslander_algebra(alg, summands)
    mors = [Morphism(M, M, {v: Mat.identity(M.dims[v]) for v in alg.vertices}) for M in summands]
    for s, M in enumerate(summands):
        for t, N in enumerate(summands):
            H = hom(M, N)
            if s == t:
                traces = [sum(m.a[k][k] for m in h.mats.values() for k in range(m.rows)) for h in H]
                H = [_combination(H, cs, H[0]) for cs in Mat.from_rows([traces]).kernel_basis()]
            mors += H
    assert len(mors) == gamma.dim
    # only the projectives of a cyclic quiver have a radical to read
    assert any(len(hom(M, M)) > 1 for M in summands) == (case[0] != "ct")
    for x, hx in enumerate(mors):
        for y, hy in enumerate(mors):
            if gamma.basis[x].src != gamma.basis[y].tgt:
                assert (x, y) not in gamma.mult
                continue
            prod = gamma.mult.get((x, y), {})
            expect = hx.compose(hy)
            got = _combination([mors[k] for k in prod], list(prod.values()), like=expect)
            assert got.mats == expect.mats, (x, y)


def _combination(mors, coeffs, like):
    """The sum of c * m over the pairs, from the zero morphism shaped like
    `like`."""
    out = like.scale(0)
    for m, c in zip(mors, coeffs):
        out = out.add(m.scale(c))
    return out


def test_recover_presentation(a3_stable):
    rep = decide_nrf(a3_stable, 1)
    gamma = auslander_algebra(a3_stable, rep.ct_summands)
    pres = recover_presentation(gamma)
    assert len(pres["arrows"]) == 6
    assert len(pres["relations"]) == 3
    assert all(r["degree"] == 2 for r in pres["relations"])
    assert presentation_size(gamma) == (6, 3)


def _greedy_generators(alg):
    """Gabriel generators by the scan that independent_subset replaced:
    in degree order, each basis element outside rad^2 plus the ones kept."""
    rad = alg.radical_indices()
    pos = {idx: k for k, idx in enumerate(rad)}
    rows = []
    for (i, j), prod in alg.mult.items():
        if i in pos and j in pos:
            rows.append([0] * len(rad))
            for k, c in prod.items():
                rows[-1][pos[k]] = c
    gens = []
    for i in sorted(rad, key=lambda i: (alg.basis[i].degree, i)):
        unit = [1 if k == pos[i] else 0 for k in range(len(rad))]
        if Mat.from_rows(rows + [unit]).rank() > Mat.from_rows(rows, ncols=len(rad)).rank():
            gens.append(i)
            rows.append(unit)
    return gens


def test_generators_match_the_greedy_scan(a3_stable):
    gamma = gamma_algebra(TypeAQuiver(1, 3))
    preset = gamma.generators()
    gamma._generators = None  # recomputed, not preset by degree
    pi = preprojective(a3_stable, 1)
    ausl = auslander_algebra(a3_stable, decide_nrf(a3_stable, 1).ct_summands)
    assert gamma.generators() == preset == [3, 4, 5, 6]
    assert pi.generators() == _greedy_generators(pi) == [3, 4, 5, 9]
    assert ausl.generators() == _greedy_generators(ausl) == [6, 8, 9, 10, 12, 14]
    assert gamma.generators() == _greedy_generators(gamma)


def test_recover_presentation_of_the_a3_stable_auslander_algebra(a3_stable):
    gamma = auslander_algebra(a3_stable, decide_nrf(a3_stable, 1).ct_summands)
    pres = recover_presentation(gamma)
    assert presentation_size(gamma) == (len(pres["arrows"]), len(pres["relations"]))
    assert pres["arrows"] == [("g0", 1, 2), ("g1", 2, 0), ("g2", 2, 4),
                              ("g3", 3, 1), ("g4", 3, 5), ("g5", 5, 2)]
    one = Fraction(1)
    assert pres["relations"] == [
        {"degree": 2, "terms": [(one, ("g0", "g1"))]},
        {"degree": 2, "terms": [(-one, ("g3", "g0")), (one, ("g4", "g5"))]},
        {"degree": 2, "terms": [(one, ("g5", "g2"))]},
    ]


def test_recover_presentation_roundtrip(a2):
    pi = preprojective(a2, 1)
    pres = recover_presentation(pi)
    # the double quiver of A2 with both compositions zero
    assert len(pres["arrows"]) == 2
    assert len(pres["relations"]) == 2
    # Pi is selfinjective: the resolutions stop at P_2 without a cap
    assert presentation_size(pi) == (2, 2)


A6 = """vertices: 1 2 3 4 5 6
arrows:
  a: 1 -> 2
  b: 2 -> 3
  c: 3 -> 4
  d: 4 -> 5
  e: 5 -> 6
zero:
"""


@pytest.mark.parametrize("zero,relations", [("b*c", 1), ("b*c*d", 1), ("a*b\n  d*e", 2)])
def test_presentation_size_matches_the_recovered_presentation(zero, relations):
    # linear A6 with zero relations: five arrows, one relation per path
    alg = parse_algebra_file(A6 + "  " + zero + "\n").build(name="a6")
    pres = recover_presentation(alg)
    assert (len(pres["arrows"]), len(pres["relations"])) == (5, relations)
    assert presentation_size(alg) == (5, relations)


def test_tensor_nrf_rejects_inhomogeneous(a2):
    with pytest.raises(FactorNotHomogeneous):
        tensor_nrf([(a2, 1), (a2, 1)], 2)


def test_tensor_nrf_square(a3_stable):
    prod, rep = tensor_nrf([(a3_stable, 1), (a3_stable, 1)], 2)
    assert prod.dim == 25
    assert rep.is_nrf is True
    assert rep.homogeneous and rep.ell_value() == 2
    assert len(rep.ct_summands) == 18
    assert is_isomorphic(rep.predicted_ct, rep.ct_module)


def _pairwise_ext_vanishes(summands, n):
    """The Ext check decide_nrf made before it took one call per summand
    against the whole sum: Ext^1..n-1 between every ordered pair."""
    return all(not any(ext_dims_upto(Xa, Xb, n - 1)[1:n])
               for Xa in summands for Xb in summands)


def _ct_cases():
    cases = [(stem, 1) for stem in ["a2", "a3_linear", "a3_stable", "a4_linear",
                                    "a5_stable", "d4"]]
    return cases + [(f"cut_2_4/{idx}", 2) for idx in range(0, 65, 5)]


@pytest.mark.parametrize("key,n", _ct_cases())
def test_ext_against_the_sum_matches_pairwise(key, n):
    if key.startswith("cut_2_4/"):
        q = TypeAQuiver(2, 4)
        alg = cut_algebra(q, enumerate_cuts(q)[int(key.split("/")[1])])
    else:
        alg = corpus_algebra(key)
    rep = decide_nrf(alg, n)
    summands = rep.ct_summands
    k = max(n - 1, 1)
    for Xa in summands:
        pairs = [ext_dims_upto(Xa, Xb, k) for Xb in summands]
        assert ext_dims_upto(Xa, rep.ct_module, k) == [sum(col) for col in zip(*pairs)]
    assert rep.is_nrf is _pairwise_ext_vanishes(summands, n) is True
