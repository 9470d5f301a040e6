from fractions import Fraction

import pytest

from conftest import corpus_algebra, socle_permutation_oracle
from quivercy import ar, homology
from quivercy.ar import (
    auslander_algebra,
    decide_nrf,
    ext_bimodule,
    homogeneity,
    nakayama_permutation,
    preprojective,
    recover_presentation,
    tau_n,
    tau_n_minus,
    tensor_nrf,
)
from quivercy.constructions import TypeAQuiver, cut_algebra, enumerate_cuts, gamma_algebra
from quivercy.errors import UNDECIDED, FactorNotHomogeneous, NotNRF, NotSelfinjective
from quivercy.homology import (
    dominant_dimension,
    ext_dims_upto,
    global_dimension,
    is_selfinjective,
)
from quivercy.linalg import Mat
from quivercy.module import dual_regular_bimodule, injective_module, is_isomorphic, simple_module


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
    # every stage that is not a projective is resolved once, and nu X is
    # built once on that resolution; Ext and tau_n are read off it
    q = TypeAQuiver(2, 5)
    alg = cut_algebra(q, enumerate_cuts(q)[240])  # fresh, so no walk is kept
    built, resolved = [], []
    real_tensor, real_resolution = ar.tensor_complex, homology.min_proj_resolution

    def tensor_complex(X, P, degrees=None):
        built.append(X)
        return real_tensor(X, P, degrees)

    def min_proj_resolution(M, *args, **kwargs):
        resolved.append(M)
        return real_resolution(M, *args, **kwargs)

    def forbidden(*args):
        raise AssertionError("the orbit walk reads Ext and tau_n off nu X")

    monkeypatch.setattr(ar, "tensor_complex", tensor_complex)
    monkeypatch.setattr(homology, "min_proj_resolution", min_proj_resolution)
    for mod in (homology, ar):
        monkeypatch.setattr(mod, "ext_dims_upto", forbidden, raising=False)
        monkeypatch.setattr(mod, "tor", forbidden)
    rep = decide_nrf(alg, 2)
    assert rep.is_nrf is True
    stages = [X for orbit in rep.orbit_table.values() for X in orbit[:-1]]
    assert stages and len(built) == len(stages)
    assert all(X is dual_regular_bimodule(alg) for X in built)
    ids = [id(M) for M in resolved]
    assert len(ids) == len(set(ids))
    assert all(ids.count(id(X)) == 1 for X in stages)


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
    # two T coordinates (the basis after alg's own) go through mul_step
    alg = request.getfixturevalue(stem)
    rep = decide_nrf(alg, 1)
    pi = preprojective(alg, 1, report=rep)
    assert (pi.dim, pi.degree_dims) == (dim, degree_dims)
    assert any(x >= alg.dim and y >= alg.dim for x, y in pi.mult)
    assert is_selfinjective(pi)
    assert nakayama_permutation(pi) == socle_permutation_oracle(pi) == rep.sigma


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


def test_recover_presentation(a3_stable):
    rep = decide_nrf(a3_stable, 1)
    gamma = auslander_algebra(a3_stable, rep.ct_summands)
    pres = recover_presentation(gamma)
    assert len(pres["arrows"]) == 6
    assert len(pres["relations"]) == 3
    assert all(r["degree"] == 2 for r in pres["relations"])


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
