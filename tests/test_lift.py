"""`homology.lift` lifts module maps to chain maps between minimal
resolutions, degree by degree.  It is checked against a brute-force lift
that solves for one generator at a time in the dense maps of the
resolutions as modules, with the same rule for the free coordinates
(`solve_oracle`), on every map of a Hom basis between injectives of the
corpus algebras and of some (2,4) cuts."""

import pytest

from conftest import corpus_algebra, solve_oracle
from quivercy import homology
from quivercy.constructions import TypeAQuiver, cut_algebra, enumerate_cuts
from quivercy.homology import (
    _col_sum_diff,
    images_to_eltmat,
    injective_resolutions,
    lift,
    min_proj_resolution,
    projective_cover,
)
from quivercy.linalg import Mat
from quivercy.module import Morphism, column_sum, hom, injective_module, regular_bimodule

STEMS = ["a2", "a3_linear", "a3_stable", "a4_linear", "d4", "kronecker", "a2_tensor_a2"]


def _cut(idx):
    q = TypeAQuiver(2, 4)
    return cut_algebra(q, enumerate_cuts(q)[idx])


def _as_module_map(R, F, S, T):
    return _col_sum_diff(R, [(F, 0, 0)], S, T)


def _lift_oracle(f, P, Q, top):
    """F_0..F_top solved generator by generator: the image of generator s
    of P_k is some preimage under Q's map at its vertex of the image of
    the generator under the map built so far, F_(k-1) d_P as modules."""
    alg = f.src.alg
    R = regular_bimodule(alg)
    CP, CQ = P.to_mod_complex(), Q.to_mod_complex()
    prev = f.compose(projective_cover(f.src)[1])  # P_0 -> N
    out = {}
    for k in range(top + 1):
        verts = P.terms.get(-k, [])
        if not verts:
            break
        S, T = CP.terms[-k], CQ.terms.get(-k) or column_sum(R, ())
        down = projective_cover(f.tgt)[1] if k == 0 else CQ.diff(-k)
        images = []
        for s, v in enumerate(verts):
            z = prev.mats[v].column(S.offs[(s, v)] + R.basis_pos[alg.idem[v]])
            y = solve_oracle(down.mats[v] if down else Mat.zero(len(z), 0), z)
            assert y is not None
            images.append(y)
        F = out[-k] = images_to_eltmat(verts, T, images)
        if down is None:
            continue
        Fm = _as_module_map(R, F, S, T)
        # the chain map condition on the dense maps
        assert down.compose(Fm).mats == prev.mats
        if CP.diff(-k - 1) is not None:
            prev = Fm.compose(CP.diff(-k - 1))
    return out


def _maps_between_injectives(alg):
    ress = injective_resolutions(alg)
    for x in alg.vertices:
        for y in alg.vertices:
            for f in hom(injective_module(alg, x), injective_module(alg, y)):
                yield f, ress[x], ress[y]


@pytest.mark.parametrize("case", STEMS + [(2, 4, i) for i in (0, 25, 64)], ids=str)
def test_lift_matches_a_generator_by_generator_solve(case):
    alg = corpus_algebra(case) if isinstance(case, str) else _cut(case[2])
    seen = 0
    for f, P, Q in _maps_between_injectives(alg):
        top = P.length
        (F,) = lift(Q, [(f, P)], top)
        want = _lift_oracle(f, P, Q, top)
        assert {k: F[k] for k in want} == want
        seen += 1
    assert seen


@pytest.mark.parametrize("stem", ["a3_linear", "d4", "a2_tensor_a2"])
def test_lifts_into_one_resolution_are_made_together(stem):
    # lifting many maps into Q at once gives each one's own lift
    alg = corpus_algebra(stem)
    ress = injective_resolutions(alg)
    for y in alg.vertices:
        maps = [(f, ress[x]) for x in alg.vertices
                for f in hom(injective_module(alg, x), injective_module(alg, y))]
        if maps:
            assert lift(ress[y], maps, 2) == [lift(ress[y], [m], 2)[0] for m in maps]


@pytest.mark.parametrize("stem", STEMS)
def test_slices_keep_the_lifts_of_their_covers(stem):
    alg = corpus_algebra(stem)
    for v, res in injective_resolutions(alg).items():
        I = injective_module(alg, v)
        assert res.lifts == projective_cover(I)[2] == min_proj_resolution(I).lifts


def test_lift_raises_on_a_map_that_is_not_a_homomorphism():
    # the identity of the top of I_2 over a3_linear, put where I_2 sits in
    # I_1: no module map, and the degree 1 target leaves the image
    alg = corpus_algebra("a3_linear")
    ress = injective_resolutions(alg)
    Ix, Iy = injective_module(alg, 1), injective_module(alg, 2)
    bad = None
    for v in alg.vertices:
        if Ix.dims[v] and Iy.dims[v]:
            mats = {w: Mat.zero(Iy.dims[w], Ix.dims[w]) for w in alg.vertices}
            mats[v] = Mat(Iy.dims[v], Ix.dims[v],
                          [[1 if i == j else 0 for j in range(Ix.dims[v])]
                           for i in range(Iy.dims[v])])
            try:
                lift(ress[2], [(Morphism(Ix, Iy, mats), ress[1])], 2)
            except ValueError:
                bad = v
    assert bad is not None


def test_lift_checks_its_output(monkeypatch):
    # a solver that answers zero breaks the chain map condition, and the
    # check catches it
    alg = corpus_algebra("a3_linear")
    f, P, Q = next((f, P, Q) for f, P, Q in _maps_between_injectives(alg)
                   if not f.is_zero())
    monkeypatch.setattr(homology, "_solve", lambda D, zs: [[0] * D.cols for _ in zs])
    with pytest.raises(ValueError):
        lift(Q, [(f, P)], P.length)
