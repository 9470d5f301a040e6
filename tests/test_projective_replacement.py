"""`to_projective_complex` builds the minimal complex of projectives by
covering each pullback modulo the image of d_C.  It is cross-checked
against the path it replaced, a cover of the whole pullback followed by
Gaussian elimination (`conftest.to_projective_complex_oracle` and
`conftest.minimize_oracle`), and against the minimal resolutions of
`split_resolution`."""

import pytest

from conftest import (
    check_mod_complex,
    cohomology_table,
    corpus_algebra,
    nakayama_oracle,
    projective_module,
    shift,
)
from quivercy.constructions import TypeAQuiver, cut_algebra, enumerate_cuts
from quivercy.homology import (
    ModComplex,
    min_proj_resolution,
    nakayama,
    stalk_regular,
    to_projective_complex,
)
from quivercy.linalg import Mat
from quivercy.module import Morphism, injective_module, is_isomorphic, simple_module

CORPUS = ["a2", "a3_linear", "a3_stable", "a4_linear", "a5_stable", "d4", "kronecker",
          "a2_tensor_a2"]
CUTS = ([(2, 4, k) for k in range(0, 65, 7)] + [(2, 5, k) for k in range(0, 480, 60)]
        + [(3, 4, k) for k in range(0, 640, 80)])


def _cut(n, s, idx):
    q = TypeAQuiver(n, s)
    return cut_algebra(q, enumerate_cuts(q)[idx])


def _towers(alg, powers):
    """nu^1..nu^powers of the regular module, by `nakayama` and by the
    old path, each power from the one before on its own path."""
    new = old = stalk_regular(alg)
    for _ in range(powers):
        new, old = nakayama(new), nakayama_oracle(old)
        yield new, old


def _assert_same_terms(alg, powers):
    for new, old in _towers(alg, powers):
        new.check()
        assert new.is_minimal() and new.terms == old.terms


@pytest.mark.parametrize("stem", CORPUS)
def test_nakayama_towers_match_the_eliminated_ones_on_the_corpus(stem):
    alg = corpus_algebra(stem)
    _assert_same_terms(alg, 10 if stem == "kronecker" else 8)


@pytest.mark.parametrize("key", CUTS, ids=str)
def test_nakayama_towers_match_the_eliminated_ones_on_cuts(key):
    _assert_same_terms(_cut(*key), 3)


@pytest.mark.parametrize("stem", CORPUS)
def test_nakayama_powers_have_the_eliminated_ones_cohomology(stem):
    for new, old in _towers(corpus_algebra(stem), 8):
        H, H0 = cohomology_table(new), cohomology_table(old)
        assert H.keys() == H0.keys()
        assert all(is_isomorphic(H[i], H0[i]) for i in H)


@pytest.mark.parametrize("stem", CORPUS)
def test_stalks_of_simples_and_injectives_replace_to_their_resolutions(stem):
    alg = corpus_algebra(stem)
    for M in ([simple_module(alg, v) for v in alg.vertices]
              + [injective_module(alg, v) for v in alg.vertices]):
        P, res = to_projective_complex(ModComplex(alg, {0: M}, {})), min_proj_resolution(M)
        assert res.complete and (P.terms, P.diffs) == (res.terms, res.diffs)


def test_a_contractible_part_above_a_gap_keeps_the_lower_part(a3_linear):
    # P_1 -> P_1, the identity, in degrees 0 and 1 over S_2 in degree -2:
    # the minimal replacement is 0 at degrees -1, 0 and 1, and the
    # resolution of S_2 below; a stop at the first zero degree under the
    # top would return nothing
    P1 = projective_module(a3_linear, 1)
    S2 = simple_module(a3_linear, 2)
    ident = Morphism(P1, P1, {w: Mat.identity(n) for w, n in P1.dims.items()})
    C = ModComplex(a3_linear, {-2: S2, 0: P1, 1: P1}, {0: ident})
    check_mod_complex(C)
    P = to_projective_complex(C)
    res = shift(min_proj_resolution(S2), 2)
    assert (P.terms, P.diffs) == (res.terms, res.diffs) and P.terms == {-2: [2], -3: [3]}
