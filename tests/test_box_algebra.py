"""The closed form of Gamma and of the cut algebras (`_box_algebra`)
against the presentation it replaced: build_algebra on the quiver with
the relations of `gamma_relations`, kept here as the oracle."""

import pytest

from conftest import cut_algebra_oracle, gamma_algebra_oracle
from quivercy.constructions import (
    TypeAQuiver,
    _box_algebra,
    cut_algebra,
    enumerate_cuts,
    gamma_algebra,
    is_cut,
    verify_nakayama_bijection,
)
from quivercy.errors import NotACut

GAMMA_FAMILIES = [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4)]
CUT_SAMPLES = [(1, 3, 1), (1, 4, 1), (2, 3, 1), (2, 4, 1), (2, 5, 8), (3, 4, 10)]


def _layout(alg):
    """Everything the two builders must agree on, in order: the basis
    (name, ends, degree, path), the products in insertion order, the
    generators and the quiver's arrows."""
    return ([(b.name, b.src, b.tgt, b.degree, b.path) for b in alg.basis],
            list(alg.mult.items()), alg.generators(), alg.name,
            [(a.label, a.source, a.target) for a in alg.quiver.arrows])


@pytest.mark.parametrize("family", GAMMA_FAMILIES, ids=str)
def test_gamma_matches_the_presentation(family):
    q = TypeAQuiver(*family)
    oracle = gamma_algebra_oracle(q)
    assert verify_nakayama_bijection(oracle)
    g = gamma_algebra(q)
    assert _layout(g) == _layout(oracle)
    assert g.quiver is q.quiver and g.type_a is q


@pytest.mark.parametrize("sample", CUT_SAMPLES, ids=str)
def test_cut_algebras_match_the_presentation(sample):
    n, s, step = sample
    q = TypeAQuiver(n, s)
    for c in enumerate_cuts(q)[::step]:
        lam = cut_algebra(q, c)
        assert _layout(lam) == _layout(cut_algebra_oracle(q, c)), sorted(c)
        assert lam.cut == c and lam.type_a is q


def test_a_set_that_breaks_the_grading_raises():
    # a degree-2 class with two directions has two routes in Gamma;
    # removing the first arrow of its named path keeps the other route,
    # whose product lands on the removed class
    q = TypeAQuiver(2, 4)
    b = next(b for b in gamma_algebra(q).basis if b.degree == 2
             and len({q.arrow_dir[lab] for lab in b.path.labels}) == 2)
    arrows = frozenset(b.path.labels[:1])
    assert not is_cut(q, arrows)
    with pytest.raises(NotACut, match="not a grading"):
        _box_algebra(q, arrows, "not a cut")
    with pytest.raises(NotACut, match="does not meet every cycle"):
        cut_algebra(q, arrows)
