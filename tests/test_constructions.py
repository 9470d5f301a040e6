import pytest

from conftest import all_orientations, classify_homogeneous_dynkin, is_omega_stable_orientation
from quivercy import ar
from quivercy.constructions import (
    DynkinQuiver,
    TypeAQuiver,
    coxeter_number,
    cut_algebra,
    enumerate_cuts,
    gamma_algebra,
    is_cut,
    omega_involution,
    omega_on_cuts,
    verify_nakayama_bijection,
    verify_thm_homogeneous_cuts,
)
from quivercy.errors import UNDECIDED, BijectionFailure, InvalidSpec, NotACut
from quivercy.homology import is_selfinjective


def test_coxeter_numbers():
    assert coxeter_number("A", 2) == 3
    assert coxeter_number("A", 5) == 6
    assert coxeter_number("D", 4) == 6
    assert coxeter_number("D", 5) == 8
    assert coxeter_number("E", 6) == 12
    assert coxeter_number("E", 7) == 18
    assert coxeter_number("E", 8) == 30


def test_omega_involutions():
    assert omega_involution("A", 3) == {1: 3, 2: 2, 3: 1}
    assert omega_involution("D", 4) == {1: 1, 2: 2, 3: 3, 4: 4}
    assert omega_involution("D", 5) == {1: 1, 2: 2, 3: 3, 4: 5, 5: 4}
    e6 = omega_involution("E", 6)
    assert e6[1] == 6 and e6[2] == 5 and e6[3] == 3 and e6[4] == 4
    assert omega_involution("E", 7) == {i: i for i in range(1, 8)}


def test_dynkin_quiver_validation():
    with pytest.raises(InvalidSpec):
        DynkinQuiver("D", 2)
    with pytest.raises(InvalidSpec):
        DynkinQuiver("E", 5)
    with pytest.raises(InvalidSpec):
        DynkinQuiver("A", 3, orientation=[(1, 2), (1, 2)])
    dq = DynkinQuiver("A", 3, orientation=[(2, 1), (2, 3)])
    assert dq.algebra().dim == 5


def test_orientation_count_and_stability():
    orients = all_orientations("A", 3)
    assert len(orients) == 4
    assert sum(1 for dq in orients if is_omega_stable_orientation(dq)) == 2
    orients5 = all_orientations("A", 5)
    assert len(orients5) == 16
    assert sum(1 for dq in orients5 if is_omega_stable_orientation(dq)) == 4


def test_classification():
    assert classify_homogeneous_dynkin(2) == [("A", 3), ("D", 3)]
    assert classify_homogeneous_dynkin(3) == [("A", 5), ("D", 4)]
    assert classify_homogeneous_dynkin(6) == [("A", 11), ("D", 7), ("E", 6)]
    assert classify_homogeneous_dynkin(9) == [("A", 17), ("D", 10), ("E", 7)]
    assert classify_homogeneous_dynkin(15) == [("A", 29), ("D", 16), ("E", 8)]
    with pytest.raises(InvalidSpec):
        classify_homogeneous_dynkin(1)


def test_type_a_quiver_counts():
    q = TypeAQuiver(1, 3)
    assert len(q.vertices) == 3
    assert len(q.cycles()) == 2
    q = TypeAQuiver(2, 4)
    assert len(q.vertices) == 10
    assert len(q.cycles()) == 9
    q = TypeAQuiver(3, 3)
    assert len(q.vertices) == 10
    assert len(q.cycles()) == 8


def test_omega_vertex_and_arrow():
    q = TypeAQuiver(2, 4)
    x = q.vertices[0]
    assert q.omega_vertex(q.omega_vertex(q.omega_vertex(x))) == x
    a = q.quiver.arrows[0]
    wlab = q.omega_arrow(a.label)
    w = q.quiver.arrow_by_label[wlab]
    assert w.source == q.omega_vertex(a.source)
    assert w.target == q.omega_vertex(a.target)


def test_gamma_dims():
    assert gamma_algebra(TypeAQuiver(1, 3)).dim == 10
    assert gamma_algebra(TypeAQuiver(1, 5)).dim == 35
    assert gamma_algebra(TypeAQuiver(2, 4)).dim == 56


def test_cut_enumeration():
    cases = {(1, 3): (4, 2), (1, 5): (16, 4), (2, 4): (65, 5), (3, 3): (32, 0)}
    for (n, s), (total, stable) in cases.items():
        q = TypeAQuiver(n, s)
        cuts = enumerate_cuts(q)
        assert len(cuts) == total
        assert all(is_cut(q, c) for c in cuts)
        assert sum(1 for c in cuts if omega_on_cuts(q, c) == c) == stable


def test_cut_algebra():
    q = TypeAQuiver(2, 4)
    cuts = enumerate_cuts(q)
    stable = [c for c in cuts if omega_on_cuts(q, c) == c]
    lam = cut_algebra(q, stable[0])
    assert lam.dim == 28
    assert len(lam.quiver.arrows) == len(q.quiver.arrows) - len(stable[0])
    with pytest.raises(NotACut):
        cut_algebra(q, frozenset())


def test_small_cut_algebra_dims():
    # two of the four cuts leave a length-2 path, two do not
    q = TypeAQuiver(1, 3)
    for c in enumerate_cuts(q):
        lam = cut_algebra(q, c)
        long_paths = sum(1 for b in lam.basis if b.degree == 2)
        assert lam.dim == 5 + long_paths
    dims = sorted(cut_algebra(q, c).dim for c in enumerate_cuts(q))
    assert dims == [5, 5, 6, 6]


def test_nakayama_bijection():
    assert verify_nakayama_bijection(gamma_algebra(TypeAQuiver(1, 3)))
    assert verify_nakayama_bijection(gamma_algebra(TypeAQuiver(1, 4)))


def test_gamma_selfinjective():
    assert is_selfinjective(gamma_algebra(TypeAQuiver(1, 3)))
    assert is_selfinjective(gamma_algebra(TypeAQuiver(2, 4)))


def test_verify_homogeneous_cuts_small():
    rep = verify_thm_homogeneous_cuts(1, 3)
    assert rep["verified"]
    assert rep["cut_count"] == 4
    assert rep["omega_stable_count"] == 2
    assert rep["homogeneous_count"] == 2
    assert rep["ell"] == 2
    rep = verify_thm_homogeneous_cuts(1, 5)
    assert rep["verified"]
    assert rep["cut_count"] == 16
    assert rep["omega_stable_count"] == 4
    assert rep["ell"] == 3


def test_verify_homogeneous_cuts_keeps_an_undecided_cut_undecided(monkeypatch):
    # at cap 1 no cut of (1,3) is decided, and no decided cut fails
    assert verify_thm_homogeneous_cuts(1, 3, cap=1)["verified"] is UNDECIDED
    # a decided failure outweighs the undecided cuts
    real = ar.decide_nrf
    seen = []

    def first_fails(alg, n, cap=None):
        rep = real(alg, n, cap=cap)
        if not seen:
            rep.is_nrf = False
        seen.append(rep)
        return rep

    monkeypatch.setattr(ar, "decide_nrf", first_fails)
    assert verify_thm_homogeneous_cuts(1, 3, cap=1)["verified"] is False
    assert [r.is_nrf for r in seen[1:]] == [UNDECIDED] * 3
