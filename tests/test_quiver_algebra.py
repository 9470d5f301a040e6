import pytest

from conftest import corpus_algebra
from quivercy.algebra import (
    Algebra,
    build_algebra,
    enveloping,
    opposite,
    path_algebra,
    semisimple_algebra,
    tensor_product,
)
from quivercy.constructions import TypeAQuiver, cut_algebra, enumerate_cuts
from quivercy.errors import MalformedRelation, NotFiniteDimensional
from quivercy.quiver import Path, Quiver, Relation

CORPUS_STEMS = ["a2", "a2_tensor_a2", "a3_linear", "a3_stable", "a4_linear",
                "a5_stable", "d4", "kronecker"]


@pytest.fixture(scope="module")
def cuts_2_4():
    q = TypeAQuiver(2, 4)
    return [cut_algebra(q, c) for c in enumerate_cuts(q)]


def _associative_n3(alg):
    """Associativity by the loop over all n^3 basis triples, with no use
    of the vertex grading; a triple is skipped only when both of its
    inner products are zero."""
    n = alg.dim
    for i in range(n):
        for j in range(n):
            ij = alg.mul(i, j)
            for k in range(n):
                jk = alg.mul(j, k)
                if (ij or jk) and alg.mul_elt(ij, {k: 1}) != alg.mul_elt({i: 1}, jk):
                    return False
    return True


def _with_mult(alg, mult):
    """alg with its structure constants replaced by mult."""
    return Algebra(alg.vertices, alg.basis, mult, name=f"{alg.name}~")


def _raises(alg):
    try:
        alg.check_associativity()
    except ValueError:
        return True
    return False


def _composable_triples(alg):
    """Basis triples (i, j, k) with src(i) == tgt(j) and src(j) == tgt(k)."""
    src = [b.src for b in alg.basis]
    tgt = [b.tgt for b in alg.basis]
    return sum(src.count(b.tgt) * tgt.count(b.src) for b in alg.basis)


def test_quiver_validation():
    with pytest.raises(ValueError):
        Quiver([1, 1], [])
    with pytest.raises(ValueError):
        Quiver([1, 2], [("a", 1, 2), ("a", 2, 1)])
    with pytest.raises(ValueError):
        Quiver([1], [("a", 1, 2)])


def test_path_traversal_order():
    q = Quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
    p = Path(q, 1, ("a", "b"))
    assert p.start == 1 and p.end == 3
    with pytest.raises(ValueError):
        Path(q, 1, ("b", "a"))
    assert Path(q, 2, ()) == Path(q, 2, ())
    assert len(Path(q, 2, ())) == 0


def test_relation_validation():
    q = Quiver([1, 2], [("a", 1, 2), ("b", 1, 2)])
    r = Relation([(1, Path(q, 1, ("a",))), (-1, Path(q, 1, ("b",)))])
    assert r.is_homogeneous() and r.length() == 1
    with pytest.raises(MalformedRelation):
        Relation([])
    with pytest.raises(MalformedRelation):
        Relation([(1, Path(q, 1, ()))])


def test_path_algebra_a2():
    q = Quiver([1, 2], [("a", 1, 2)])
    alg = path_algebra(q)
    assert alg.dim == 3
    assert [b.degree for b in alg.basis] == [0, 0, 1]
    # e2 * a = a (a runs 1 -> 2, so the product with source idempotent first)
    a_idx = 2
    assert alg.mul(alg.idem[2], a_idx) == {a_idx: 1}
    assert alg.mul(a_idx, alg.idem[1]) == {a_idx: 1}
    assert alg.mul(a_idx, alg.idem[2]) == {}


def test_product_is_second_then_first():
    q = Quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
    alg = path_algebra(q)
    names = {b.name: i for i, b in enumerate(alg.basis)}
    # b * a is the walk "a then b"; a * b is zero
    assert alg.mul(names["b"], names["a"]) == {names["a*b"]: 1}
    assert alg.mul(names["a"], names["b"]) == {}


def test_commutative_square():
    q = Quiver(
        [1, 2, 3, 4],
        [("a", 1, 2), ("b", 1, 3), ("c", 2, 4), ("d", 3, 4)],
    )
    rel = Relation([(1, Path(q, 1, ("a", "c"))), (-1, Path(q, 1, ("b", "d")))])
    alg = build_algebra(q, [rel])
    assert alg.dim == 9
    # both length-2 walks land in the same nonzero residue class
    names = {b.name: i for i, b in enumerate(alg.basis)}
    ac = alg.mul(names["c"], names["a"])
    assert ac and ac == alg.mul(names["d"], names["b"])


def test_zero_relation():
    q = Quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
    rel = Relation([(1, Path(q, 1, ("a", "b")))])
    alg = build_algebra(q, [rel])
    assert alg.dim == 5
    names = {b.name: i for i, b in enumerate(alg.basis)}
    assert alg.mul(names["b"], names["a"]) == {}


def test_loop_needs_nilpotence():
    q = Quiver([1], [("x", 1, 1)])
    with pytest.raises(NotFiniteDimensional):
        path_algebra(q, length_cap=10)
    rel = Relation([(1, Path(q, 1, ("x", "x")))])
    alg = build_algebra(q, [rel])
    assert alg.dim == 2


def test_inhomogeneous_relation_rejected():
    q = Quiver([1], [("x", 1, 1)])
    with pytest.raises(MalformedRelation):
        build_algebra(q, [Relation([(1, Path(q, 1, ("x",))),
                                    (1, Path(q, 1, ("x", "x")))])])


def test_semisimple():
    alg = semisimple_algebra(["x", "y"])
    assert alg.dim == 2
    assert alg.generators() == []


def test_opposite():
    q = Quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
    alg = path_algebra(q)
    op = opposite(alg)
    assert op.dim == alg.dim
    names = {b.name: i for i, b in enumerate(op.basis)}
    assert op.mul(names["a"], names["b"]) == {names["a*b"]: 1}
    assert op.mul(names["b"], names["a"]) == {}
    op.check_associativity()


def test_tensor_product(a2):
    t = tensor_product(a2, a2)
    assert t.dim == 9
    assert set(t.vertices) == {(1, 1), (1, 2), (2, 1), (2, 2)}
    t.check_associativity()


def test_associativity_check_agrees_with_n3_loop(a2, cuts_2_4):
    algebras = [corpus_algebra(stem) for stem in CORPUS_STEMS]
    algebras += [opposite(a) for a in algebras]
    algebras += [tensor_product(a2, a2), enveloping(a2)] + cuts_2_4
    for alg in algebras:
        assert _associative_n3(alg), alg
        alg.check_associativity()


def test_associativity_check_catches_a_corrupted_coefficient(a4_linear):
    names = {b.name: i for i, b in enumerate(a4_linear.basis)}
    c, ab = names["c"], names["a*b"]
    mult = {key: dict(prod) for key, prod in a4_linear.mult.items()}
    # (c b) a = abc stays, c (b a) becomes 2 abc
    mult[(c, ab)] = {k: 2 * v for k, v in mult[(c, ab)].items()}
    bad = _with_mult(a4_linear, mult)
    assert not _associative_n3(bad)
    with pytest.raises(ValueError, match="associativity fails"):
        bad.check_associativity()


@pytest.mark.parametrize("stem", ["a2", "a3_stable", "d4", "kronecker", "a2_tensor_a2"])
def test_associativity_check_agrees_on_every_single_corruption(stem):
    """Double or drop each stored structure constant in turn: the check
    raises exactly when the n^3 loop finds a non-associative triple."""
    alg = corpus_algebra(stem)
    caught = 0
    for key, prod in alg.mult.items():
        for k in prod:
            for scale in (2, 0):
                mult = {kk: dict(p) for kk, p in alg.mult.items()}
                mult[key][k] *= scale
                if not mult[key][k]:
                    del mult[key][k]
                bad = _with_mult(alg, mult)
                raised = _raises(bad)
                assert raised == (not _associative_n3(bad)), (key, k, scale)
                caught += raised
    assert caught > 0


@pytest.mark.parametrize("stem, product", [
    # a * a = b: outputs fit, but src(a) != tgt(a)
    ("kronecker", lambda nm: {(nm["a"], nm["a"]): {nm["b"]: 1}}),
    # e1 * e1 = e1 + e2: the output e2 has the wrong source and target
    ("a2", lambda nm: {(nm["e[1]"], nm["e[1]"]): {nm["e[1]"]: 1, nm["e[2]"]: 1}}),
])
def test_associativity_check_catches_a_grading_break(stem, product):
    alg = corpus_algebra(stem)
    names = {b.name: i for i, b in enumerate(alg.basis)}
    bad = _with_mult(alg, {**alg.mult, **product(names)})
    # no composable triple sees the break, but the n^3 loop does
    assert not _associative_n3(bad)
    with pytest.raises(ValueError, match="vertex grading"):
        bad.check_associativity()


def test_associativity_check_multiplies_composable_triples_only(cuts_2_4, monkeypatch):
    alg = cuts_2_4[0]
    calls = []
    mul_elt = Algebra.mul_elt

    def counted(self, x, y):
        calls.append(1)
        return mul_elt(self, x, y)

    monkeypatch.setattr(Algebra, "mul_elt", counted)
    alg.check_associativity()
    composable = _composable_triples(alg)
    assert 0 < len(calls) <= 2 * composable
    assert 100 * composable < alg.dim ** 3


def test_path_built_generators_match_generic(cuts_2_4):
    q = TypeAQuiver(2, 5)
    algebras = [corpus_algebra(stem) for stem in CORPUS_STEMS] + cuts_2_4
    algebras += [cut_algebra(q, c) for c in enumerate_cuts(q)[::12]]
    assert len(algebras) == 8 + 65 + 40
    for alg in algebras:
        preset = alg.generators()
        alg._generators = None
        assert preset == alg.generators(), alg


def test_generators_and_gabriel_quiver(a3_stable):
    gens = a3_stable.generators()
    assert len(gens) == 2
    gq = a3_stable.gabriel_quiver()
    assert {(a.source, a.target) for a in gq.arrows} == {(1, 2), (3, 2)}
    assert a3_stable.is_connected()
