"""The projective, injective and regular modules, the dual regular
bimodule and the coordinate layout of a sum of projectives are all read
off one regular bimodule.  The builders below are the direct loops over
the multiplication table that each of them used to run on its own; they
stay here as oracles, compared entrywise with the views."""

import pytest

from conftest import (
    CORPUS,
    corpus_algebra,
    dense_action,
    dense_module,
    flip_bimodule,
    projective_module,
)
from quivercy.algebra import enveloping, opposite, tensor_product
from quivercy.constructions import TypeAQuiver, cut_algebra, enumerate_cuts, gamma_algebra
from quivercy.homology import _sum_info
from quivercy.linalg import Mat
from quivercy.module import (
    Bimodule,
    direct_sum,
    dual_regular_bimodule,
    injective_module,
    regular_bimodule,
    regular_module,
)


def _oracle_projective(alg, v):
    by_vertex = {u: [] for u in alg.vertices}
    for i, b in enumerate(alg.basis):
        if b.src == v:
            by_vertex[b.tgt].append(i)
    pos = {}
    for u, lst in by_vertex.items():
        for c, i in enumerate(lst):
            pos[i] = c
    dims = {u: len(lst) for u, lst in by_vertex.items()}
    act = {}
    for j, bj in enumerate(alg.basis):
        if bj.degree == 0:
            continue
        m = Mat.zero(dims[bj.tgt], dims[bj.src])
        for col, i in enumerate(by_vertex[bj.src]):
            for k, c in alg.mul(j, i).items():
                m.a[pos[k]][col] = c
        act[j] = m
    return dense_module(alg, dims, act), by_vertex


def _oracle_injective(alg, v):
    by_vertex = {u: [] for u in alg.vertices}
    for i, b in enumerate(alg.basis):
        if b.tgt == v:
            by_vertex[b.src].append(i)
    dims = {u: len(lst) for u, lst in by_vertex.items()}
    act = {}
    for j, bj in enumerate(alg.basis):
        if bj.degree == 0:
            continue
        m = Mat.zero(dims[bj.tgt], dims[bj.src])
        for col, b in enumerate(by_vertex[bj.src]):
            for row, x in enumerate(by_vertex[bj.tgt]):
                c = alg.mul(x, j).get(b)
                if c:
                    m.a[row][col] = c
        act[j] = m
    return dense_module(alg, dims, act)


def _oracle_bimodule(alg, dual):
    """The regular bimodule, or with dual=True its k-dual."""
    by_pair = {(u, v): [] for u in alg.vertices for v in alg.vertices}
    for i, b in enumerate(alg.basis):
        by_pair[(b.src, b.tgt) if dual else (b.tgt, b.src)].append(i)
    pos = {}
    for lst in by_pair.values():
        for c, i in enumerate(lst):
            pos[i] = c
    dims = {k: len(lst) for k, lst in by_pair.items()}
    lact, ract = {}, {}
    for j, bj in enumerate(alg.basis):
        if bj.degree == 0:
            continue
        for v in alg.vertices:
            m = Mat.zero(dims[(bj.tgt, v)], dims[(bj.src, v)])
            for col, i in enumerate(by_pair[(bj.src, v)]):
                if dual:
                    # (a.xi)(x) = xi(x * a)
                    for row, x in enumerate(by_pair[(bj.tgt, v)]):
                        c = alg.mul(x, j).get(i)
                        if c:
                            m.a[row][col] = c
                else:
                    for k, c in alg.mul(j, i).items():
                        m.a[pos[k]][col] = c
            if not m.is_zero():
                lact[(j, v)] = m
        for u in alg.vertices:
            m = Mat.zero(dims[(u, bj.src)], dims[(u, bj.tgt)])
            for col, i in enumerate(by_pair[(u, bj.tgt)]):
                if dual:
                    # (xi.b)(x) = xi(b * x)
                    for row, x in enumerate(by_pair[(u, bj.src)]):
                        c = alg.mul(j, x).get(i)
                        if c:
                            m.a[row][col] = c
                else:
                    for k, c in alg.mul(i, j).items():
                        m.a[pos[k]][col] = c
            if not m.is_zero():
                ract[(u, j)] = m
    return Bimodule(alg, alg, dims, lact, ract)


def _oracle_projective_sum(alg, verts):
    """(coords, module) of the sum of the projectives at verts: coords[w]
    lists its coordinates at w as (summand index, algebra basis index)."""
    coords = {w: [] for w in alg.vertices}
    for r, v in enumerate(verts):
        by_vertex = _oracle_projective(alg, v)[1]
        for w in alg.vertices:
            for bidx in by_vertex[w]:
                coords[w].append((r, bidx))
    pos = {}
    for w, lst in coords.items():
        for c, key in enumerate(lst):
            pos[key] = c
    dims = {w: len(coords[w]) for w in alg.vertices}
    act = {}
    for j, bj in enumerate(alg.basis):
        if bj.degree == 0:
            continue
        m = Mat.zero(dims[bj.tgt], dims[bj.src])
        for c, (r, bidx) in enumerate(coords[bj.src]):
            for k, cf in alg.mul(j, bidx).items():
                m.a[pos[(r, k)]][c] = cf
        act[j] = m
    return coords, dense_module(alg, dims, act)


def _walked_coords(alg, P, w):
    """The coordinates of P at w in the order projective_cover and
    images_to_eltmat walk them: offs[(r, w)] + p is basis element
    R.basis_indices[(w, v_r)][p] of summand r."""
    R = regular_bimodule(alg)
    walked = {P.offs[(r, w)] + p: (r, bidx) for r, v in enumerate(P.verts)
              for p, bidx in enumerate(R.basis_indices.get((w, v), ()))}
    assert sorted(walked) == list(range(P.dims[w]))
    return [walked[c] for c in range(P.dims[w])]


def _same_module(M, N):
    assert M.dims == N.dims
    assert dense_action(M) == dense_action(N)


def _same_bimodule(X, Y):
    assert X.dims == Y.dims
    assert X.lact_by_col.keys() == Y.lact_by_col.keys()
    assert X.ract_by_elt.keys() == Y.ract_by_elt.keys()
    assert all(X.lact_by_col[v] == Y.lact_by_col[v] for v in X.lact_by_col)
    assert all(X.ract_by_elt[j] == Y.ract_by_elt[j] for j in X.ract_by_elt)


def _algebras():
    cases = [(stem, lambda stem=stem: corpus_algebra(stem))
             for stem in sorted(p.stem for p in CORPUS.glob("*.alg"))]
    q = TypeAQuiver(2, 4)
    cases += [(f"cut_2_4/{i}", lambda c=c: cut_algebra(q, c))
              for i, c in enumerate(enumerate_cuts(q)) if i % 5 == 0]
    cases += [(f"gamma_{n}_{s}", lambda n=n, s=s: gamma_algebra(TypeAQuiver(n, s)))
              for n, s in ((1, 3), (2, 4))]
    cases += [("env_a2", lambda: enveloping(corpus_algebra("a2"))),
              ("a2_(x)_a2", lambda: tensor_product(corpus_algebra("a2"), corpus_algebra("a2")))]
    return cases


CASES = _algebras()


@pytest.mark.parametrize("build", [b for _, b in CASES], ids=[n for n, _ in CASES])
def test_views_match_the_direct_builders(build):
    alg = build()
    _same_bimodule(regular_bimodule(alg), _oracle_bimodule(alg, dual=False))
    _same_bimodule(dual_regular_bimodule(alg), _oracle_bimodule(alg, dual=True))
    projectives = []
    for v in alg.vertices:
        P, _ = _oracle_projective(alg, v)
        _same_module(projective_module(alg, v), P)
        _same_module(injective_module(alg, v), _oracle_injective(alg, v))
        projectives.append(P)
    _same_module(regular_module(alg), direct_sum(projectives))
    vs = list(alg.vertices)
    for verts in (vs, vs[:1], vs[::-1] + vs[:2], []):
        P = _sum_info.__wrapped__(alg, tuple(verts))
        coords, module = _oracle_projective_sum(alg, verts)
        assert {w: _walked_coords(alg, P, w) for w in alg.vertices} == coords
        _same_module(P, module)


def _flip_cases():
    cases = [(stem, lambda stem=stem: corpus_algebra(stem))
             for stem in sorted(p.stem for p in CORPUS.glob("*.alg"))]
    for (n, s), step in (((2, 4), 1), ((2, 5), 24)):
        q = TypeAQuiver(n, s)
        cases += [(f"cut_{n}_{s}/{i}", lambda q=q, c=c: cut_algebra(q, c))
                  for i, c in enumerate(enumerate_cuts(q)) if i % step == 0]
    return cases


FLIP_CASES = _flip_cases()


@pytest.mark.parametrize("build", [b for _, b in FLIP_CASES], ids=[n for n, _ in FLIP_CASES])
def test_dual_regular_of_the_opposite_is_the_flipped_dual(build):
    # the right action of i on row u of reg(A^op) is the left action of i
    # on column u of reg(A), in the same coordinates, so tau_n^- may read
    # D(A) over A^op as dual_regular_bimodule(A^op)
    alg = build()
    op = opposite(alg)
    _same_bimodule(dual_regular_bimodule(op), flip_bimodule(dual_regular_bimodule(alg), op, op))
