"""Column sums and projective covers read only where a module is nonzero.
The scans they replaced are the oracles `column_sum_oracle` and
`projective_cover_oracle` of conftest; the fast paths must equal them
entry for entry on the corpus, all 65 (2,4) cuts and every 60th (2,5)
cut.  A column sum is a view on the bimodule's blocks, listed on first
read; the verdicts never lay them out as one matrix for several columns,
and a single column's matrices are the bimodule's own blocks.

Every module stores its action only as block triples, and every reader
reads those: on the same algebras each equals its dense computation,
read through conftest's `dense_action`, and every module they return
keeps the block rule (nonzero, block-diagonal)."""

import functools

import pytest

from conftest import (
    CORPUS,
    assert_bimodule_store,
    assert_block_rule,
    column_sum_oracle,
    corpus_algebra,
    dense_act_mat,
    dense_action,
    projective_cover_oracle,
    projective_module,
)
from quivercy import homology, module
from quivercy.algebra import tensor_product
from quivercy.ar import decide_nrf
from quivercy.constructions import TypeAQuiver, cut_algebra, enumerate_cuts
from quivercy.cy import check_twisted_cy, check_untwisted_cy, find_twisted_cy
from quivercy.homology import projective_cover
from quivercy.linalg import Mat
from quivercy.module import (
    ColumnSum,
    _quotient_maps,
    column_sum,
    direct_sum,
    dual_module,
    dual_regular_bimodule,
    hom,
    injective_module,
    kernel,
    outer_tensor_module,
    quotient,
    radical_columns,
    regular_bimodule,
    regular_module,
    simple_module,
    top_dim_vector,
    zero_module,
)

STEMS = sorted(p.stem for p in CORPUS.glob("*.alg"))
CASES = STEMS + [(2, 4, i) for i in range(65)] + [(2, 5, i) for i in range(0, 480, 60)]


@functools.lru_cache(maxsize=None)
def _algebra(case):
    if isinstance(case, str):
        return corpus_algebra(case)
    n, s, idx = case
    q = TypeAQuiver(n, s)
    return cut_algebra(q, enumerate_cuts(q)[idx])


def _vertex_lists(alg):
    """Empty, single-vertex, multi-vertex and repeated-vertex lists."""
    vs = list(alg.vertices)
    return [[]] + [[v] for v in vs] + [vs, vs[::-1], [vs[0], vs[0]],
                                       [vs[-1]] + vs[1::2] + [vs[-1], vs[0]]]


@pytest.mark.parametrize("case", CASES, ids=str)
def test_column_sums_match_the_scan(case):
    alg = _algebra(case)
    for X in (regular_bimodule(alg), dual_regular_bimodule(alg)):
        assert_bimodule_store(X)  # nonzero blocks, each column in basis order
        for verts in _vertex_lists(alg):
            M = column_sum(X, verts)
            dims, act, offs0 = column_sum_oracle(X, verts)
            # the blocks of a view are listed on first read
            assert isinstance(M, ColumnSum) and M._blocks is None, verts
            # offsets only where the summand is nonzero, each as in the scan
            offs0 = {(r, w): o for (r, w), o in offs0.items() if X.dims[(w, verts[r])]}
            assert (M.dims, dense_action(M), M.offs) == (dims, act, offs0), verts
            assert_block_rule(M)
            if len(verts) == 1:
                # a single column acts by X's own blocks, which its whole
                # matrices are
                blocks = X.lact_by_col.get(verts[0], {})
                assert M.blocks().keys() == blocks.keys(), verts
                for i, m in blocks.items():
                    (r0, c0, blk), = M.blocks()[i]
                    assert (r0, c0) == (0, 0) and blk is m, verts
                    assert module.action_matrix(M, i) is m, verts


@pytest.mark.parametrize("case", CASES, ids=str)
def test_column_sums_store_only_nonzero_offsets(case):
    # an offset for every (summand, vertex) pair with a nonzero space and
    # for no other pair: on the sums of the vertex lists, on each
    # injective, and on every sum kept once the global dimension is known
    alg = _algebra(case)
    homology.global_dimension(alg)
    sums = [column_sum(X, verts) for X in (regular_bimodule(alg), dual_regular_bimodule(alg))
            for verts in _vertex_lists(alg)]
    sums += [M for M in alg._cache.values() if isinstance(M, ColumnSum)]
    for v in alg.vertices:
        inj = injective_module(alg, v)
        DA = inj.bimodule
        assert inj.offs == {(0, w): 0 for w in alg.vertices if DA.dims[(w, v)]}
        sums.append(inj)
    assert len(sums) > 2 * len(_vertex_lists(alg)) + len(alg.vertices)
    for M in sums:
        X = M.bimodule
        nonzero = {(r, w) for r, u in enumerate(M.verts) for w in alg.vertices if X.dims[(w, u)]}
        assert set(M.offs) == nonzero, M


def _modules(alg):
    """Modules to cover: zero, simples, projectives, injectives, the
    regular module and the kernels of the injectives' covers."""
    mods = [zero_module(alg), regular_module(alg)]
    for v in alg.vertices:
        inj = injective_module(alg, v)
        mods += [simple_module(alg, v), projective_module(alg, v), inj,
                 kernel(projective_cover(inj)[1])[0]]
    return mods


@pytest.mark.parametrize("case", CASES, ids=str)
def test_projective_covers_match_the_oracle(case):
    alg = _algebra(case)
    for M in _modules(alg):
        P, epi, lifts = projective_cover(M)
        verts, dims, act, offs, mats, lifts0 = projective_cover_oracle(M)
        assert (P.verts, lifts) == (verts, lifts0), M
        R = regular_bimodule(alg)
        offs = {(r, w): o for (r, w), o in offs.items() if R.dims[(w, verts[r])]}
        assert (P.dims, dense_action(P), P.offs) == (dims, act, offs), M
        assert epi.src is P and epi.tgt is M
        assert epi.mats == mats, M


def test_each_vertex_list_is_summed_once(monkeypatch):
    # decide_nrf and find_twisted_cy on a fixed (2,5) cut: every sum of
    # projectives is built once per vertex list and then read from the
    # algebra's cache; the builds are the misses of the memo
    built = []
    build = homology._sum_info.__wrapped__

    def counting(alg, verts):
        built.append(verts)
        return build(alg, verts)

    monkeypatch.setattr(homology._sum_info, "__wrapped__", counting)
    q = TypeAQuiver(2, 5)
    alg = cut_algebra(q, enumerate_cuts(q)[60])
    assert decide_nrf(alg, 2).is_nrf is True
    assert find_twisted_cy(alg) is not None
    # 6 projective covers use 6 distinct vertex lists: the three terms of
    # DA, the injectives resolved together, and the three of the one sum
    # of the orbits' stage 1 that are not projective; no simple module is
    # resolved
    assert len(built) == len(set(built)) == 6


@pytest.mark.parametrize("case", [(2, 4, 30), (2, 5, 240)], ids=str)
def test_verdicts_build_no_dense_column_sum(monkeypatch, case):
    # the kernels, the Hom cochains and the Tor terms of decide_nrf and
    # find_twisted_cy read the blocks of every column sum, the covers'
    # domains and the regular module among them, and lay none of them out
    # as whole matrices; a single column's whole matrices are its blocks
    # and allocate no matrix
    seen = []
    real = module.action_matrix

    def no_zero(rows, cols):
        raise AssertionError("Mat.zero in a single column's action matrix")

    def spy(M, i):
        seen.append((M.name, len(M.verts) if isinstance(M, ColumnSum) else None))
        if seen[-1][1] != 1:
            return real(M, i)
        with monkeypatch.context() as m:
            m.setattr(Mat, "zero", no_zero)
            return real(M, i)

    for mod in (module, homology):
        monkeypatch.setattr(mod, "action_matrix", spy)
    n, s, idx = case
    q = TypeAQuiver(n, s)
    alg = cut_algebra(q, enumerate_cuts(q)[idx])  # fresh: no cached module
    assert decide_nrf(alg, 2).is_nrf is True
    assert find_twisted_cy(alg) is not None
    assert seen == []
    for v in alg.vertices:
        inj = injective_module(alg, v)
        for i in inj.blocks():
            module.action_matrix(inj, i)
    assert seen and all(k == 1 for _, k in seen)
    reg = regular_module(alg)
    module.action_matrix(reg, next(iter(reg.blocks())))
    assert seen[-1] == ("reg", len(alg.vertices))


# -- every reader on the block triples ---------------------------------


def _hom_oracle(M, N):
    """module.hom as it was on dense actions: one row per entry (r, c) of
    N_g f_u - f_w M_g for every generator g."""
    alg = M.alg
    off, n = {}, 0
    for v in alg.vertices:
        off[v] = n
        n += N.dims[v] * M.dims[v]
    if n == 0:
        return []
    rows = []
    for g in alg.generators():
        b = alg.basis[g]
        u, w = b.src, b.tgt
        NA, MA = dense_act_mat(N, g), dense_act_mat(M, g)
        for r in range(N.dims[w]):
            for c in range(M.dims[u]):
                row = [0] * n
                for k in range(N.dims[u]):
                    row[off[u] + k * M.dims[u] + c] += NA.a[r][k]
                for k in range(M.dims[w]):
                    row[off[w] + r * M.dims[w] + k] -= MA.a[k][c]
                if any(row):
                    rows.append(row)
    kb = Mat.from_rows(rows, ncols=n).kernel_basis()
    return [{v: Mat(N.dims[v], M.dims[v], [vec[off[v] + k * M.dims[v]:off[v] + (k + 1) * M.dims[v]]
                                           for k in range(N.dims[v])])
             for v in alg.vertices} for vec in kb]


def _quotient_oracle(N, cols):
    """The dense action of N's quotient: projection times action times
    section, per basis element."""
    maps = {v: _quotient_maps(cols.get(v, []), N.dims[v]) for v in N.alg.vertices}
    act = {}
    for i, m in dense_action(N).items():
        b = N.alg.basis[i]
        q = maps[b.tgt][0] * (m * maps[b.src][1])
        if not q.is_zero():
            act[i] = q
    return act


@pytest.mark.parametrize("case", CASES, ids=str)
def test_block_readers_match_the_dense_oracle(case):
    alg = _algebra(case)
    mods = _modules(alg)
    for M in mods:
        assert_block_rule(M)
        # the k-dual transposes every action
        D = dual_module(M)
        assert_block_rule(D)
        assert dense_action(D) == {i: m.transpose() for i, m in dense_action(M).items()}
        # the radical columns are the nonzero columns of the dense actions
        rad = {v: [] for v in alg.vertices}
        for i, m in dense_action(M).items():
            rad[alg.basis[i].tgt] += [c for c in m.columns() if any(c)]
        assert {v: sorted(c) for v, c in radical_columns(M).items()} == \
            {v: sorted(c) for v, c in rad.items()}
        assert top_dim_vector(M) == tuple(
            M.dims[v] - (Mat.from_rows(rad[v]).rank() if rad[v] else 0) for v in alg.vertices)
        # the quotient by the radical, and M as the quotient of its cover
        # by the kernel, a column sum of several columns
        Q, _ = quotient(M, rad)
        assert_block_rule(Q)
        assert dense_action(Q) == _quotient_oracle(M, rad)
        P, epi, lifts = projective_cover(M)
        assert_block_rule(P)
        verts, dims, act, offs, mats, lifts0 = projective_cover_oracle(M)
        assert (P.verts, lifts, P.dims, dense_action(P)) == (verts, lifts0, dims, act)
        assert epi.mats == mats
        _, kcols, _ = kernel(epi)
        Q, _ = quotient(P, kcols)
        assert_block_rule(Q)
        assert dense_action(Q) == _quotient_oracle(P, kcols)
        # the endomorphisms, read off the blocks
        assert [f.mats for f in hom(M, M)] == _hom_oracle(M, M)
        assert [f.mats for f in hom(M, P)] == _hom_oracle(M, P)
    # a direct sum is block diagonal in the summands' dense actions
    S = direct_sum(mods)
    assert_block_rule(S)
    stored = {i for M in mods for i in M.blocks()}
    assert dense_action(S) == {i: Mat.block_diag([dense_act_mat(M, i) for M in mods])
                               for i in stored}


@pytest.mark.parametrize("case", CASES, ids=str)
def test_outer_tensor_matches_the_kronecker_products(case):
    # with a2 on the right: every pair of actions, idempotents included
    alg, a2 = _algebra(case), _algebra("a2")
    t = tensor_product(alg, a2)
    _, _, pair_index = t.tensor_info
    for M in _modules(alg)[:6]:
        for N in _modules(a2)[:6]:
            T = outer_tensor_module(M, N, t)
            assert_block_rule(T)
            want = {}
            for (i, j), k in pair_index.items():
                if alg.basis[i].degree + a2.basis[j].degree:
                    m = dense_act_mat(M, i).kron(dense_act_mat(N, j))
                    if not m.is_zero():
                        want[k] = m
            assert dense_action(T) == want


def test_no_dense_cone(monkeypatch):
    # to_projective_complex sums each term of the cone with the next
    # projective as blocks, so neither the untwisted check nor the
    # corpus_cy benchmark operation on a2 (x) a2 builds a block-diagonal
    # matrix (416 and 42 calls while the sum was dense)
    calls = []
    real = Mat.block_diag
    monkeypatch.setattr(Mat, "block_diag", staticmethod(lambda mats: calls.append(1) or real(mats)))
    assert check_untwisted_cy(corpus_algebra("a2_tensor_a2"), 6, 4) is True
    assert calls == []
    alg = corpus_algebra("a2_tensor_a2")
    assert decide_nrf(alg, 2).is_nrf is False
    assert find_twisted_cy(alg) is not None
    assert [l for l in range(2, 7) if check_twisted_cy(alg, l, 2 * (l - 1))] == []
    assert calls == []
