"""Column sums and projective covers read only where a module is nonzero.
The scans they replaced are the oracles `column_sum_oracle` and
`projective_cover_oracle` of conftest; the fast paths must equal them
entry for entry on the corpus, all 65 (2,4) cuts and every 60th (2,5)
cut.  A column sum is a view on the bimodule's blocks whose dense action
is built only when read; the verdicts never read it for several columns,
and a single column's is the bimodule's own blocks."""

import functools

import pytest

from conftest import CORPUS, column_sum_oracle, corpus_algebra, projective_cover_oracle, projective_module
from quivercy import homology
from quivercy.ar import decide_nrf
from quivercy.constructions import TypeAQuiver, cut_algebra, enumerate_cuts
from quivercy.cy import find_twisted_cy
from quivercy.homology import projective_cover
from quivercy.linalg import Mat
from quivercy.module import (
    ColumnSum,
    column_sum,
    dual_regular_bimodule,
    injective_module,
    kernel,
    regular_bimodule,
    regular_module,
    simple_module,
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
        for v, blocks in X.lact_by_col.items():
            assert list(blocks) == sorted(blocks)  # basis order
            assert all(X.lact[(i, v)] is m for i, m in blocks.items())
        assert sum(map(len, X.lact_by_col.values())) == len(X.lact)
        for verts in _vertex_lists(alg):
            M = column_sum(X, verts)
            dims, act, offs0 = column_sum_oracle(X, verts)
            assert isinstance(M, ColumnSum) and M._act is None, verts
            assert _laid_out(M) == act, verts
            # reading act builds the dense action of a view
            assert (M.dims, M.act, M.offs) == (dims, act, offs0), verts
            if len(verts) == 1:
                # a single column acts by X's own blocks, in a dict of its own
                blocks = X.lact_by_col.get(verts[0], {})
                assert M.act is not blocks and M.act.keys() == blocks.keys(), verts
                assert all(M.act[i] is m for i, m in blocks.items()), verts


def _laid_out(M):
    """M's blocks placed at their offsets in dense matrices."""
    out = {}
    for i, triples in M.blocks().items():
        b = M.alg.basis[i]
        m = out[i] = Mat.zero(M.dims[b.tgt], M.dims[b.src])
        for r0, c0, blk in triples:
            for x in range(blk.rows):
                for y in range(blk.cols):
                    m.a[r0 + x][c0 + y] += blk.a[x][y]
    return out


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
        assert (P.dims, P.act, P.offs) == (dims, act, offs), M
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
    # 60 projective covers use 38 distinct vertex lists; no simple module
    # is resolved, as global_dimension reads the injectives' resolutions
    assert len(built) == len(set(built)) == 38


@pytest.mark.parametrize("case", [(2, 4, 30), (2, 5, 240)], ids=str)
def test_verdicts_build_no_dense_column_sum(monkeypatch, case):
    # the kernels, the Hom cochains and the Tor terms of decide_nrf and
    # find_twisted_cy read the blocks of every column sum of several
    # columns, the covers' domains and the regular module among them; a
    # single column's dense action allocates no matrix
    built, single = [], []
    real = ColumnSum._dense_act

    def no_zero(rows, cols):
        raise AssertionError("Mat.zero in a single column's dense action")

    def spy(self):
        if len(self.verts) > 1:
            built.append(self.name)
            return real(self)
        single.append(self.name)
        with monkeypatch.context() as m:
            m.setattr(Mat, "zero", no_zero)
            return real(self)

    monkeypatch.setattr(ColumnSum, "_dense_act", spy)
    n, s, idx = case
    q = TypeAQuiver(n, s)
    alg = cut_algebra(q, enumerate_cuts(q)[idx])  # fresh: no cached module is dense
    assert decide_nrf(alg, 2).is_nrf is True
    assert find_twisted_cy(alg) is not None
    assert built == [] and single
    assert regular_module(alg).act and built == ["reg"]
