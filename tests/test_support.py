"""Column sums and projective covers read only where a module is nonzero.
The scans they replaced are the oracles `column_sum_oracle` and
`projective_cover_oracle` of conftest; the fast paths must equal them
entry for entry on the corpus, all 65 (2,4) cuts and every 60th (2,5)
cut."""

import functools

import pytest

from conftest import CORPUS, column_sum_oracle, corpus_algebra, projective_cover_oracle
from quivercy import homology
from quivercy.ar import decide_nrf
from quivercy.constructions import TypeAQuiver, cut_algebra, enumerate_cuts
from quivercy.cy import find_twisted_cy
from quivercy.homology import projective_cover
from quivercy.module import (
    column_sum,
    dual_regular_bimodule,
    injective_module,
    kernel,
    projective_module,
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
            M, offs = column_sum(X, verts)
            assert (M.dims, M.act, offs) == column_sum_oracle(X, verts), verts


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
        info, epi, lifts = projective_cover(M)
        verts, dims, act, offs, mats, lifts0 = projective_cover_oracle(M)
        assert (info.verts, lifts) == (verts, lifts0), M
        assert (info.module.dims, info.module.act, info.offs) == (dims, act, offs), M
        assert epi.src is info.module and epi.tgt is M
        assert epi.mats == mats, M


def test_each_vertex_list_is_summed_once(monkeypatch):
    # decide_nrf and find_twisted_cy on a fixed (2,5) cut: every SumInfo
    # is built once per vertex list and then read from the algebra's cache
    built = []
    init = homology.SumInfo.__init__

    def counting_init(self, alg, verts):
        built.append(tuple(verts))
        init(self, alg, verts)

    monkeypatch.setattr(homology.SumInfo, "__init__", counting_init)
    q = TypeAQuiver(2, 5)
    alg = cut_algebra(q, enumerate_cuts(q)[60])
    assert decide_nrf(alg, 2).is_nrf is True
    assert find_twisted_cy(alg) is not None
    # 60 projective covers use 38 distinct vertex lists; no simple module
    # is resolved, as global_dimension reads the injectives' resolutions
    assert len(built) == len(set(built)) == 38
