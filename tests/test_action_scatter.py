"""The Hom-cochain and Tor/Nakayama block maps add each nonzero of an
action matrix straight into the target.  The dense constructions they
replace, which sum scaled copies of whole action matrices, are kept here
as oracles and compared entry for entry on the maps the frontier needs."""

import pytest

from conftest import cluster_tilting_oracle, corpus_algebra
from quivercy import homology
from quivercy.ar import decide_nrf
from quivercy.constructions import TypeAQuiver, cut_algebra, enumerate_cuts
from quivercy.cy import check_twisted_cy, find_twisted_cy
from quivercy.homology import Resolution, SumInfo, nakayama, stalk_regular
from quivercy.linalg import Mat
from quivercy.module import (
    Bimodule,
    Module,
    Morphism,
    column_sum,
    dual_regular_bimodule,
    regular_module,
)

# the corpus algebras that are n-representation-finite, all with n = 1
CORPUS_NRF = ["a2", "a3_linear", "a3_stable", "a4_linear", "a5_stable", "d4"]
CORPUS = [*CORPUS_NRF, "kronecker", "a2_tensor_a2"]
CUTS_2_4 = [f"2_4/{i}" for i in range(0, 65, 5)]
CUTS_2_5 = ["2_5/0", "2_5/160", "2_5/320"]


def _algebra(key):
    if key in CORPUS:
        return corpus_algebra(key)
    s, idx = key.split("/")
    q = TypeAQuiver(2, int(s[-1]))
    return cut_algebra(q, enumerate_cuts(q)[int(idx)])


def _hom_cochain_dense(res: Resolution, N: Module, top):
    alg = res.module.alg
    spaces = []
    layouts = []
    for k in range(top + 1):
        lay = []
        n = 0
        for r, u in enumerate(res.term_verts(k)):
            lay.append((r, u, n))
            n += N.dims[u]
        spaces.append(n)
        layouts.append(lay)
    deltas = []
    for k in range(top):
        em = res.eltmats.get(k + 1)
        m = Mat.zero(spaces[k + 1], spaces[k])
        if em is not None:
            src_lay = {r: off for r, _, off in layouts[k]}
            tgt_lay = {s: off for s, _, off in layouts[k + 1]}
            for s in range(len(em[0]) if em else 0):
                offs = tgt_lay[s]
                for r in range(len(em)):
                    elt = em[r][s]
                    if not elt:
                        continue
                    offr = src_lay[r]
                    blk = None
                    for bidx, c in elt.items():
                        mm = N.act_mat(bidx).scale(c)
                        blk = mm if blk is None else blk + mm
                    for i in range(blk.rows):
                        for j in range(blk.cols):
                            if blk.a[i][j]:
                                m.a[offs + i][offr + j] += blk.a[i][j]
        deltas.append(m)
    return spaces, deltas


def _col_sum_diff_dense(X: Bimodule, em, srcmod, srcoffs, tgtmod, tgtoffs):
    alg = X.left_alg
    mats = {}
    for w in alg.vertices:
        m = Mat.zero(tgtmod.dims[w], srcmod.dims[w])
        for r in range(len(em)):
            for s in range(len(em[0]) if em else 0):
                elt = em[r][s]
                if not elt:
                    continue
                blk = None
                for bidx, c in elt.items():
                    mm = X.ract_mat(w, bidx).scale(c)
                    blk = mm if blk is None else blk + mm
                r0 = tgtoffs[(r, w)]
                c0 = srcoffs[(s, w)]
                for x in range(blk.rows):
                    for y in range(blk.cols):
                        if blk.a[x][y]:
                            m.a[r0 + x][c0 + y] += blk.a[x][y]
        mats[w] = m
    return Morphism(srcmod, tgtmod, mats)


@pytest.fixture
def checked(monkeypatch):
    """Make every Hom-cochain and column-sum map assert equality with its
    dense oracle; returns the modules N of the cochains and the number of
    column-sum maps checked."""
    seen = {"hom": [], "col": 0}
    real_hom, real_col = homology._hom_cochain, homology._col_sum_diff

    def hom_cochain(res, N, top):
        out = real_hom(res, N, top)
        assert out == _hom_cochain_dense(res, N, top)
        seen["hom"].append(N)
        return out

    def col_sum_diff(X, em, *sums):
        out = real_col(X, em, *sums)
        ref = _col_sum_diff_dense(X, em, *sums)
        assert (out.src, out.tgt, out.mats) == (ref.src, ref.tgt, ref.mats)
        seen["col"] += 1
        return out

    monkeypatch.setattr(homology, "_hom_cochain", hom_cochain)
    monkeypatch.setattr(homology, "_col_sum_diff", col_sum_diff)
    return seen


@pytest.mark.parametrize("key", CORPUS_NRF + CUTS_2_4 + CUTS_2_5)
def test_ext_and_tau_maps_match_the_dense_sums(key, checked):
    # tau_n = Tor_n along the orbits, then the Ext vanishing of the
    # cluster tilting module, which only the oracle computes now
    n = 1 if key in CORPUS else 2
    report = decide_nrf(_algebra(key), n)
    assert report.is_nrf is True
    assert checked["col"] > 0
    assert cluster_tilting_oracle(report)
    if n >= 2:
        assert any(N is report.ct_module for N in checked["hom"])


@pytest.mark.parametrize("stem", CORPUS)
def test_nakayama_maps_match_the_dense_sums(stem, checked):
    P = stalk_regular(corpus_algebra(stem))
    for _ in range(3):
        P = nakayama(P)
    assert checked["col"] > 0


@pytest.mark.parametrize("stem", CORPUS)
def test_element_matrices_with_idempotents_match_the_dense_sums(stem):
    # minimal complexes have radical entries only; here the diagonal
    # entries carry an idempotent, which acts as an identity block
    alg = corpus_algebra(stem)
    verts = alg.vertices
    em = [[{k: k + 2 for k, b in enumerate(alg.basis) if b.src == v and b.tgt == u}
           for u in verts] for v in verts]
    assert any(alg.basis[k].degree == 0 for k in em[0][0])
    info = SumInfo(alg, verts)
    res = Resolution(regular_module(alg), [info, info], {1: em}, True)
    for N in (regular_module(alg), info.module):
        assert homology._hom_cochain(res, N, 1) == _hom_cochain_dense(res, N, 1)
    DL = dual_regular_bimodule(alg)
    sums = column_sum(DL, verts)
    out = homology._col_sum_diff(DL, em, *sums, *sums)
    assert out.mats == _col_sum_diff_dense(DL, em, *sums, *sums).mats


def test_frontier_path_scales_no_dense_matrix(monkeypatch):
    def scale(self, c):
        raise AssertionError("dense Mat.scale on the frontier path")

    monkeypatch.setattr(Mat, "scale", scale)
    alg = _algebra("2_5/0")
    assert decide_nrf(alg, 2).is_nrf is True
    assert find_twisted_cy(alg) is not None
    # (2, 1) is ruled out on K_0; (3, 1) computes three Nakayama powers
    a2 = corpus_algebra("a2")
    assert check_twisted_cy(a2, 2, 1) is False
    assert check_twisted_cy(a2, 3, 1) is True
