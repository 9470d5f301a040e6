import pathlib

import pytest

import quivercy
from quivercy.homology import ext_dims_upto
from quivercy.linalg import Mat
from quivercy.module import cached_regular_bimodule, is_isomorphic
from quivercy.parsing import load_algebra_file

CORPUS = pathlib.Path(quivercy.__file__).parent / "corpus"


def corpus_algebra(stem):
    return load_algebra_file(str(CORPUS / (stem + ".alg"))).build(name=stem)


def cluster_tilting_oracle(report):
    """The check decide_nrf made on a positive report before the orbit
    criterion alone decided it: the orbit summands are pairwise
    non-isomorphic, and Ext^1..n-1(X, M) = 0 for every summand X and their
    sum M (Ext is additive in M, so this covers every pair).  Summands are
    grouped by dimension vector once and compared only within a group."""
    groups = {}
    for X in report.ct_summands:
        groups.setdefault(X.dim_vector(), []).append(X)
    if any(is_isomorphic(X, Y) for group in groups.values()
           for k, X in enumerate(group) for Y in group[k + 1:]):
        return False
    n = report.n
    return n < 2 or not any(any(ext_dims_upto(X, report.ct_module, n - 1)[1:n])
                            for X in report.ct_summands)


def column_sum_oracle(X, verts):
    """module.column_sum as it was before it read only the blocks of its
    own columns: a scan of every basis element at every column, giving
    (dims, act, offsets)."""
    alg = X.left_alg
    offs = {}
    dims = {}
    for w in alg.vertices:
        n = 0
        for r, u in enumerate(verts):
            offs[(r, w)] = n
            n += X.dims[(w, u)]
        dims[w] = n
    act = {}
    for i, b in enumerate(alg.basis):
        if b.degree == 0 and len(verts) > 1:
            continue
        m = None
        for r, u in enumerate(verts):
            blk = X.lact.get((i, u))
            if blk is None:
                continue
            if m is None:
                m = act[i] = Mat.zero(dims[b.tgt], dims[b.src])
            r0, c0 = offs[(r, b.tgt)], offs[(r, b.src)]
            for x in range(blk.rows):
                m.a[r0 + x][c0 : c0 + blk.cols] = blk.a[x][:]
    return dims, {i: m for i, m in act.items() if not m.is_zero()}, offs


def projective_cover_oracle(M):
    """homology.projective_cover as it was before it skipped the vertices
    where M is zero: radical columns from a scan of every radical basis
    element, an rref and a map fill at every vertex, and a fresh column
    sum of the regular bimodule.  Returns (verts, dims, act, offsets,
    maps, lifts), where dims, act and offsets are those of the cover's
    domain."""
    alg = M.alg
    rad = {v: [] for v in alg.vertices}
    for g in alg.radical_indices():
        if g in M.act:
            rad[alg.basis[g].tgt].extend(c for c in M.act[g].columns() if any(c))
    verts = []
    lifts = []
    for v in alg.vertices:
        _, pivots = Mat.from_rows(rad[v], ncols=M.dims[v]).rref()
        pivset = set(pivots)
        for j in range(M.dims[v]):
            if j not in pivset:
                verts.append(v)
                lifts.append(j)
    R = cached_regular_bimodule(alg)
    dims, act, offs = column_sum_oracle(R, verts)
    mats = {}
    for w in alg.vertices:
        m = Mat.zero(M.dims[w], dims[w])
        for r, (v, j) in enumerate(zip(verts, lifts)):
            for c, bidx in enumerate(R.basis_indices.get((w, v), ()), offs[(r, w)]):
                if alg.basis[bidx].degree == 0:
                    m.a[j][c] = 1
                elif bidx in M.act:
                    for row, act_row in zip(m.a, M.act[bidx].a):
                        row[c] = act_row[j]
        mats[w] = m
    return verts, dims, act, offs, mats, lifts


@pytest.fixture(scope="session")
def a2():
    return corpus_algebra("a2")


@pytest.fixture(scope="session")
def a3_linear():
    return corpus_algebra("a3_linear")


@pytest.fixture(scope="session")
def a3_stable():
    return corpus_algebra("a3_stable")


@pytest.fixture(scope="session")
def a4_linear():
    return corpus_algebra("a4_linear")


@pytest.fixture(scope="session")
def a5_stable():
    return corpus_algebra("a5_stable")


@pytest.fixture(scope="session")
def d4():
    return corpus_algebra("d4")


@pytest.fixture(scope="session")
def kronecker():
    return corpus_algebra("kronecker")


@pytest.fixture(scope="session")
def a2sq():
    return corpus_algebra("a2_tensor_a2")
