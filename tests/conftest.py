import pathlib

import pytest

import quivercy
from quivercy.algebra import enveloping
from quivercy.homology import PerfComplex, _module_resolution, ext_dims_upto, homology_module
from quivercy.linalg import Mat, span_basis
from quivercy.module import (
    Bimodule,
    Morphism,
    _sub_from_columns,
    bimodule_to_env_module,
    dual_regular_bimodule,
    env_module,
    env_module_to_bimodule,
    is_isomorphic,
    projective_module,
    radical_columns,
    regular_bimodule,
)
from quivercy.parsing import load_algebra_file

CORPUS = pathlib.Path(quivercy.__file__).parent / "corpus"


def corpus_algebra(stem):
    return load_algebra_file(str(CORPUS / (stem + ".alg"))).build(name=stem)


def socle_vertices(M):
    """Dimension of the socle of M at each vertex: the vectors there that
    every radical basis element kills."""
    out = {}
    for v in M.alg.vertices:
        rows = []
        for g in M.alg.radical_indices():
            if M.alg.basis[g].src == v:
                rows.extend(M.act_mat(g).a)
        out[v] = len(Mat.from_rows(rows, ncols=M.dims[v]).kernel_basis())
    return out


def socle_permutation_oracle(p):
    """The Nakayama permutation of a selfinjective algebra p read off the
    socles: i goes to j when socle(P_j) is the simple at i."""
    perm = {}
    for j in p.vertices:
        soc = socle_vertices(projective_module(p, j))
        (i,) = [v for v, d in soc.items() if d]
        assert soc[i] == 1, f"socle of the projective at {j} is not simple"
        perm[i] = j
    return perm


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
    R = regular_bimodule(alg)
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


def submodule_oracle(N, cols, units):
    """module._sub_from_columns as it was before it read N's blocks: per
    vertex the dense inclusion, the transpose of the columns, and per
    stored action of N its rows at the unit coordinates times the
    inclusion at the source.  Returns (dims, act, inclusion maps)."""
    inc = {}
    for v in N.alg.vertices:
        c, d = cols[v], N.dims[v]
        inc[v] = Mat(len(c), d, c).transpose() if c else Mat(d, 0, [[] for _ in range(d)])
    act = {}
    for i, m in N.act.items():
        b = N.alg.basis[i]
        rows = [m.a[u] for u in units[b.tgt]]
        if rows and inc[b.src].cols:
            prod = Mat(len(rows), m.cols, rows) * inc[b.src]
            if not prod.is_zero():
                act[i] = prod
    return {v: inc[v].cols for v in N.alg.vertices}, act, inc


def radical_submodule(M):
    """rad M = (radical of the algebra) . M, with its inclusion: the rref
    basis of the radical columns, whose unit coordinates are its pivots,
    the first nonzero entry of each row."""
    cols = {v: span_basis(c) for v, c in radical_columns(M).items()}
    units = {v: [next(j for j, x in enumerate(row) if x) for row in c] for v, c in cols.items()}
    R = _sub_from_columns(M, cols, units, name=f"rad({M.name})")
    return R, Morphism(R, M, submodule_oracle(M, cols, units)[2])


# -- Hom in the derived category ---------------------------------------


def _chain_map_space(P: PerfComplex, Q: PerfComplex, shift=0):
    """Coordinates for degree-`shift` maps P -> Q: per degree i, entries
    (r over Q^{i+shift}, s over P^i, basis elt with matching src/tgt)."""
    alg = P.alg
    coords = []
    for i in sorted(set(P.terms) | set(Q.terms)):
        pv = P.terms.get(i, [])
        qv = Q.terms.get(i + shift, [])
        for s, u in enumerate(pv):
            for r, v in enumerate(qv):
                for bidx, b in enumerate(alg.basis):
                    if b.src == v and b.tgt == u:
                        coords.append((i, r, s, bidx))
    return coords


def _apply_chain_condition(alg, P, Q, coords, vec, shift=0):
    """L(f) = d_Q∘f - (-1)^shift f∘d_P as a dict keyed by (i, t, s, bidx)
    living in degree shift+1 map space."""
    bydeg = {}
    for (i, r, s, bidx), c in zip(coords, vec):
        if c:
            bydeg.setdefault(i, {}).setdefault((r, s), {}).setdefault(bidx, 0)
            bydeg[i][(r, s)][bidx] += c
    out = {}

    def add(i, t, s, elt, sign=1):
        for k, c in elt.items():
            key = (i, t, s, k)
            v = out.get(key, 0) + (c if sign > 0 else -c)
            if v:
                out[key] = v
            elif key in out:
                del out[key]

    for i in sorted(set(P.terms) | set(Q.terms)):
        fi = bydeg.get(i, {})
        # d_Q component: (d_Q∘f)[t][s] = sum_r f[r][s] * dQ[t][r]
        dQ = Q.diffs.get(i + shift)
        if dQ is not None and fi:
            for (r, s), elt in fi.items():
                for t in range(len(dQ)):
                    ge = dQ[t][r]
                    if ge:
                        add(i, t, s, alg.mul_elt(elt, ge))
        # f component: (f∘d_P)[t][s] = sum_r dP[r][s] * f^{i+1}[t][r]
        dP = P.diffs.get(i)
        fnext = bydeg.get(i + 1, {})
        if dP is not None and fnext:
            for (t, r), elt in fnext.items():
                for s in range(len(dP[0]) if dP else 0):
                    fe = dP[r][s]
                    if fe:
                        add(i, t, s, alg.mul_elt(fe, elt), sign=-1 if shift % 2 == 0 else 1)
    return out


def hom_in_D_dim(P: PerfComplex, Q: PerfComplex):
    """dim Hom of the derived category: degree-0 chain maps between
    complexes of projectives modulo null-homotopies."""
    alg = P.alg
    coords0 = _chain_map_space(P, Q, 0)
    coords1 = _chain_map_space(P, Q, 1)
    coordsm1 = _chain_map_space(P, Q, -1)
    idx1 = {key: k for k, key in enumerate(coords1)}
    n0 = len(coords0)
    if n0 == 0:
        return 0
    rows_L = []
    for j in range(n0):
        vec = [0] * n0
        vec[j] = 1
        img = _apply_chain_condition(alg, P, Q, coords0, vec, 0)
        col = [0] * len(coords1)
        for key, c in img.items():
            col[idx1[key]] = c
        rows_L.append(col)
    L = Mat.from_rows(rows_L, ncols=len(coords1)).transpose()
    ker_dim = n0 - L.rank()
    # boundaries: h |-> d_Q∘h + h∘d_P
    idx0 = {key: k for k, key in enumerate(coords0)}
    rows_B = []
    for j in range(len(coordsm1)):
        vec = [0] * len(coordsm1)
        vec[j] = 1
        img = _apply_chain_condition(alg, P, Q, coordsm1, vec, -1)
        col = [0] * n0
        for key, c in img.items():
            col[idx0[key]] = c
        rows_B.append(col)
    rank_B = Mat.from_rows(rows_B, ncols=n0).rank()
    return ker_dim - rank_B


class _HomLayout:
    """Coordinates of Hom over the base algebra from a sum of enveloping
    projectives P(u,v) into a bimodule M: one coordinate per (summand r,
    basis elt b with tgt(b) = v_r, coordinate of M[(u_r, w')])."""

    def __init__(self, alg, pairs, M: Bimodule):
        self.alg = alg
        self.pairs = list(pairs)
        self.M = M
        coords = {}
        for w in alg.vertices:
            for w2 in alg.vertices:
                coords[(w, w2)] = []
        for r, (u, v) in enumerate(self.pairs):
            for bidx, b in enumerate(alg.basis):
                if b.tgt != v:
                    continue
                for w2 in alg.vertices:
                    for mc in range(M.dims[(u, w2)]):
                        coords[(b.src, w2)].append((r, bidx, w2, mc))
        self.coords = coords
        self.pos = {}
        for key, lst in coords.items():
            for c, ent in enumerate(lst):
                self.pos[(key, ent)] = c
        self.dims = {key: len(lst) for key, lst in coords.items()}

    def bimodule(self, name="Hom"):
        alg, M = self.alg, self.M
        lact, ract = {}, {}
        for ai, ab in enumerate(alg.basis):
            if ab.degree == 0:
                continue
            # (a.f)(e_u (x) b') = f(e_u (x) (b' * a))
            for w2 in alg.vertices:
                src_key = (ab.src, w2)
                tgt_key = (ab.tgt, w2)
                m = Mat.zero(self.dims[tgt_key], self.dims[src_key])
                hit = False
                for row, (r, bpidx, ww, mc) in enumerate(self.coords[tgt_key]):
                    prod = alg.mul(bpidx, ai)
                    for bidx, c in prod.items():
                        col = self.pos.get((src_key, (r, bidx, ww, mc)))
                        if col is not None:
                            m.a[row][col] = c
                            hit = True
                if hit:
                    lact[(ai, w2)] = m
            # (f.a)(x) = f(x).a through the right action of M
            for w in alg.vertices:
                src_key = (w, ab.tgt)
                tgt_key = (w, ab.src)
                m = Mat.zero(self.dims[tgt_key], self.dims[src_key])
                hit = False
                for col, (r, bidx, ww, mc) in enumerate(self.coords[src_key]):
                    u = self.pairs[r][0]
                    ra = M.ract_mat(u, ai)  # M[(u, tgt_a)] -> M[(u, src_a)]
                    for row_mc in range(ra.rows):
                        val = ra.a[row_mc][mc]
                        if val:
                            row = self.pos[(tgt_key, (r, bidx, ab.src, row_mc))]
                            m.a[row][col] = val
                            hit = True
                if hit:
                    ract[(w, ai)] = m
        return Bimodule(alg, alg, self.dims, lact, ract, name=name)


def _hom_coboundary(alg, E, lay_k: _HomLayout, lay_k1: _HomLayout, em):
    """Map Hom(B_k, M) -> Hom(B_{k+1}, M), f |-> f∘d, as vertex-pair
    matrices usable as an E-module morphism.  em is the based differential
    B_{k+1} -> B_k over E (rows over term k, cols over term k+1)."""
    rev = {k: ij for ij, k in E.tensor_info[2].items()}
    M = lay_k.M
    mats = {key: Mat.zero(lay_k1.dims[key], lay_k.dims[key]) for key in lay_k.dims}
    for r in range(len(em)):
        for s in range(len(em[0]) if em else 0):
            elt = em[r][s]
            if not elt:
                continue
            v_s = lay_k1.pairs[s][1]
            for eidx, c in elt.items():
                ai, aj = rev[eidx]
                # (f∘d)(e (x) b') involves lact by a_i on values and b'|-> a_j * b'
                la = {}
                for w2 in alg.vertices:
                    la[w2] = M.lact_mat(ai, w2)  # rows M[(tgt ai, w2)], cols M[(src ai, w2)]
                for bpidx, bp in enumerate(alg.basis):
                    if bp.tgt != v_s:
                        continue
                    prod = alg.mul(aj, bpidx)  # a_j * b'
                    for bidx, cb in prod.items():
                        for w2 in alg.vertices:
                            mat = la[w2]
                            for row_mc in range(mat.rows):
                                for col_mc in range(mat.cols):
                                    val = mat.a[row_mc][col_mc]
                                    if not val:
                                        continue
                                    src_key = (alg.basis[bidx].src, w2)
                                    col = lay_k.pos.get((src_key, (r, bidx, w2, col_mc)))
                                    if col is None:
                                        continue
                                    tgt_key = (bp.src, w2)
                                    row = lay_k1.pos.get((tgt_key, (s, bpidx, w2, row_mc)))
                                    if row is None:
                                        continue
                                    mats[tgt_key].a[row][col] += c * cb * val
    return mats


def ext_bimodule_oracle(alg, n):
    """ar.ext_bimodule as it was before it dualised the resolution of the
    regular bimodule: Hom over the algebra from the enveloping resolution
    of the dual regular bimodule into the regular bimodule, with its two
    actions and coboundaries written out in coordinates."""
    E = enveloping(alg)
    res = _module_resolution(env_module(alg, dual_regular_bimodule), n + 1)
    if n > res.length:
        return Bimodule(alg, alg, {(u, v): 0 for u in alg.vertices for v in alg.vertices},
                        {}, {}, name="T")
    reg_bimod = regular_bimodule(alg)
    lays = {}
    for k in (n - 1, n, n + 1):
        if 0 <= k <= res.length:
            lays[k] = _HomLayout(alg, res.term_verts(k), reg_bimod)
    Hn = lays[n].bimodule()
    Hn_env = bimodule_to_env_module(Hn)
    f_out = None
    if n + 1 <= res.length:
        mats = _hom_coboundary(alg, E, lays[n], lays[n + 1], res.eltmats[n + 1])
        tgt_env = bimodule_to_env_module(lays[n + 1].bimodule())
        f_out = Morphism(Hn_env, tgt_env, mats)
    f_in = None
    if n >= 1:
        mats = _hom_coboundary(alg, E, lays[n - 1], lays[n], res.eltmats[n])
        src_env = bimodule_to_env_module(lays[n - 1].bimodule())
        f_in = Morphism(src_env, Hn_env, mats)
    H = homology_module(Hn_env, f_in, f_out, name="T")
    out = env_module_to_bimodule(H, alg)
    out.name = "T"
    return out


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
