import pathlib

import pytest

import quivercy
from quivercy.algebra import Algebra, BasisElt, build_algebra, enveloping
from quivercy.constructions import DynkinQuiver, _dynkin_edges
from quivercy.ar import NrfReport, walk_orbits
from quivercy.cy import (
    TOWER_ROUTE,
    CyCertificate,
    certificate_from_orbits,
    dual_regular_perf,
    k0_candidates,
    k0_nakayama,
    nakayama_power,
)
from quivercy.errors import UNDECIDED, CapExceeded, InvalidSpec, NotNilpotent
from quivercy.homology import (
    PerfComplex,
    default_cap,
    eltmat_entries_in_radical,
    env_resolution,
    ext_dims_upto,
    global_dimension,
    homology_module,
    images_to_eltmat,
    is_shifted_regular,
    minimize,
    nakayama,
    projective_cover,
    stalk_regular,
    tensor_complex,
)
from quivercy.linalg import Mat, independent_subset, inv, rational, span_basis
from quivercy.module import (
    Bimodule,
    Module,
    Morphism,
    _quotient_maps,
    _regular_from_table,
    _sub_from_columns,
    _trace_rank,
    _weighted_sum,
    bimodule_to_env_module,
    column_sum,
    dual_regular_bimodule,
    env_module,
    env_module_to_bimodule,
    hom,
    is_isomorphic,
    kernel,
    radical_columns,
    regular_bimodule,
    regular_module,
    tensor_bimod_bimod,
    top_dim_vector,
)
from quivercy.parsing import load_algebra_file
from quivercy.quiver import Path, Quiver, Relation

CORPUS = pathlib.Path(quivercy.__file__).parent / "corpus"


def corpus_algebra(stem):
    return load_algebra_file(str(CORPUS / (stem + ".alg"))).build(name=stem)


# -- the dense reader of module actions --------------------------------


def _laid_out(M, i):
    """The blocks of basis element i placed at their offsets in a dense
    matrix, summed entry by entry so that overlapping blocks would show."""
    b = M.alg.basis[i]
    m = Mat.zero(M.dims[b.tgt], M.dims[b.src])
    for r0, c0, blk in M.blocks().get(i, ()):
        for x in range(blk.rows):
            for y in range(blk.cols):
                m.a[r0 + x][c0 + y] += blk.a[x][y]
    return m


def dense_action(M):
    """M's stored actions as dense matrices."""
    return {i: _laid_out(M, i) for i in M.blocks()}


def dense_act_mat(M, i):
    """The dense action of basis element i on M: the identity at an
    idempotent and zero where nothing is stored."""
    b = M.alg.basis[i]
    return Mat.identity(M.dims[b.src]) if b.degree == 0 else _laid_out(M, i)


def dense_module(alg, dims, act, name="M"):
    """The module with the dense actions act, each stored as one block
    when it is nonzero."""
    return Module(alg, dims, {i: [(0, 0, m)] for i, m in act.items() if not m.is_zero()},
                  name=name)


def assert_block_rule(M):
    """The blocks of each basis element are nonzero, of positive degree,
    inside its shape and block-diagonal: their row ranges are disjoint,
    and so are their column ranges."""
    for i, triples in M.blocks().items():
        b = M.alg.basis[i]
        assert b.degree and triples, (M, i)
        rows, cols = set(), set()
        for r0, c0, blk in triples:
            assert not blk.is_zero() and len(blk.a) == blk.rows, (M, i)
            assert all(len(row) == blk.cols for row in blk.a), (M, i)
            rs, cs = set(range(r0, r0 + blk.rows)), set(range(c0, c0 + blk.cols))
            assert not rs & rows and not cs & cols, (M, i)
            rows |= rs
            cols |= cs
        assert rows <= set(range(M.dims[b.tgt])) and cols <= set(range(M.dims[b.src])), (M, i)


# -- the dense reader of bimodule actions ------------------------------


def dense_bimodule_action(X, key, left=True):
    """One action of X as a dense matrix: with left, the left-algebra
    element i on the column at v, key (i, v), X[(src_i, v)] ->
    X[(tgt_i, v)]; else the right-algebra element j on the row at u, key
    (u, j), X[(u, tgt_j)] -> X[(u, src_j)].  The stored block, the identity
    for an idempotent, else zero."""
    if left:
        i, v = key
        b = X.left_alg.basis[i]
        blk = X.lact_by_col.get(v, {}).get(i)
        shape = (X.dims[(b.tgt, v)], X.dims[(b.src, v)])
    else:
        u, j = key
        b = X.right_alg.basis[j]
        blk = X.ract_by_elt.get(j, {}).get(u)
        shape = (X.dims[(u, b.src)], X.dims[(u, b.tgt)])
    if blk is not None:
        return blk
    return Mat.zero(*shape) if b.degree else Mat.identity(shape[0])


def assert_bimodule_store(X):
    """X keeps only nonzero dimensions and the nonzero blocks of elements
    of positive degree, each of the shape of its spaces, with each column
    of lact_by_col in basis order."""
    def check(m, b, shape, where):
        assert b.degree and not m.is_zero() and (m.rows, m.cols) == shape, where
        assert len(m.a) == m.rows and all(len(r) == m.cols for r in m.a), where

    assert all(X.dims.values()), X
    for v, by_elt in X.lact_by_col.items():
        assert by_elt and list(by_elt) == sorted(by_elt), (X, v)
        for i, m in by_elt.items():
            b = X.left_alg.basis[i]
            check(m, b, (X.dims[(b.tgt, v)], X.dims[(b.src, v)]), (X, i, v))
    for j, by_row in X.ract_by_elt.items():
        assert by_row, (X, j)
        for u, m in by_row.items():
            b = X.right_alg.basis[j]
            check(m, b, (X.dims[(u, b.src)], X.dims[(u, b.tgt)]), (X, u, j))


def regular_bimodule_oracle(alg):
    """regular_bimodule by the loop over alg.mult, as it was built for a
    tensor product before it was read off the factors."""
    return _regular_from_table(alg)


def tensor_table_oracle(t):
    """The product table of a tensor product t, built as tensor_product
    built it eagerly before the table was deferred to its first read."""
    a, b, pair_index = t.tensor_info
    mult = {}
    for (i1, i2), pa in a.mult.items():
        for (j1, j2), pb in b.mult.items():
            out = {}
            for k1, c1 in pa.items():
                for k2, c2 in pb.items():
                    out[pair_index[(k1, k2)]] = c1 * c2
            mult[(pair_index[(i1, j1)], pair_index[(i2, j2)])] = out
    return mult


# -- constructions the program itself does not call ---------------------


def projective_module(alg, v, name=None):
    """P_v = (algebra) e_v, the column of the regular bimodule at v."""
    return column_sum(regular_bimodule(alg), [v], name=name or f"P[{v}]")


def hom_dim(M, N):
    return len(hom(M, N))


def all_orientations(letter, rank):
    edges = _dynkin_edges(letter, rank)
    out = []
    for mask in range(1 << len(edges)):
        orient = [(v, u) if (mask >> k) & 1 else (u, v)
                  for k, (u, v) in enumerate(edges)]
        out.append(DynkinQuiver(letter, rank, orient))
    return out


def is_omega_stable_orientation(dq):
    """True when the diagram involution maps the arrow set to itself."""
    arrows = {(u, v) for u, v in dq.orientation}
    return all((dq.omega[u], dq.omega[v]) in arrows for u, v in arrows)


def classify_homogeneous_dynkin(ell):
    """Diagram types whose omega-stable orientations are ell-homogeneous."""
    if ell < 2:
        raise InvalidSpec("the classification starts at ell = 2")
    out = [("A", 2 * ell - 1), ("D", ell + 1)]
    if ell == 6:
        out.append(("E", 6))
    elif ell == 9:
        out.append(("E", 7))
    elif ell == 15:
        out.append(("E", 8))
    return out


def socle_vertices(M):
    """Dimension of the socle of M at each vertex: the vectors there that
    every radical basis element kills."""
    act = dense_action(M)
    out = {}
    for v in M.alg.vertices:
        rows = []
        for g in M.alg.radical_indices():
            if M.alg.basis[g].src == v and g in act:
                rows.extend(act[g].a)
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
            blk = X.lact_by_col.get(u, {}).get(i)
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
    act = dense_action(M)
    rad = {v: [] for v in alg.vertices}
    for g in alg.radical_indices():
        if g in act:
            rad[alg.basis[g].tgt].extend(c for c in act[g].columns() if any(c))
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
    dims, P_act, offs = column_sum_oracle(R, verts)
    mats = {}
    for w in alg.vertices:
        m = Mat.zero(M.dims[w], dims[w])
        for r, (v, j) in enumerate(zip(verts, lifts)):
            for c, bidx in enumerate(R.basis_indices.get((w, v), ()), offs[(r, w)]):
                if alg.basis[bidx].degree == 0:
                    m.a[j][c] = 1
                elif bidx in act:
                    for row, act_row in zip(m.a, act[bidx].a):
                        row[c] = act_row[j]
        mats[w] = m
    return verts, dims, P_act, offs, mats, lifts


def _resolution_steps_oracle(M, max_len):
    """The minimal projective resolution of M one term at a time: yields
    (P_k, images, K_k) for k = 0, 1, ...  Generator s of P_k goes to
    images[s]: for k = 0 its lift (`projective_cover`), else a vector of
    P_(k-1) at its vertex, a kernel vector.  K_k is the kernel of P_k ->
    P_(k-1) (-> M).  The steps end at the first zero kernel, or at
    P_max_len."""
    P, cur, images = projective_cover(M)
    k = 0
    while True:
        K, cols, _ = kernel(cur)
        yield P, images, K
        if K.total_dim == 0 or k >= max_len:
            return
        P, cur, lifts = projective_cover(K)
        images = [cols[v][j] for v, j in zip(P.verts, lifts)]
        k += 1


def min_proj_resolution_oracle(M, max_len=None, strict=False):
    """homology.min_proj_resolution as it was before it became the
    one-owner case of `split_resolution`: each differential assembled by
    `images_to_eltmat` from one resolution step.  It carries its length
    and whether it is complete: False when max_len stopped it at a
    nonzero kernel, which raises CapExceeded instead when strict."""
    alg = M.alg
    if max_len is None:
        max_len = default_cap(alg)
    terms, diffs = {}, {}
    for k, (Q, images, K) in enumerate(_resolution_steps_oracle(M, max_len)):
        terms[-k] = Q.verts
        if k:
            em = diffs[-k] = images_to_eltmat(Q.verts, P, images)
            assert eltmat_entries_in_radical(alg, em), "resolution differential not minimal"
        P = Q
    if K.total_dim and strict:
        raise CapExceeded(f"projective resolution of {M.name} exceeds {max_len}")
    res = PerfComplex(alg, terms, diffs)
    res.complete, res.length = not K.total_dim, k
    return res


def walk_tau_orbit_oracle(alg, i, n, cap):
    """The tau_n-orbit X_0 = I_i, X_1 = tau_n X_0, ... of the injective at
    i walked alone, as (stages, v, reason), or None past cap stages: the
    per-orbit walk that `ar.walk_orbits` replaced by one walk of every
    orbit in lockstep.  Each stage is resolved on its own
    (`min_proj_resolution_oracle`), nu X = DA (x)_A P_X is built on that
    resolution, and both Ext^k(X, A) = D H^{-k}(nu X), k < n, and tau_n X
    = H^{-n}(nu X) are read off it.  The walk ends with v when the last
    stage is P_v, and with v None and a reason when a stage has Ext^k != 0
    for some k < n or tau_n kills it.  Stage 0 is a new column of DA, so
    nothing kept on the algebra is read."""
    DA = dual_regular_bimodule(alg)
    X = column_sum(DA, [i], name=f"I[{i}]")
    orbit = [X]
    while True:
        v = match_projective_oracle(X)
        if v is not None:
            return orbit, v, None
        res = min_proj_resolution_oracle(X, max(n + 1, default_cap(alg)))
        nu = tensor_complex(DA, res, range(-n - 1, 1))
        bad = next((k for k in range(n) if nu.cohomology_dim(-k)), None)
        if bad is not None:
            return orbit, None, (f"orbit of injective at {i}: stage {len(orbit)-1} has "
                                 f"Ext^{bad}(X, reg) != 0")
        X = nu.cohomology(-n)
        if X.total_dim == 0:
            return orbit, None, f"orbit of injective at {i} dies before a projective"
        if len(orbit) >= cap:
            return None
        orbit.append(X)


def solve_oracle(A, b):
    """Some x with A * x = b, or None if inconsistent: the rref of the
    augmented matrix (the retired `Mat.solve`)."""
    aug = Mat(A.rows, A.cols + 1, [r[:] + [y] for r, y in zip(A.a, b)])
    R, pivots = aug.rref()
    if A.cols in pivots:
        return None
    x = [0] * A.cols
    for i, pc in enumerate(pivots):
        x[pc] = R.a[i][A.cols]
    return x


def auslander_algebra_oracle(alg, summands):
    """ar.auslander_algebra as it was before it read coordinates at unit
    coordinates: on the diagonal, each `hom` basis element less its
    scalar part, kept by `independent_subset`, and every composite's
    coordinates solved for in its block (`solve_oracle`)."""
    nsum = len(summands)
    homs = {(s, t): hom(summands[s], summands[t]) for s in range(nsum) for t in range(nsum)}

    def flatten(mor):
        return [x for v in alg.vertices for row in mor.mats[v].a for x in row]

    basis_mors, basis_meta = [], []
    for s in range(nsum):
        basis_mors.append(Morphism(summands[s], summands[s],
                                   {v: Mat.identity(summands[s].dims[v]) for v in alg.vertices}))
        basis_meta.append(BasisElt(f"e[{s}]", s, s, 0))
    for s in range(nsum):
        for t in range(nsum):
            if s == t:
                rad = []
                for h in homs[(s, t)]:
                    trace = sum(m.a[k][k] for m in h.mats.values() for k in range(m.rows))
                    rad.append(h.add(basis_mors[s].scale(-trace * inv(summands[s].total_dim))))
                for idx in independent_subset([], [flatten(h) for h in rad]):
                    basis_mors.append(rad[idx])
                    basis_meta.append(BasisElt(f"r[{s},{t}]{idx}", s, t, 1))
            else:
                for idx, h in enumerate(homs[(s, t)]):
                    basis_mors.append(h)
                    basis_meta.append(BasisElt(f"h[{s},{t}]{idx}", s, t, 1))
    blocks = {}
    for idx, bm in enumerate(basis_meta):
        blocks.setdefault((bm.src, bm.tgt), []).append(idx)
    block_mats = {key: Mat.from_rows([flatten(basis_mors[i]) for i in idxs]).transpose()
                  for key, idxs in blocks.items()}
    mult = {}
    for x, hx in enumerate(basis_mors):
        for y, hy in enumerate(basis_mors):
            if basis_meta[x].src != basis_meta[y].tgt:
                continue
            vec = flatten(hx.compose(hy))
            if not any(vec):
                continue
            key = (basis_meta[y].src, basis_meta[x].tgt)
            sol = solve_oracle(block_mats[key], vec)
            assert sol is not None, "endomorphism composition leaves the basis span"
            out = {blocks[key][k]: c for k, c in enumerate(sol) if c}
            if out:
                mult[(x, y)] = out
    gamma = Algebra(list(range(nsum)), basis_meta, mult, name=f"End({alg.name})")
    gamma.check_associativity()
    return gamma


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
    for i, m in dense_action(N).items():
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


def match_projective_oracle(M):
    """homology._match_projective as it was before it compared dimension
    vectors first: the top of M, then the dimensions of the projective at
    its vertex."""
    top = top_dim_vector(M)
    if sum(top) != 1:
        return None
    alg = M.alg
    v = alg.vertices[top.index(1)]
    R = regular_bimodule(alg)
    return v if all(R.dims[(w, v)] == M.dims[w] for w in alg.vertices) else None


def is_regular_module_oracle(M):
    """homology._is_regular_module as it was while is_shifted_regular read
    the cohomology: M is the regular module iff it has its dimension
    vector and a top of one copy of every simple, the test of
    `_match_projective`."""
    return (M.dim_vector() == regular_module(M.alg).dim_vector()
            and all(t == 1 for t in top_dim_vector(M)))


def is_shifted_regular_oracle(P: PerfComplex):
    """homology.is_shifted_regular as it was before it read the minimal
    complex: m when the cohomology is one regular module in degree -m, for
    any complex of projectives, minimal or not."""
    table = P.cohomology_table()
    if len(table) != 1:
        return None
    (deg, H), = table.items()
    return -deg if is_regular_module_oracle(H) else None


def recover_presentation(alg: Algebra, max_degree=None):
    """Quiver-and-relations presentation of a based algebra, as
    ar.recover_presentation found it before `quivercy auslander` read its
    counts off the simples' resolutions: arrows are a basis of rad/rad^2,
    relations are a minimal generating set of the kernel of the
    path-algebra surjection, found degree by degree."""
    gens = alg.generators()
    arrows = [(f"g{k}", alg.basis[g].src, alg.basis[g].tgt) for k, g in enumerate(gens)]
    if max_degree is None:
        max_degree = alg.dim + 1
    # words[d]: list of (tuple of generator positions, image element)
    words = {1: [((k,), {g: 1}) for k, g in enumerate(gens)]}
    # relations per degree: coefficient vectors over the degree-d words
    relations = {}
    minimal = []
    for d in range(2, max_degree + 1):
        cur = []
        parents = {}  # word -> (prefix word, appended generator)
        for w, img in words[d - 1]:
            last = gens[w[-1]]
            for k, g in enumerate(gens):
                if alg.basis[g].src != alg.basis[last].tgt:
                    continue
                new_img = alg.mul_elt({g: 1}, img)
                cur.append((w + (k,), new_img))
                parents[w + (k,)] = (w, k)
        if not cur:
            break
        words[d] = cur
        index = {w: i for i, (w, _) in enumerate(cur)}
        rows = []
        for w, img in cur:
            vec = [0] * alg.dim
            for i, c in img.items():
                vec[i] = c
            rows.append(vec)
        mat = Mat.from_rows(rows, ncols=alg.dim).transpose()
        ker = mat.kernel_basis()
        if not ker:
            continue
        # consequences of lower relations: left and right extensions
        cons = []
        for dprime, rels in relations.items():
            if dprime >= d:
                continue
            for rel in rels:
                # rel is a vector over words of degree dprime; extend by
                # any word on either side to reach degree d
                for wext, _ in words.get(d - dprime, []):
                    left = [0] * len(cur)
                    right = [0] * len(cur)
                    okl = okr = False
                    for wi, c in enumerate(rel):
                        if not c:
                            continue
                        wr = words[dprime][wi][0]
                        cat = wr + wext
                        if cat in index:
                            left[index[cat]] = c
                            okl = True
                        cat2 = wext + wr
                        if cat2 in index:
                            right[index[cat2]] = c
                            okr = True
                    if okl:
                        cons.append(left)
                    if okr:
                        cons.append(right)
        relations[d] = ker
        for vec in (ker[i] for i in independent_subset(cons, ker)):
            terms = [(c, tuple(f"g{k}" for k in cur[wi][0]))
                     for wi, c in enumerate(vec) if c]
            minimal.append({"degree": d, "terms": terms})
    return {"arrows": arrows, "relations": minimal}


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
                    # M[(u, tgt_a)] -> M[(u, src_a)]
                    ra = dense_bimodule_action(M, (u, ai), left=False)
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
                    # rows M[(tgt ai, w2)], cols M[(src ai, w2)]
                    la[w2] = dense_bimodule_action(M, (ai, w2))
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
    res = env_resolution(alg, dual_regular_bimodule, max(n + 1, default_cap(E)))
    if n > res.length:
        return Bimodule(alg, alg, {(u, v): 0 for u in alg.vertices for v in alg.vertices},
                        {}, {}, name="T")
    reg_bimod = regular_bimodule(alg)
    lays = {}
    for k in (n - 1, n, n + 1):
        if 0 <= k <= res.length:
            lays[k] = _HomLayout(alg, res.terms.get(-k, []), reg_bimod)
    Hn = lays[n].bimodule()
    Hn_env = bimodule_to_env_module(Hn)
    f_out = None
    if n + 1 <= res.length:
        mats = _hom_coboundary(alg, E, lays[n], lays[n + 1], res.diffs[-n - 1])
        tgt_env = bimodule_to_env_module(lays[n + 1].bimodule())
        f_out = Morphism(Hn_env, tgt_env, mats)
    f_in = None
    if n >= 1:
        mats = _hom_coboundary(alg, E, lays[n - 1], lays[n], res.diffs[-n])
        src_env = bimodule_to_env_module(lays[n - 1].bimodule())
        f_in = Morphism(src_env, Hn_env, mats)
    H = homology_module(Hn_env, f_in, f_out, name="T")
    out = env_module_to_bimodule(H, alg)
    out.name = "T"
    return out


# -- the untwisted check as it was -------------------------------------


def bimodule_to_env_module_oracle(X: Bimodule):
    """module.bimodule_to_env_module as it was before it visited only the
    stored blocks: i (x) j^op acts by the dense right action of j on the
    row at tgt_i times the dense left action of i on the column at tgt_j,
    for every pair of basis elements."""
    A = X.left_alg
    E = enveloping(A)
    _, _, pair_index = E.tensor_info
    dims = {x: X.dims[x] for x in E.vertices}
    act = {}
    for (i, j), k in pair_index.items():
        bi = A.basis[i]
        if bi.degree + A.basis[j].degree == 0:
            continue
        m = (dense_bimodule_action(X, (bi.tgt, j), left=False)
             * dense_bimodule_action(X, (i, A.basis[j].tgt)))
        if not m.is_zero():
            act[k] = m
    return dense_module(E, dims, act, name=X.name)


def tensor_complex_over_base(C: PerfComplex, D: PerfComplex, alg, E):
    """Tensor product over the base algebra of two complexes of
    enveloping-projective bimodules, again based in such bimodules, in
    coordinates: the untwisted check's tensor powers before they were
    Nakayama powers of the enveloping algebra.

    The projective at the vertex pair (u, v) tensored with the one at
    (u2, v2) splits into one copy of the projective at (u, v2) for every
    algebra basis element from u2 to v.
    """
    a, aop, pair_index = E.tensor_info
    rev = {k: ij for ij, k in pair_index.items()}
    idem = alg.idem
    mid = {}
    for u in alg.vertices:
        for v in alg.vertices:
            mid[(v, u)] = [i for i, b in enumerate(alg.basis)
                           if b.tgt == v and b.src == u]
    # summand lists per total degree: (p, r, s, middle basis index)
    terms = {}
    layout = {}
    pos = {}
    for p, ct in C.terms.items():
        for q, dt in D.terms.items():
            k = p + q
            for r, (u, v) in enumerate(ct):
                for s, (u2, v2) in enumerate(dt):
                    for bidx in mid[(v, u2)]:
                        terms.setdefault(k, []).append((u, v2))
                        layout.setdefault(k, []).append((p, r, s, bidx))
    for k, lst in layout.items():
        for c, ent in enumerate(lst):
            pos[(k, ent)] = c

    def add_elt(entry, eidx, coeff):
        cur = entry.get(eidx, 0) + coeff
        if cur:
            entry[eidx] = cur
        elif eidx in entry:
            del entry[eidx]

    diffs = {}
    for k in terms:
        if k + 1 not in terms:
            continue
        d = [[{} for _ in layout[k]] for _ in layout[k + 1]]
        for col, (p, r, s, bidx) in enumerate(layout[k]):
            q = k - p
            b = alg.basis[bidx]
            # first-factor differential, degree p -> p+1
            em = C.diffs.get(p)
            if em is not None:
                for r2 in range(len(em)):
                    elt = em[r2][r]
                    if not elt:
                        continue
                    for eidx, cc in elt.items():
                        ii, jj = rev[eidx]
                        prod = alg.mul(jj, bidx)  # j * b
                        for b2, cb in prod.items():
                            row = pos.get((k + 1, (p + 1, r2, s, b2)))
                            if row is None:
                                continue
                            out_eidx = pair_index[(ii, idem[D.terms[q][s][1]])]
                            add_elt(d[row][col], out_eidx, cc * cb)
            # second-factor differential, degree q -> q+1, sign (-1)^p
            em2 = D.diffs.get(q)
            if em2 is not None:
                sign = 1 if p % 2 == 0 else -1
                for s2 in range(len(em2)):
                    elt = em2[s2][s]
                    if not elt:
                        continue
                    for eidx, cc in elt.items():
                        ii, jj = rev[eidx]
                        prod = alg.mul(bidx, ii)  # b * i
                        for b2, cb in prod.items():
                            row = pos.get((k + 1, (p, r, s2, b2)))
                            if row is None:
                                continue
                            u = C.terms[p][r][0]
                            out_eidx = pair_index[(idem[u], jj)]
                            add_elt(d[row][col], out_eidx, sign * cc * cb)
        diffs[k] = d
    return PerfComplex(E, terms, diffs)


def k0_powers_oracle(alg, ell_max):
    """[(N, eps), (N^2, eps), ..., (N^ell_max, eps)] for the matrix N =
    cy.k0_nakayama(alg), eps the sign s with N^ell = s * (permutation
    matrix) or None, by one loop of plain integer products that keeps
    nothing on the algebra."""
    N = k0_nakayama(alg)
    out, P = [], N
    for _ in range(ell_max):
        signs = {x for row in P for x in row if x}
        signed = (all(sum(1 for x in row if x) == 1 for row in P)
                  and all(sum(1 for x in col if x) == 1 for col in zip(*P))
                  and len(signs) == 1 and signs <= {1, -1})
        out.append((P, signs.pop() if signed else None))
        P = [[sum(x * y for x, y in zip(row, col)) for col in zip(*N)] for row in P]
    return out


def check_untwisted_cy_oracle(alg, ell, m, cap=None):
    """cy.check_untwisted_cy as it was before it took Nakayama powers of
    the enveloping algebra: the K_0 gate, then DA^(x ell) as ell - 1
    minimized tensor products over the algebra with the E-resolution P0
    of DA, compared with the regular bimodule."""
    if ell < 1:
        raise ValueError("ell must be positive")
    global_dimension(alg, cap)
    power, eps = k0_powers_oracle(alg, ell)[-1]
    if eps != (-1) ** m or not all(row[i] for i, row in enumerate(power)):
        return False
    E = enveloping(alg)
    P0 = C = dual_regular_perf(alg)
    for _ in range(ell - 1):
        C = minimize(tensor_complex_over_base(P0, C, alg, E))
    table = C.cohomology_table()
    if set(table) != {-m}:
        return False
    H = table[-m]
    reg = env_module(alg, regular_bimodule)
    if H.dim_vector() != reg.dim_vector():
        return False
    return bool(is_isomorphic(H, reg))


def nakayama_powers_oracle(alg, ell_max, cap=None):
    """[nu A, nu^2 A, ..., nu^ell_max A] by one loop of `nakayama` from the
    stalk complex of the regular module, keeping nothing on the algebra:
    the loop that cy.check_twisted_cy ran per call before the powers
    were kept per algebra and cap."""
    C = stalk_regular(alg)
    out = []
    for _ in range(ell_max):
        C = nakayama(C, cap=cap)
        out.append(C)
    return out


def check_twisted_cy_oracle(alg, ell, m, cap=None):
    """cy.check_twisted_cy as it was before it read the per-algebra
    tower: the K_0 gate, then ell fresh Nakayama powers."""
    if ell < 1:
        raise ValueError("ell must be positive")
    global_dimension(alg, cap)
    if k0_powers_oracle(alg, ell)[-1][1] != (-1) ** m:
        return False
    return is_shifted_regular(nakayama_powers_oracle(alg, ell, cap)[-1]) == m


def find_twisted_cy_oracle(alg, ell_max=24, m_max=24, cap=None):
    """cy.find_twisted_cy as it was before it answered from the least
    certificate: the orbit certificate when it lies within ell_max and
    m_max, else the tower tests every K_0 candidate for an m in [0,
    m_max]; below an orbit certificate the tower tests the candidates
    under its ell."""
    n = global_dimension(alg, cap)
    candidates = list(k0_candidates(alg, ell_max))
    if not candidates:
        return None
    report = NrfReport(alg, n)
    cert = certificate_from_orbits(report) if walk_orbits(report, candidates[-1][0]) else None
    if cert is None or cert.ell > ell_max or cert.m > m_max:
        return _tower_search_oracle(alg, candidates, m_max, cap)
    assert (cert.ell, (-1) ** cert.m) in candidates
    below = [(ell, eps) for ell, eps in candidates if ell < cert.ell]
    return _tower_search_oracle(alg, below, m_max, cap) or cert


def _tower_search_oracle(alg, candidates, m_max, cap):
    for ell, eps in candidates:
        m = is_shifted_regular(nakayama_power(alg, ell, cap))
        if m is None:
            continue
        assert (-1) ** m == eps
        if 0 <= m <= m_max:
            return CyCertificate(ell, m, twisted=True, evidence={"route": TOWER_ROUTE})
    return None


def tensor_bimod_bimod_oracle(T: Bimodule, S: Bimodule, name=None):
    """module.tensor_bimod_bimod as it was before it read only stored
    blocks: the relations from the dense actions of every generator, and
    each action filled into a dense matrix of the big space, then
    projected as proj * (m * sect)."""
    A, B, C = T.left_alg, T.right_alg, S.right_alg
    offs = {}
    wdims = {}
    for u in A.vertices:
        for w in C.vertices:
            n = 0
            for v in B.vertices:
                offs[(u, v, w)] = n
                n += T.dims[(u, v)] * S.dims[(v, w)]
            wdims[(u, w)] = n
    rel_rows = {k: [] for k in wdims}
    for g in B.generators():
        bg = B.basis[g]
        s, t = bg.src, bg.tgt
        lgs = {w: dense_bimodule_action(S, (g, w)) for w in C.vertices}  # S[(s,w)] -> S[(t,w)]
        for u in A.vertices:
            rg = dense_bimodule_action(T, (u, g), left=False)  # T[(u,t)] -> T[(u,s)]
            for w, lg in lgs.items():
                dts = T.dims[(u, t)]
                dss = S.dims[(s, w)]
                for a in range(dts):
                    for b in range(dss):
                        row = [0] * wdims[(u, w)]
                        for c in range(T.dims[(u, s)]):
                            if rg.a[c][a]:
                                row[offs[(u, s, w)] + c * dss + b] += rg.a[c][a]
                        for d in range(S.dims[(t, w)]):
                            if lg.a[d][b]:
                                row[offs[(u, t, w)] + a * S.dims[(t, w)] + d] -= lg.a[d][b]
                        if any(row):
                            rel_rows[(u, w)].append(row)
    ps = {k: _quotient_maps(rel_rows[k], n) for k, n in wdims.items()}
    dims = {k: ps[k][0].rows for k in wdims}
    lact, ract = {}, {}
    for i, bi in enumerate(A.basis):
        if bi.degree == 0:
            continue
        for w in C.vertices:
            m = Mat.zero(wdims[(bi.tgt, w)], wdims[(bi.src, w)])
            nonzero = False
            for v in B.vertices:
                la = T.lact_by_col.get(v, {}).get(i)
                if la is None:
                    continue
                nonzero = True
                dm = S.dims[(v, w)]
                r0, c0 = offs[(bi.tgt, v, w)], offs[(bi.src, v, w)]
                for r in range(la.rows):
                    for c in range(la.cols):
                        x = la.a[r][c]
                        if x:
                            for k in range(dm):
                                m.a[r0 + r * dm + k][c0 + c * dm + k] = x
            if nonzero:
                res = ps[(bi.tgt, w)][0] * (m * ps[(bi.src, w)][1])
                if not res.is_zero():
                    lact[(i, w)] = res
    for j, bj in enumerate(C.basis):
        if bj.degree == 0:
            continue
        for u in A.vertices:
            # right action by bj on the S factor: S[(v,tgt)] -> S[(v,src)]
            m = Mat.zero(wdims[(u, bj.src)], wdims[(u, bj.tgt)])
            nonzero = False
            for v in B.vertices:
                ra = S.ract_by_elt.get(j, {}).get(v)
                if ra is None:
                    continue
                nonzero = True
                dt = T.dims[(u, v)]
                dcols = S.dims[(v, bj.tgt)]
                drows = S.dims[(v, bj.src)]
                r0, c0 = offs[(u, v, bj.src)], offs[(u, v, bj.tgt)]
                for a in range(dt):
                    for r in range(drows):
                        for c in range(dcols):
                            x = ra.a[r][c]
                            if x:
                                m.a[r0 + a * drows + r][c0 + a * dcols + c] = x
            if nonzero:
                res = ps[(u, bj.src)][0] * (m * ps[(u, bj.tgt)][1])
                if not res.is_zero():
                    ract[(u, j)] = res
    out = Bimodule(A, C, dims, lact, ract, name=name or f"{T.name}(x){S.name}")
    out.tensor_data = {"offsets": offs, "proj": {k: ps[k][0] for k in wdims},
                       "sect": {k: ps[k][1] for k in wdims}, "big_dims": wdims}
    return out


def tensor_algebra_oracle(alg: Algebra, T: Bimodule, cap=24, name=None):
    """ar.tensor_algebra as it was before it multiplied by associativity:
    every coordinate of T^k expanded into pure-tensor chains, multiplied
    onto the left factor one T coordinate at a time.  It raises
    NotNilpotent once T^cap is nonzero, a degree early."""
    powers = [None, T]  # powers[k] = T^(x)k for k >= 1
    tensor_data = [None, None]
    while powers[-1].total_dim:
        if len(powers) - 1 >= cap:
            raise NotNilpotent(f"tensor powers persist past {cap}")
        nxt = tensor_bimod_bimod(powers[-1], T)
        powers.append(nxt)
        tensor_data.append(nxt.tensor_data)
    powers.pop()  # drop the zero power at the end
    deg_max = len(powers) - 1

    # basis: algebra basis in degree 0, then coordinates of each T^k
    basis = []
    origin = []  # ("alg", idx) or ("t", k, (u,v), coord)
    for i, b in enumerate(alg.basis):
        basis.append(BasisElt(b.name, b.src, b.tgt, b.degree))
        origin.append(("alg", i))
    for k in range(1, deg_max + 1):
        Tk = powers[k]
        for (u, v) in sorted(Tk.dims, key=lambda p: (str(p[0]), str(p[1]))):
            for c in range(Tk.dims[(u, v)]):
                basis.append(BasisElt(f"t{k}[{u},{v}]{c}", v, u, 64 * k + 1))
                origin.append(("t", k, (u, v), c))
    index_of = {}
    for idx, o in enumerate(origin):
        index_of[o] = idx

    # pure-tensor expansions of every T^k coordinate vector
    expansions = [None, {}]
    for (u, v), d in T.dims.items():
        for c in range(d):
            expansions[1][((u, v), c)] = [(1, [((u, v), c)])]
    for k in range(2, deg_max + 1):
        data = tensor_data[k]
        exp = {}
        Tk = powers[k]
        for (u, w), d in Tk.dims.items():
            sect = data["sect"][(u, w)]
            for c in range(d):
                big = sect.column(c)
                terms = []
                for (uu, v, ww), off in data["offsets"].items():
                    if uu != u or ww != w:
                        continue
                    da = powers[k - 1].dims[(u, v)]
                    db = T.dims[(v, w)]
                    for a_i in range(da):
                        for b_i in range(db):
                            val = big[off + a_i * db + b_i]
                            if val:
                                for c0, chain in expansions[k - 1][((u, v), a_i)]:
                                    terms.append((c0 * val, chain + [((v, w), b_i)]))
                exp[((u, w), c)] = terms
        expansions.append(exp)

    def mul_step(k, pair, vec, tpair, tcoord):
        """Multiply a vector in T^k at `pair` by a single T coordinate on
        the right; returns (new pair, vector in T^{k+1}) or None."""
        u, v = pair
        v2, w = tpair
        if v != v2 or k + 1 > deg_max:
            return None
        data = tensor_data[k + 1]
        big_dim = data["big_dims"][(u, w)]
        big = [0] * big_dim
        off = data["offsets"][(u, v, w)]
        db = T.dims[(v, w)]
        for a_i, val in enumerate(vec):
            if val:
                big[off + a_i * db + tcoord] = val
        proj = data["proj"][(u, w)]
        return (u, w), proj.apply(big)

    def act_on_alg_side(k, pair, vec, side, j):
        """Multiply a T^k vector by a degree-0 basis element on the given
        side ('l' for left action, 'r' for right)."""
        Tk = powers[k]
        u, v = pair
        bj = alg.basis[j]
        if side == "l":
            if bj.src != u:
                return None
            m = dense_bimodule_action(Tk, (j, v))
            return (bj.tgt, v), m.apply(vec)
        if bj.tgt != v:
            return None
        m = dense_bimodule_action(Tk, (u, j), left=False)
        return (u, bj.src), m.apply(vec)

    mult = {}
    for x in range(len(basis)):
        ox = origin[x]
        for y in range(len(basis)):
            oy = origin[y]
            if basis[x].src != basis[y].tgt:
                continue
            out = {}
            if ox[0] == "alg" and oy[0] == "alg":
                for k2, c in alg.mul(ox[1], oy[1]).items():
                    out[k2] = c
            elif ox[0] != oy[0]:
                # a degree-0 element times a T^k coordinate, on either side
                t, side, j = (oy, "l", ox[1]) if ox[0] == "alg" else (ox, "r", oy[1])
                _, k, pair, coord = t
                vec = [1 if c == coord else 0 for c in range(powers[k].dims[pair])]
                resu = act_on_alg_side(k, pair, vec, side, j)
                if resu:
                    npair, nvec = resu
                    for c, val in enumerate(nvec):
                        if val:
                            out[index_of[("t", k, npair, c)]] = val
            elif ox[1] + oy[1] <= deg_max:
                _, kx, pairx, coordx = ox
                _, ky, pairy, coordy = oy
                for c0, chain in expansions[ky][(pairy, coordy)]:
                    pair = pairx
                    k = kx
                    vec = [1 if c == coordx else 0
                           for c in range(powers[kx].dims[pairx])]
                    ok = True
                    for (tp, tc) in chain:
                        resu = mul_step(k, pair, vec, tp, tc)
                        if resu is None:
                            ok = False
                            break
                        pair, vec = resu
                        k += 1
                    if ok:
                        for c, val in enumerate(vec):
                            v2 = c0 * val
                            if v2:
                                idx = index_of[("t", k, pair, c)]
                                cur = out.get(idx, 0) + v2
                                if cur:
                                    out[idx] = cur
                                elif idx in out:
                                    del out[idx]
            out = {k2: c for k2, c in out.items() if c}
            if out:
                mult[(x, y)] = out

    pi = Algebra(alg.vertices, basis, mult, name=name or f"Pi({alg.name})")
    pi.degree_dims = [alg.dim] + [powers[k].total_dim for k in range(1, deg_max + 1)]
    pi.check_associativity()
    return pi


def gamma_relations(q):
    """The relations of Gamma(n, s) on q.quiver: at each vertex x, the
    steps i then j commute when both routes exist and vanish when only
    this one does."""
    vset = set(q.vertices)
    rels = []
    for x in q.vertices:
        for i in range(q.n + 1):
            xi = q.step(x, i)
            if xi not in vset:
                continue
            for j in range(q.n + 1):
                if j == i:
                    continue
                xij = q.step(xi, j)
                if xij not in vset:
                    continue
                pij = Path(q.quiver, x, [q.arrow_label(x, i), q.arrow_label(xi, j)])
                xj = q.step(x, j)
                if xj in vset:
                    if j > i:
                        pji = Path(q.quiver, x, [q.arrow_label(x, j), q.arrow_label(xj, i)])
                        rels.append(Relation([(1, pij), (-1, pji)]))
                else:
                    rels.append(Relation([(1, pij)]))
    return rels


def gamma_algebra_oracle(q):
    """constructions.gamma_algebra as it was before the closed form: the
    path algebra of q.quiver modulo `gamma_relations`, by build_algebra."""
    g = build_algebra(q.quiver, gamma_relations(q), name=f"Gamma({q.n},{q.s})")
    g.type_a = q
    return g


def cut_algebra_oracle(q, c):
    """constructions.cut_algebra as it was before the closed form:
    build_algebra on the subquiver without the arrows of the cut c, with
    the terms of `gamma_relations` that avoid c."""
    sub = Quiver(q.vertices, [(a.label, a.source, a.target)
                              for a in q.quiver.arrows if a.label not in c])
    rels = []
    for r in gamma_relations(q):
        kept = [(coeff, Path(sub, p.start, p.labels)) for coeff, p in r.terms
                if not any(lab in c for lab in p.labels)]
        if kept:
            rels.append(Relation(kept))
    lam = build_algebra(sub, rels, name=f"Lambda({q.n},{q.s})")
    lam.type_a = q
    lam.cut = frozenset(c)
    return lam


# -- the splitter by factorization over Q, and the flipped bimodule -----


def _char_poly_factors(fm: Morphism):
    """Irreducible factors over Q, as (coeff list low-to-high, mult), of
    the characteristic polynomial of the endomorphism fm: the product of
    those of its vertex blocks, by sympy."""
    import sympy

    x = sympy.Symbol("x")
    p = sympy.Integer(1)
    for m in fm.mats.values():
        if m.rows:
            block = sympy.Matrix(m.rows, m.cols, lambda r, c: sympy.Rational(str(m.a[r][c])))
            p *= block.charpoly(x).as_expr()
    _, facs = sympy.Poly(p, x).factor_list()
    return [([sympy.Rational(c) for c in reversed(sympy.Poly(f, x).all_coeffs())], k)
            for f, k in facs]


def _poly_of_morphism(fm: Morphism, coeffs):
    """p(f) as a Morphism, p given low-to-high over sympy Rationals."""
    import sympy

    mats = {}
    for v in fm.src.alg.vertices:
        m = fm.mats[v]
        acc = Mat.zero(m.rows, m.rows)
        pw = Mat.identity(m.rows)
        for c in coeffs:
            if c:
                acc = acc + pw.scale(rational(int(sympy.numer(c)), int(sympy.denom(c))))
            pw = pw * m
        mats[v] = acc
    return Morphism(fm.src, fm.src, mats)


def decompose_oracle(M: Module):
    """`module.decompose` by sympy's factorization over Q of each
    candidate's characteristic polynomial, whose irreducible factors are
    those of the minimal polynomial: one piece ker p(f)^mult, the primary
    component, per irreducible factor p.  It splits wherever there are
    two factors, rational roots or not."""
    import sympy

    if M.total_dim == 0:
        return [], True
    E = hom(M, M)
    if _trace_rank(E, E) == 1:
        return [M], True
    for fm in E + [_weighted_sum(E)]:
        facs = _char_poly_factors(fm)
        if len(facs) < 2:
            continue
        summands = []
        certified = True
        for coeffs, mult in facs:
            # power the factor enough to reach the generalized kernel
            pc = [sympy.Rational(c) for c in coeffs]
            pw = [sympy.Rational(1)]
            for _ in range(mult):
                new = [sympy.Rational(0)] * (len(pw) + len(pc) - 1)
                for i, a in enumerate(pw):
                    for j, b in enumerate(pc):
                        new[i + j] += a * b
                pw = new
            K = kernel(_poly_of_morphism(fm, pw), name=f"{M.name}~")[0]
            subs, cert = decompose_oracle(K)
            summands.extend(subs)
            if cert is not True:
                certified = cert
        return summands, certified
    return [M], UNDECIDED


def flip_bimodule(X: Bimodule, new_left, new_right, name=None):
    """View an (A, B)-bimodule as a (B^op, A^op)-bimodule: the right
    action becomes the left action and vice versa.  new_left and new_right
    must be the opposite algebras sharing basis indices with B and A."""
    dims = {(v, u): d for (u, v), d in X.dims.items()}
    lact = {(j, u): m for j, by_row in X.ract_by_elt.items() for u, m in by_row.items()}
    ract = {(v, i): m for v, by_elt in X.lact_by_col.items() for i, m in by_elt.items()}
    return Bimodule(new_left, new_right, dims, lact, ract, name=name or f"{X.name}^flip")


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
