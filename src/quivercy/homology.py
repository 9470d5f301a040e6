"""Projective covers, minimal resolutions, Ext/Tor, bounded complexes of
projectives, and the derived Nakayama functor.

Complexes of projectives are stored in "based" form: a term is a list of
vertices (one per indecomposable projective summand) and a differential is
a matrix of algebra elements.  The entry for a component P_u -> P_v is an
element with src = v and tgt = u, acting by right multiplication.  For the
composite g∘f the element of the composite is elt(f) * elt(g).
"""

from __future__ import annotations

from bisect import bisect_left
from graphlib import CycleError, TopologicalSorter

from .algebra import Algebra, opposite, per_algebra, semisimple_algebra
from .errors import CapExceeded
from .linalg import Mat
from .module import (
    Bimodule,
    ColumnSum,
    Module,
    Morphism,
    action_matrix,
    column_sum,
    direct_sum,
    dual_module,
    dual_regular_bimodule,
    env_module,
    injective_module,
    kernel,
    quotient,
    radical_columns,
    regular_bimodule,
    regular_module,
    simple_module,
    top_dim_vector,
    zero_module,
)


def default_cap(alg):
    return 4 * len(alg.vertices) + 8


@per_algebra
def _sum_info(alg, verts):
    """The direct sum of the indecomposable projectives at a tuple of
    vertices: the column sum of the regular bimodule R there.  Coordinate
    offs[(r, w)] + p of the sum at vertex w is the basis element
    R.basis_indices[(w, verts[r])][p] of summand r."""
    name = "P(" + ",".join(str(v) for v in verts) + ")"
    return column_sum(regular_bimodule(alg), verts, name=name)


# -- element matrices --------------------------------------------------


def eltmat_zero(nrows, ncols):
    return [[{} for _ in range(ncols)] for _ in range(nrows)]


def eltmat_is_zero(m):
    return all(not e for row in m for e in row)


def eltmat_compose(alg, g, f):
    """Element matrix of g∘f (f applied first), from the nonzero rows of
    each column of f, matched against each row of g."""
    out = eltmat_zero(len(g), len(f[0]) if f else 0)
    for s in range(len(out[0]) if out else 0):
        col = [(r, row[s]) for r, row in enumerate(f) if row[s]]
        for t, grow in enumerate(g):
            acc = {}
            for r, fe in col:
                ge = grow[r]
                if ge:
                    for k, c in alg.mul_elt(fe, ge).items():
                        v = acc.get(k, 0) + c
                        if v:
                            acc[k] = v
                        elif k in acc:
                            del acc[k]
            out[t][s] = acc
    return out


def _summands(S: ColumnSum):
    """{w: the summand of S holding each coordinate of S at w}, read off
    the offsets, which list the summands of each vertex in order."""
    X = S.bimodule
    out = {w: [] for w in S.alg.vertices}
    for (r, w) in S.offs:
        out[w] += [r] * X.dims[(w, S.verts[r])]
    return out


def _image_entries(verts, tgt: ColumnSum, images):
    """For each s, the nonzeros of images[s], a vector of the sum of
    projectives tgt (a `_sum_info`) at verts[s], as (summand, basis
    element, coefficient) triples, in coordinate order.  Each coordinate
    is mapped to its summand once per call (`_summands`)."""
    R, summand, out = tgt.bimodule, _summands(tgt), []
    for a, col in zip(verts, images):
        at, entries = summand[a], []
        for c, x in enumerate(col):
            if x:
                r = at[c]
                entries.append((r, R.basis_indices[(a, tgt.verts[r])][c - tgt.offs[(r, a)]], x))
        out.append(entries)
    return out


def images_to_eltmat(verts, tgt: ColumnSum, images):
    """Element matrix of the map from the sum of the projectives at verts
    to the sum of projectives tgt (a `_sum_info`) that sends generator s
    to images[s], a vector of tgt at verts[s]; it reads only the
    nonzeros of each image (`_image_entries`)."""
    m = eltmat_zero(len(tgt.verts), len(verts))
    for s, entries in enumerate(_image_entries(verts, tgt, images)):
        for r, bidx, x in entries:
            m[r][s][bidx] = x
    return m


def eltmat_entries_in_radical(alg, m):
    nv = len(alg.vertices)
    return all(all(k >= nv for k in e) for row in m for e in row)


# -- complexes ---------------------------------------------------------


class ModComplex:
    """Bounded cochain complex of modules; diffs[i] maps term i to i+1."""

    def __init__(self, alg, terms, diffs):
        self.alg = alg
        self.terms = dict(terms)
        self.diffs = dict(diffs)

    def degrees(self):
        return sorted(d for d, t in self.terms.items() if t.total_dim)

    def term(self, i):
        t = self.terms.get(i)
        if t is None:
            t = zero_module(self.alg)
        return t

    def diff(self, i):
        return self.diffs.get(i)

    def cohomology(self, i):
        return self._cohomology(i)[0]

    def _cohomology(self, i):
        """(H^i, cols, units, proj): the kernel of d^i with its basis and
        units (`kernel`), None without d^i, and its quotient by the image,
        whose kernel coordinates are its rows at the units, with the
        projection, None without d^(i-1)."""
        at, f_in, f_out = self.term(i), self.diff(i - 1), self.diff(i)
        K, cols, units = (at, None, None) if f_out is None else kernel(f_out)
        if f_in is None:
            return K, cols, units, None
        img = {v: [[m.a[u][c] for u in (units[v] if units else range(m.rows))]
                   for c in range(m.cols)] for v, m in f_in.mats.items()}
        H, proj = quotient(K, img, name="H")
        return H, cols, units, proj

    def cohomology_maps(self, i):
        """(H^i, into, onto): at each vertex, into sends H^i to cycles of
        term i, a section, and onto sends a cycle to its class, read at the
        units.  into sends e_r to the kernel vector at the first j with p
        e_j = e_r, p the projection: j = free coordinate r is one."""
        H, cols, units, proj = self._cohomology(i)
        into, onto = {}, {}
        for v, d in self.term(i).dims.items():
            ks = cols[v] if cols else [[int(j == k) for j in range(d)] for k in range(d)]
            us = units[v] if units else range(d)
            p = proj.mats[v] if proj else Mat.identity(len(ks))
            pcols = p.columns()
            picks = [ks[pcols.index([int(r == x) for x in range(p.rows)])] for r in range(p.rows)]
            into[v] = Mat.from_rows(picks, ncols=d).transpose()
            onto[v] = Mat.zero(p.rows, d)
            for row, prow in zip(onto[v].a, p.a):
                for u, x in zip(us, prow):
                    row[u] = x
        return H, into, onto

    def cohomology_dim(self, i):
        """dim H^i: the dimension of term i less the ranks of the two
        differentials at i, vertex by vertex."""
        ds = [d for d in (self.diff(i - 1), self.diff(i)) if d is not None]
        return sum(n - sum(d.mats[w].rank() for d in ds)
                   for w, n in self.term(i).dims.items() if n)


class PerfComplex:
    """Bounded complex with projective terms in based form."""

    def __init__(self, alg, terms, diffs):
        self.alg = alg
        self.terms = {i: list(t) for i, t in terms.items() if t}
        self.diffs = {i: d for i, d in diffs.items() if not eltmat_is_zero(d)}

    def width(self):
        return sum(len(t) for t in self.terms.values())

    def check(self):
        for i, d in self.diffs.items():
            nr = len(self.terms.get(i + 1, []))
            nc = len(self.terms.get(i, []))
            if len(d) != nr or (d and len(d[0]) != nc):
                raise ValueError(f"differential shape mismatch at degree {i}")
            nxt = self.diffs.get(i + 1)
            if nxt is not None and not eltmat_is_zero(eltmat_compose(self.alg, nxt, d)):
                raise ValueError(f"d^2 != 0 at degree {i}")

    def is_minimal(self):
        return all(eltmat_entries_in_radical(self.alg, d) for d in self.diffs.values())

    def to_mod_complex(self):
        """The complex as modules: the regular bimodule tensored with it."""
        return tensor_complex(regular_bimodule(self.alg), self)


def stalk_regular(alg):
    """The regular module as a one-term complex of projectives in degree 0."""
    return PerfComplex(alg, {0: list(alg.vertices)}, {})


# -- covers and resolutions -------------------------------------------


def projective_cover(M: Module, sub=None):
    """Returns (P, epi: Morphism P -> M, lifts), P the sum of projectives
    (a `_sum_info`) at the tops of M.

    Summand r sends its generator to the unit vector at coordinate
    lifts[r] of M at its vertex.  The lifts are the coordinates left free
    by the rref of the radical span, so their unit vectors span a
    complement of rad M.  sub, when given, holds at each vertex v vectors
    of M that span a submodule B of M there; they join the radical span,
    so the lifts span a complement of rad M + B, and P is a projective
    cover of M / B lifted to M.  Only the vertices where M is nonzero are
    reduced, only the stored actions of M are read and only their
    nonzeros copied, each block's columns are matched to the lifts once,
    and the sum of projectives at a vertex list is built once per
    algebra."""
    alg = M.alg
    rad = radical_columns(M)
    verts = []
    lifts = []
    for v in alg.vertices:
        d = M.dims[v]
        span = rad[v] + sub[v] if sub else rad[v]
        pivset = set(Mat.from_rows(span, ncols=d).rref()[1]) if span else ()
        free = [j for j in range(d) if j not in pivset]
        verts += [v] * len(free)
        lifts += free
    P, cover = _cover_map(M, verts, lifts)
    return P, cover, lifts


_EMPTY = Mat.zero(0, 0)


def _cover_map(M: Module, verts, lifts):
    """(P, P -> M) for P the sum of projectives at verts, in vertex order,
    summand r sending its generator to the unit vector at lifts[r], the
    lifts ascending at each vertex; one empty matrix where both are 0."""
    alg = M.alg
    first, at = {}, {}  # the summands at v from index first[v], their lifts in at[v]
    for r, (v, j) in enumerate(zip(verts, lifts)):
        first.setdefault(v, r)
        at.setdefault(v, []).append(j)
    P = _sum_info(alg, tuple(verts))
    pos = regular_bimodule(alg).basis_pos
    mats = {w: Mat.zero(M.dims[w], P.dims[w]) if M.dims[w] or P.dims[w] else _EMPTY
            for w in alg.vertices}
    # the idempotent of summand r goes to the unit vector at its lift
    for r, (v, j) in enumerate(zip(verts, lifts)):
        mats[v].a[j][P.offs[(r, v)]] = 1
    # basis element i of summand r goes to column j of i's action, in the
    # block of i whose columns hold the lift j: each block finds the lifts
    # in its columns by bisection
    for i, triples in M.blocks().items():
        b = alg.basis[i]
        js = at.get(b.src)
        if js is None:
            continue
        r1, p, rows = first[b.src], pos[i], mats[b.tgt].a
        for r0, c0, blk in triples:
            for q in range(bisect_left(js, c0), bisect_left(js, c0 + blk.cols)):
                y, c = js[q] - c0, P.offs[(r1 + q, b.tgt)] + p
                for x, brow in enumerate(blk.a, r0):
                    if brow[y]:
                        rows[x][c] = brow[y]
    return P, Morphism(P, M, mats)


def split_resolution(mods, max_len=None):
    """The minimal projective resolution ... -> P_1 -> P_0 of each of mods,
    modules over one algebra, with P_k in degree -k: one resolution of
    their direct sum (of M when mods is [M]), split by owner.  The owner
    of a coordinate of the sum is the module it comes from, of a summand
    of P_0 the owner of its lift, and of a summand of P_k, k > 0, the
    owner of its image, which lies inside that owner's summands of
    P_(k-1).  Each complex carries its length, whether it is complete
    (False when max_len stopped the resolution at a kernel vector whose
    unit coordinate lies in that owner's summands), and the lifts of its
    cover P_0 -> module: summand r of P_0 sends its generator to the unit
    vector at coordinate lifts[r] of its module (`_cover_map`).

    Each owner's complex is the resolution of its module alone exactly:
    the same terms in the same order, the same element matrices, length
    and completeness.  Suppose P_k -> ... -> M is so far the sum of the
    modules' steps, its maps block-diagonal for the owners, with each
    owner's coordinates in its own order.  Every matrix reduced in the
    next step is then block-diagonal up to a permutation of rows and
    columns that keeps each owner's order: the radical columns of the
    kernel, and the maps of the cover.  Its row space is the direct sum
    of the blocks' row spaces, on disjoint columns, so the rows of the
    blocks' rrefs, sorted by pivot, form a matrix in rref with that row
    space.  The rref is unique, so it is the rref of the sum: its pivot
    and free columns are the union of the blocks' ones, the kernel basis
    vectors are the blocks' own, padded by zeros, and the lifts are the
    blocks' lifts.  The next term lists the summands by vertex and then
    by coordinate, so each owner's summands keep its order; the kernel's
    action, a product of blocks and kernel vectors, is again
    block-diagonal."""
    M = mods[0] if len(mods) == 1 else direct_sum(mods, name="sum")
    alg, count = M.alg, len(mods)
    if max_len is None:
        max_len = default_cap(alg)
    owner = {v: [u for u, N in enumerate(mods) for _ in range(N.dims[v])] for v in M.dims}
    terms, diffs = [{} for _ in range(count)], [{} for _ in range(count)]
    P, cur, lifts = projective_cover(M)
    owners = [owner[v][j] for v, j in zip(P.verts, lifts)]
    cover_lifts = [[] for _ in range(count)]  # in each owner's own coordinates
    for v, j, u in zip(P.verts, lifts, owners):
        cover_lifts[u].append(j - owner[v].index(u))
    k = 0
    while True:
        idx = [[] for _ in range(count)]  # the summands of P of each owner, in order
        pos = []  # the place of each summand of P among its owner's
        for t, u in enumerate(owners):
            pos.append(len(idx[u]))
            idx[u].append(t)
        for u, ts in enumerate(idx):
            terms[u][-k] = [P.verts[t] for t in ts]
        K, cols, units = kernel(cur)
        if K.total_dim == 0 or k >= max_len:
            break
        Q, cur, lifts = projective_cover(K)
        k += 1
        # the cover sends generator s to the unit vector at lifts[s] of K,
        # so the differential sends it to kernel vector lifts[s]: one
        # element matrix per owner, its rows that owner's summands of P;
        # each image fills one column of its owner's
        ems = [eltmat_zero(len(ts), 0) for ts in idx]
        images = [cols[v][j] for v, j in zip(Q.verts, lifts)]
        prev, owners = owners, []
        for e in _image_entries(Q.verts, P, images):
            u = prev[e[0][0]]
            owners.append(u)
            em = ems[u]
            for row in em:
                row.append({})
            for r, bidx, x in e:
                if prev[r] != u:
                    raise AssertionError("an image leaves its owner's summands")
                em[pos[r]][-1][bidx] = x
        for u, em in enumerate(ems):
            if not eltmat_entries_in_radical(alg, em):
                raise AssertionError("resolution differential not minimal")
            diffs[u][-k] = em
        P = Q
    unfinished = set()
    if K.total_dim:  # the owners of the kernel vectors left at the cap
        summand = _summands(P)
        unfinished = {owners[summand[v][j]] for v, us in units.items() for j in us}
    out = []
    for u in range(count):
        res = PerfComplex(alg, terms[u], diffs[u])
        res.complete, res.length = u not in unfinished, -min(res.terms, default=0)
        res.lifts = cover_lifts[u]
        out.append(res)
    return out


def min_proj_resolution(M: Module, max_len=None):
    """The minimal projective resolution ... -> P_1 -> P_0 of M, with its
    length and whether it is complete: `split_resolution` of M alone."""
    (res,) = split_resolution([M], max_len)
    return res


@per_algebra
def env_resolution(alg, bimodule, max_len):
    """The minimal resolution of bimodule(alg), regular_bimodule or
    dual_regular_bimodule, over the enveloping algebra E (`env_module`),
    to max_len, for `cy.check_untwisted_cy`, which asks at default_cap(E)."""
    return min_proj_resolution(env_module(alg, bimodule), max_len)


def _eltmat_vectors(S: ColumnSum, em, verts):
    """Inverse of `images_to_eltmat`: column s of em, a map from the
    projectives at verts into the column sum S of the regular bimodule,
    as a vector of S at verts[s]."""
    pos, out = S.bimodule.basis_pos, []
    for s, v in enumerate(verts):
        vec = [0] * S.dims[v]
        for r, row in enumerate(em):
            for b, c in row[s].items():
                vec[S.offs[(r, v)] + pos[b]] = c
        out.append(vec)
    return out


def _solve(D: Mat, targets):
    """For each target z, the y with D y = z zero at the free columns of
    D's rref, from one rref of [D | targets]; ValueError off the image."""
    n = D.cols
    R, pivots = Mat(D.rows, n + len(targets),
                    [row + [z[i] for z in targets] for i, row in enumerate(D.a)]).rref()
    if pivots and pivots[-1] >= n:
        raise ValueError("no lift: a target lies outside the image")
    ys = [[0] * n for _ in targets]
    for i, p in enumerate(pivots):
        for c, y in enumerate(ys):
            y[p] = R.a[i][n + c]
    return ys


def lift(Q: PerfComplex, maps, top):
    """Chain maps into Q over module maps: for each (f, P) of maps, f: M ->
    N = f.tgt and P, Q resolutions of M, N that keep their lifts
    (`split_resolution`), the element matrices {-k: F_k: P_k -> Q_k} of a
    chain map over f in degrees 0..top.

    The comparison theorem, degree by degree.  Let d_Q^0 = e_Q and e_P be
    the covers Q_0 -> N, P_0 -> M (`_cover_map`).  F_k sends generator s of
    P_k to a preimage under d_Q^k of z = f e_P s for k = 0, of z = F_(k-1)
    d_P s for k > 0, read as vectors (`eltmat_compose`, `_eltmat_vectors`).
    One exists: d_Q^(k-1) z = 0 (F_(k-2) d_P d_P s = 0, or e_Q F_0 d_P s =
    f e_P d_P s = 0), so z is a cycle, and Q is exact.  A generator at v
    needs a preimage at v: one rref of d_Q^k at v finds those of every
    map (`_solve`), or raises ValueError, as for an f that is not a module
    map.  Each preimage and d_Q F_k = F_(k-1) d_P are checked."""
    alg, R = Q.alg, regular_bimodule(Q.alg)
    C = tensor_complex(R, Q, range(-top, 1))
    sums = [C.terms.get(-k) or column_sum(R, ()) for k in range(top + 1)]
    downs = [_cover_map(maps[0][0].tgt, Q.terms.get(0, ()), Q.lifts)[1]]
    downs += [C.diff(-k) for k in range(1, top + 1)]
    out = [{} for _ in maps]
    for k in range(top + 1):
        wanted, comps = [], []  # (map, generator, vertex, target); each F_(k-1) d_P
        for m, (f, P) in enumerate(maps):
            verts = P.terms.get(-k, ())
            if k == 0:
                zs = [f.mats[v].column(j) for v, j in zip(verts, P.lifts)]
            else:
                comps.append(eltmat_compose(alg, out[m][1 - k], P.diffs[-k]) if verts else [])
                zs = _eltmat_vectors(sums[k - 1], comps[m], verts)
            wanted += [(m, s, v, z) for s, (v, z) in enumerate(zip(verts, zs))]
        images = [[None] * len(P.terms.get(-k, ())) for _, P in maps]
        for v in alg.vertices:
            at = [w for w in wanted if w[2] == v]
            if at:
                D = downs[k].mats[v] if downs[k] else Mat.zero(len(at[0][3]), 0)
                for (m, s, _, z), y in zip(at, _solve(D, [w[3] for w in at])):
                    if D.apply(y) != z:
                        raise ValueError("not a chain map: a lift misses its target")
                    images[m][s] = y
        for m, (f, P) in enumerate(maps):
            F = out[m][-k] = images_to_eltmat(P.terms.get(-k, ()), sums[k], images[m])
            if k and P.terms.get(-k) and Q.diffs.get(-k) and eltmat_compose(
                    alg, Q.diffs[-k], F) != comps[m]:
                raise ValueError("not a chain map: d F != F d")
    return out


def ext_dims_upto(M: Module, N: Module, n):
    """dim Ext^i(M, N) for i = 0..n, sharing one resolution P of M and one
    complex.  Hom_A(P, N) is the k-dual of DN (x)_A P, for DN the dual of
    N as a right module, so Ext^i(M, N) has the dimension of H^{-i} of
    DN tensored with P, which needs P only to length n + 1."""
    res = min_proj_resolution(M, n + 1)
    C = tensor_complex(_dual_right_module(N), res, range(-n - 1, 1))
    return [C.cohomology_dim(-i) for i in range(n + 1)]


def _dual_right_module(N: Module):
    """The k-dual of N as a right module over N.alg: a bimodule with the
    one-vertex semisimple algebra on the left, on which a basis element
    acts on the right by the transpose of its action on N."""
    dims = {(0, u): d for u, d in N.dims.items()}
    ract = {(0, j): action_matrix(N, j).transpose() for j in N.blocks()}
    return Bimodule(semisimple_algebra([0]), N.alg, dims, {}, ract, name=f"D({N.name})")


def _col_sum_diff(X: Bimodule, ems, src: ColumnSum, tgt: ColumnSum):
    """Morphism between column sums induced by right multiplication with
    the entries of a block-diagonal element matrix, given as its diagonal
    blocks ems: (element matrix, summand of tgt at its first row, summand
    of src at its first column).  Entry c * b adds c times the block of
    b's right action at each vertex where it is stored, reading only its
    nonzeros, with its corner at the entry's offsets; an idempotent, whose
    blocks are not stored, adds c on the diagonal of that corner."""
    alg = X.left_alg
    basis = X.right_alg.basis
    mats = {w: Mat.zero(tgt.dims[w], src.dims[w]) for w in alg.vertices}
    for em, r1, s1 in ems:
        for r, row in enumerate(em, r1):
            for s, elt in enumerate(row, s1):
                for bidx, c in elt.items():
                    if basis[bidx].degree:
                        for w, blk in X.ract_by_elt.get(bidx, {}).items():
                            m, r0, c0 = mats[w].a, tgt.offs[(r, w)], src.offs[(s, w)]
                            for i, brow in enumerate(blk.a):
                                mrow = m[r0 + i]
                                for j, x in enumerate(brow):
                                    if x:
                                        mrow[c0 + j] += c * x
                    else:
                        for w, n in X.column_support.get(basis[bidx].src, ()):
                            m, r0, c0 = mats[w].a, tgt.offs[(r, w)], src.offs[(s, w)]
                            for i in range(n):
                                m[r0 + i][c0 + i] += c
    return Morphism(src, tgt, mats)


def tensor_complex(X: Bimodule, P, degrees=None):
    """X tensored with a complex of projectives P over X.right_alg, as a
    ModComplex over X.left_alg: term i is the column sum of X at the
    vertices of P^i, and the differential multiplies by the entries of P's
    element matrices on the right.  P may also be a list of complexes, the
    owners, laid out owner by owner: term i is the column sum at the
    vertices of each owner's P^i in turn, so that at every vertex the
    coordinates of each owner follow those of the owners before it, and
    each differential is block-diagonal, one block per owner.  degrees,
    when given, limits the terms built, and the differentials to those
    between built terms."""
    Ps = [P] if isinstance(P, PerfComplex) else P
    degs = dict.fromkeys(i for Q in Ps for i in Q.terms)
    if degrees is not None:
        degs = [i for i in degrees if i in degs]
    sums, firsts = {}, {}  # firsts[i]: each owner's first summand of term i
    for i in degs:
        verts, firsts[i] = [], []
        for Q in Ps:
            firsts[i].append(len(verts))
            verts += Q.terms.get(i, ())
        sums[i] = column_sum(X, verts)
    diffs = {}
    for i in dict.fromkeys(i for Q in Ps for i in Q.diffs):
        if i in sums and i + 1 in sums:
            ems = [(Q.diffs[i], firsts[i + 1][u], firsts[i][u])
                   for u, Q in enumerate(Ps) if i in Q.diffs]
            diffs[i] = _col_sum_diff(X, ems, sums[i], sums[i + 1])
    return ModComplex(X.left_alg, sums, diffs)


def tor(i, X: Bimodule, M: Module):
    """Tor_i(X, M) as a left module over X.left_alg: cohomology in degree
    -i of X tensored with the resolution of M to length i + 1, built only
    around -i."""
    if i < 0:
        raise ValueError("negative Tor degree")
    res = min_proj_resolution(M, i + 1)
    return tensor_complex(X, res, (-i - 1, -i, -i + 1)).cohomology(-i)


def global_dimension(alg: Algebra, cap=None):
    """The largest length of a minimal projective resolution of a simple
    module.  Raises CapExceeded when one is longer than cap.  The lengths
    are kept on the algebra once a call returns, and a later call with a
    smaller cap raises from them just as a fresh call would.

    On an acyclic Gabriel quiver it is the largest length of a resolution
    of an indecomposable injective instead, read off the resolutions kept
    per algebra (`injective_resolutions`), which stage 0 of the orbit walk
    of `decide_nrf` reads too.  Proof: let d = gl.dim A be
    finite.  Some simples S, S' have Ext^d(S, S') != 0.  As Ext^(d+1)
    vanishes, the embedding S -> I(S) makes Ext^d(I(S), S') ->
    Ext^d(S, S') onto, so pd I(S) >= d, and pd I <= d for every module I;
    hence d = max_v pd I_v.  An algebra with an acyclic quiver is
    triangular, and a triangular algebra has gl.dim <= #vertices - 1, so
    d is finite whenever this rule is used.  A cyclic quiver keeps the
    simple modules: a selfinjective algebra has pd I = 0 for every
    injective but infinite global dimension."""
    if cap is None:
        cap = default_cap(alg)
    label, lengths = _resolution_lengths(alg, cap=cap)
    for v, length in zip(alg.vertices, lengths):
        if length > cap:
            raise CapExceeded(f"projective resolution of {label}[{v}] exceeds {cap}")
    return max(lengths, default=0)


@per_algebra
def _resolution_lengths(alg, *, cap):
    """("I", the lengths of the injectives' resolutions) on an acyclic
    quiver, else ("S", those of the simples', each at most cap)."""
    ress = injective_resolutions(alg)
    if ress is not None:
        return "I", [res.length for res in ress.values()]
    return "S", _simple_resolution_lengths(alg, cap)


def _quiver_is_acyclic(alg):
    """Whether the Gabriel quiver has no oriented cycle, by a topological
    sort of the ends of the positive-degree basis elements: every arrow
    is such an element and every such element is a path of arrows, so
    the two graphs have the same cycles."""
    preds = {v: set() for v in alg.vertices}
    for b in alg.basis[len(alg.vertices):]:
        preds[b.tgt].add(b.src)
    try:
        tuple(TopologicalSorter(preds).static_order())
    except CycleError:
        return False
    return True


@per_algebra
def injective_resolutions(alg):
    """{v: the minimal resolution of `injective_module(alg, v)`} on an
    acyclic quiver, where `global_dimension` reads its lengths, else
    None.  One resolution of DA, the sum of the injectives, split by
    injective (`split_resolution`, whose docstring proves each slice
    exact).  A triangular algebra has finite global dimension
    (`global_dimension`), so every slice is complete under the default
    cap."""
    if not _quiver_is_acyclic(alg):
        return None
    slices = split_resolution([injective_module(alg, v) for v in alg.vertices])
    if not all(res.complete for res in slices):
        raise AssertionError("a triangular algebra has finite global dimension")
    return dict(zip(alg.vertices, slices))


def _simple_resolution_lengths(alg, cap):
    """The lengths of the simples' resolutions, one simple at a time, up
    to the first that exceeds cap: a selfinjective algebra's simples all
    do, and one sum of them would be resolved to the cap in full."""
    lengths = []
    for v in alg.vertices:
        res = min_proj_resolution(simple_module(alg, v), max_len=cap)
        if not res.complete:
            raise CapExceeded(f"projective resolution of S[{v}] exceeds {cap}")
        lengths.append(res.length)
    return lengths


@per_algebra
def _projective_dim_vectors(alg):
    """{dimension vector: the vertices v whose P_v has it}."""
    R = regular_bimodule(alg)
    out = {}
    for v in alg.vertices:
        out.setdefault(tuple(R.dims[(w, v)] for w in alg.vertices), []).append(v)
    return out


def _match_projective(M: Module):
    """Vertex v with M isomorphic to the projective at v, else None.

    Exact: M ≅ P_v iff dim M = dim P_v and top M ≅ S_v, because the
    projective cover P_v -> M is then a surjection between spaces of
    equal dimension.  The top is computed only when M has the dimension
    vector of some projective."""
    vs = _projective_dim_vectors(M.alg).get(M.dim_vector())
    if vs is None:
        return None
    top = top_dim_vector(M)
    if sum(top) != 1:
        return None
    v = M.alg.vertices[top.index(1)]
    return v if v in vs else None


@per_algebra
def _projective_partner(alg, v):
    """The vertex w with I_v isomorphic to P_w, else None."""
    return _match_projective(injective_module(alg, v))


def dominant_dimension(alg: Algebra, cap=None):
    """Number of leading projective-injective terms in the minimal
    injective coresolution of the regular module; returns cap when the
    coresolution stays projective-injective throughout (∞ convention)."""
    if cap is None:
        cap = default_cap(alg)
    DM = dual_module(regular_module(alg), opposite(alg))
    res = min_proj_resolution(DM, max_len=cap)
    if not res.complete:
        raise CapExceeded(f"projective resolution of {DM.name} exceeds {cap}")
    count = 0
    for k in range(res.length + 1):
        if all(_projective_partner(alg, v) is not None for v in res.terms.get(-k, ())):
            count += 1
        else:
            break
    if count == res.length + 1:
        return cap
    return count


def is_selfinjective(alg: Algebra):
    return all(_projective_partner(alg, v) is not None for v in alg.vertices)


# -- projective replacement --------------------------------------------


def to_projective_complex(C: ModComplex, cap=None):
    """The minimal complex of projectives P with a quasi-isomorphism
    pi: P -> C, built from the top degree down by projective covers of
    pullbacks.

    Step i keeps one map, inc: the inclusion of the pullback X times its
    cover P^i -> X, into C^i (+) P^{i+1}.  Its first C^i rows are pi^i and
    the rest d_P^i.  X is the kernel of the cone map [d_C, -pi; 0, d_P]
    from C^i (+) P^{i+1} to C^{i+1} (+) P^{i+2}, read off the inc of the
    step before; the loop starts from the empty sum P^{hi+1}, so that inc
    is the empty map.  B = d_C C^{i-1} (+) 0 is a submodule of X, its
    coordinates there its entries at the kernel's units, and P^i -> X is
    a projective cover of X / B lifted to X (`projective_cover` with sub).

    Exact: up to the sign of pi, the cone map from C^{i-1} (+) P^i has
    image B + im P^i, so the cone of pi is exact at C^i (+) P^{i+1} iff
    im P^i + B = X.  The cover gives im P^i + B + rad X = X, and im P^i + B
    is a submodule, so Nakayama's lemma gives it.

    Minimal: let a generator of P^i go to (c, p) in X.  Then d_P p = 0 and
    pi p = d_C c, so P^{i+1} -> X_{i+1} sends p to (d_C c, 0), which lies
    in B_{i+1}.  So p lies in the kernel of the cover P^{i+1} -> X_{i+1} /
    B_{i+1}, which is inside rad P^{i+1}: every entry of d_P^i is radical.

    The loop stops only below the lowest degree lo of C, once P^{i+1} is
    0: a minimal P can vanish at a degree above a gap of C.  It raises
    CapExceeded past cap degrees below lo.  The output's d∘d = 0 and its
    minimality are checked."""
    alg = C.alg
    if cap is None:
        cap = default_cap(alg)
    degs = C.degrees()
    if not degs:
        return PerfComplex(alg, {}, {})
    hi, lo = max(degs), min(degs)
    P = S = _sum_info(alg, ())  # P^{i+1}, and C^{i+1} (+) P^{i+2}
    inc = Morphism(P, S, {v: Mat.zero(0, 0) for v in alg.vertices})
    terms, diffs = {}, {}
    i = hi
    while i >= lo or P.total_dim:
        if i < lo - cap:
            raise CapExceeded("projective replacement exceeded the width cap")
        # X = {(c, p) : d_C c = pi(p), d_P p = 0} inside C^i (+) P^{i+1}
        Ci = C.term(i)
        S_prev, S = S, direct_sum([Ci, P])
        dC = C.diff(i)
        mats = {}
        for v in alg.vertices:
            n, rows = Ci.dims[v], inc.mats[v].a
            dc = dC.mats[v].a if dC is not None else [[0] * n] * C.term(i + 1).dims[v]
            # the rows [d_C, -pi] on C^{i+1}, then [0, d_P] on P^{i+2}
            cone = [a + [-x for x in b] for a, b in zip(dc, rows)]
            cone += [[0] * n + b for b in rows[len(dc):]]
            mats[v] = Mat(len(cone), S.dims[v], cone)
        X, cols, units = kernel(Morphism(S, S_prev, mats), name="pullback")
        # B: the columns of d_C^{i-1}, padded by zeros, at X's units
        dB = C.diff(i - 1)
        B = None if dB is None else {
            v: list(zip(*(m.a[u] if u < Ci.dims[v] else [0] * m.cols for u in units[v])))
            for v, m in dB.mats.items()}
        Pi, cov, lifts = projective_cover(X, B)
        # the inclusion of X has the kernel columns as its columns; the
        # differential sends generator s to the P^{i+1} block of kernel
        # vector lifts[s], the image of its unit vector
        inc = Morphism(Pi, S, {
            v: Mat.from_rows(cols[v], ncols=S.dims[v]).transpose() * cov.mats[v]
            for v in alg.vertices})
        images = [cols[v][j][Ci.dims[v]:] for v, j in zip(Pi.verts, lifts)]
        terms[i], diffs[i] = Pi.verts, images_to_eltmat(Pi.verts, P, images)
        P = Pi
        i -= 1
    out = PerfComplex(alg, terms, diffs)
    out.check()
    if not out.is_minimal():
        raise AssertionError("projective replacement not minimal")
    return out


def minimize(P: PerfComplex):
    """The minimal complex homotopy equivalent to P: the projective
    replacement of P as modules (`to_projective_complex`)."""
    return to_projective_complex(P.to_mod_complex())


def nakayama(P: PerfComplex, cap=None):
    """The derived Nakayama functor: tensor a complex of projectives with
    the dual regular bimodule, then replace it by its minimal complex of
    projectives."""
    return to_projective_complex(tensor_complex(dual_regular_bimodule(P.alg), P), cap)


def is_shifted_regular(P: PerfComplex):
    """Returns m if the complex is isomorphic in the derived category to
    the regular module placed in degree -m, else None.  P must be minimal,
    as `nakayama` outputs and stalk complexes are.  Then P is A[m] iff it
    has one term, in degree -m, holding every vertex exactly once: two
    minimal complexes of projectives that are isomorphic in the derived
    category are isomorphic as complexes, and A[m] is minimal."""
    if len(P.terms) != 1:
        return None
    (deg, verts), = P.terms.items()
    vs = P.alg.vertices
    return -deg if len(verts) == len(vs) and set(verts) == set(vs) else None

