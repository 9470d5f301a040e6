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
from .linalg import Mat, inv
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
    """Element matrix of g∘f (f applied first)."""
    nr = len(g)
    nc = len(f[0]) if f else 0
    mid = len(f)
    out = eltmat_zero(nr, nc)
    for t in range(nr):
        for s in range(nc):
            acc = {}
            for r in range(mid):
                fe = f[r][s]
                ge = g[t][r]
                if fe and ge:
                    prod = alg.mul_elt(fe, ge)
                    for k, c in prod.items():
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

    def check(self):
        for i, d in self.diffs.items():
            d.check()
            nxt = self.diffs.get(i + 1)
            if nxt is not None and not nxt.compose(d).is_zero():
                raise ValueError(f"d^2 != 0 at degree {i}")

    def cohomology(self, i):
        return homology_module(self.term(i), self.diff(i - 1), self.diff(i))

    def cohomology_dim(self, i):
        """dim H^i: the dimension of term i less the ranks of the two
        differentials at i, vertex by vertex."""
        ds = [d for d in (self.diff(i - 1), self.diff(i)) if d is not None]
        return sum(n - sum(d.mats[w].rank() for d in ds)
                   for w, n in self.term(i).dims.items() if n)

    def cohomology_table(self):
        if not self.terms:
            return {}
        lo = min(self.terms)
        hi = max(self.terms)
        out = {}
        for i in range(lo, hi + 1):
            H = self.cohomology(i)
            if H.total_dim:
                out[i] = H
        return out


class PerfComplex:
    """Bounded complex with projective terms in based form."""

    def __init__(self, alg, terms, diffs):
        self.alg = alg
        self.terms = {i: list(t) for i, t in terms.items() if t}
        self.diffs = {i: d for i, d in diffs.items() if not eltmat_is_zero(d)}

    def degrees(self):
        return sorted(self.terms)

    def width(self):
        return sum(len(t) for t in self.terms.values())

    def shift(self, k):
        """[k]: term i of the shift is term i+k of the original; odd shifts
        flip the sign of the differential."""
        terms = {i - k: t for i, t in self.terms.items()}
        diffs = {}
        for i, d in self.diffs.items():
            if k % 2:
                d = [[{b: -c for b, c in e.items()} for e in row] for row in d]
            diffs[i - k] = d
        return PerfComplex(self.alg, terms, diffs)

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

    def cohomology(self, i):
        return self.to_mod_complex().cohomology(i)

    def cohomology_table(self):
        return self.to_mod_complex().cohomology_table()


def stalk_regular(alg):
    """The regular module as a one-term complex of projectives in degree 0."""
    return PerfComplex(alg, {0: list(alg.vertices)}, {})


def homology_module(at: Module, f_in, f_out, name="H"):
    """ker(f_out) / im(f_in) at the module `at`.  The image lies in the
    kernel, so its coordinates there are its rows at the kernel's unit
    coordinates."""
    if f_out is None:
        K, units = at, None
    else:
        K, _, units = kernel(f_out)
    if f_in is None:
        return K
    cols = {}
    for v, m in f_in.mats.items():
        if units is not None:
            m = Mat(len(units[v]), m.cols, [m.a[u] for u in units[v]])
        cols[v] = m.transpose().a
    Q, _ = quotient(K, cols, name=name)
    return Q


# -- covers and resolutions -------------------------------------------


def projective_cover(M: Module):
    """Returns (P, epi: Morphism P -> M, lifts), P the sum of projectives
    (a `_sum_info`) at the tops of M.

    Summand r sends its generator to the unit vector at coordinate
    lifts[r] of M at its vertex.  The lifts are the coordinates left free
    by the rref of the radical span, so their unit vectors span a
    complement of rad M.  Only the vertices where M is nonzero are
    reduced, only the stored actions of M are read and only their
    nonzeros copied, each block's columns are matched to the lifts once,
    and the sum of projectives at a vertex list is built once per
    algebra."""
    alg = M.alg
    rad = radical_columns(M)
    verts = []
    lifts = []
    first, at = {}, {}  # the summands at v from index first[v], their lifts in at[v]
    for v in alg.vertices:
        d = M.dims[v]
        pivset = set(Mat.from_rows(rad[v], ncols=d).rref()[1]) if rad[v] else ()
        free = [j for j in range(d) if j not in pivset]
        if free:
            first[v], at[v] = len(verts), free
            verts += [v] * len(free)
            lifts += free
    P = _sum_info(alg, tuple(verts))
    pos = regular_bimodule(alg).basis_pos
    mats = {w: Mat.zero(M.dims[w], P.dims[w]) for w in alg.vertices}
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
    return P, Morphism(P, M, mats), lifts


def split_resolution(mods, max_len=None):
    """The minimal projective resolution ... -> P_1 -> P_0 of each of mods,
    modules over one algebra, with P_k in degree -k: one resolution of
    their direct sum (of M when mods is [M]), split by owner.  The owner
    of a coordinate of the sum is the module it comes from, of a summand
    of P_0 the owner of its lift, and of a summand of P_k, k > 0, the
    owner of its image, which lies inside that owner's summands of
    P_(k-1).  Each complex carries its length and whether it is complete:
    False when max_len stopped the resolution at a kernel vector whose
    unit coordinate lies in that owner's summands.

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
                assert prev[r] == u, "an image leaves its owner's summands"
                em[pos[r]][-1][bidx] = x
        for u, em in enumerate(ems):
            assert eltmat_entries_in_radical(alg, em), "resolution differential not minimal"
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
    to max_len.  `ar.ext_bimodule` and `cy.check_untwisted_cy` ask at
    default_cap(E) or above, so below that cap they share one."""
    return min_proj_resolution(env_module(alg, bimodule), max_len)


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
                        for w, blk in X.ract_elt(bidx).items():
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
    assert all(res.complete for res in slices), "a triangular algebra has finite global dimension"
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


# -- projective replacement and minimization ---------------------------


def to_projective_complex(C: ModComplex, cap=None):
    """Quasi-isomorphic based complex of projectives, built from the top
    degree down by projective covers of pullbacks.

    Step i keeps one map, inc: the inclusion of the pullback X times its
    cover P^i -> X, into C^i (+) P^{i+1}.  Its first C^i rows are pi^i and
    the rest d_P^i.  X is the kernel of the cone map [d_C, -pi; 0, d_P]
    from C^i (+) P^{i+1} to C^{i+1} (+) P^{i+2}, read off the inc of the
    step before; the loop starts from the empty sum P^{hi+1}, so that inc
    is the empty map."""
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
    while True:
        Ci = C.term(i)
        if Ci.total_dim == 0 and P.total_dim == 0 and i < hi:
            break
        if i < lo - cap:
            raise CapExceeded("projective replacement exceeded the width cap")
        # X = {(c, p) : d_C c = pi(p), d_P p = 0} inside C^i (+) P^{i+1}
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
        X, cols, _ = kernel(Morphism(S, S_prev, mats), name="pullback")
        if X.total_dim == 0 and i <= lo:
            break
        Pi, cov, lifts = projective_cover(X)
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
    return PerfComplex(alg, terms, diffs)


def _elt_inverse(alg, elt):
    """Inverse of an element e_v * (scalar + radical) * e_v."""
    c0 = None
    vidx = None
    for k, c in elt.items():
        if alg.basis[k].degree == 0:
            c0 = c
            vidx = k
    if not c0:
        raise ValueError("element is not invertible")
    inv_c0 = inv(c0)
    # rho = elt/c0 - e; inverse = (e - rho + rho^2 - ...) / c0
    rho = {}
    for k, c in elt.items():
        if k != vidx:
            rho[k] = -(c * inv_c0)
        else:
            extra = c * inv_c0 - 1
            if extra:
                rho[k] = -extra
    acc = {vidx: 1}
    term = {vidx: 1}
    while True:
        term = alg.mul_elt(term, rho)
        if not term:
            break
        for k, c in term.items():
            v = acc.get(k, 0) + c
            if v:
                acc[k] = v
            elif k in acc:
                del acc[k]
    return {k: c * inv_c0 for k, c in acc.items()}


def minimize(P: PerfComplex):
    """Homotopy-equivalent minimal complex via Gaussian elimination on
    differential entries with invertible degree-0 part."""
    alg = P.alg
    nv = len(alg.vertices)
    terms = {i: list(t) for i, t in P.terms.items()}
    diffs = {i: [[dict(e) for e in row] for row in d] for i, d in P.diffs.items()}
    degs = list(diffs)  # the scan order; eliminations keep every key

    def find_unit(start, r0):
        """The first entry with a unit part, scanning the differentials in
        the order of degs from row r0 of degs[start]."""
        for n in range(start, len(degs)):
            d = diffs[degs[n]]
            for r in range(r0 if n == start else 0, len(d)):
                for s, elt in enumerate(d[r]):
                    if any(k < nv and c for k, c in elt.items()):
                        return n, r, s
        return None

    # An elimination at (i, r, s) drops a row or column of d^(i-1) and
    # d^(i+1) and subtracts x * d[t][s] from each row t != r of d^i.  No
    # entry before (i, r, s) in scan order is a unit, so for t < r d[t][s]
    # is radical, so is x * d[t][s], and no unit appears before row r of
    # d^i: the scan resumes there and finds the entry a full rescan would.
    hit = find_unit(0, 0)
    while hit is not None:
        n, r, s = hit
        i = degs[n]
        d = diffs[i]
        alpha = d[r][s]
        ainv = _elt_inverse(alg, alpha)
        # corrected middle differential without row r / column s;
        # d[r][s2] * ainv for the nonzero entries of row r; a zero entry
        # there or in column s leaves d[t][s2] as it is
        left = {s2: alg.mul_elt(e, ainv) for s2, e in enumerate(d[r]) if s2 != s and e}
        nd = []
        for t in range(len(d)):
            if t == r:
                continue
            row = [dict(e) for s2, e in enumerate(d[t]) if s2 != s]
            if d[t][s]:
                for s2, x in left.items():
                    e = row[s2 if s2 < s else s2 - 1]
                    for k, c in alg.mul_elt(x, d[t][s]).items():
                        v = e.get(k, 0) - c
                        if v:
                            e[k] = v
                        elif k in e:
                            del e[k]
            nd.append(row)
        # adjacent differentials: drop the eliminated row/column
        if i - 1 in diffs:
            diffs[i - 1] = [row for t, row in enumerate(diffs[i - 1]) if t != s]
        if i + 1 in diffs:
            diffs[i + 1] = [[e for t, e in enumerate(row) if t != r] for row in diffs[i + 1]]
        terms[i] = [v for t, v in enumerate(terms[i]) if t != s]
        terms[i + 1] = [v for t, v in enumerate(terms[i + 1]) if t != r]
        diffs[i] = nd if nd and nd[0] else eltmat_zero(len(terms[i + 1]), len(terms[i]))
        hit = find_unit(n, r)
    out = PerfComplex(alg, terms, diffs)
    out.check()
    assert out.is_minimal()
    return out


def nakayama(P: PerfComplex, cap=None):
    """The derived Nakayama functor: tensor a complex of projectives with
    the dual regular bimodule, then renormalize to projective terms."""
    DL = dual_regular_bimodule(P.alg)
    return minimize(to_projective_complex(tensor_complex(DL, P), cap=cap))


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

