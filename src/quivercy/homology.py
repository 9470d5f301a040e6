"""Projective covers, minimal resolutions, Ext/Tor, bounded complexes of
projectives, and the derived Nakayama functor.

Complexes of projectives are stored in "based" form: a term is a list of
vertices (one per indecomposable projective summand) and a differential is
a matrix of algebra elements.  The entry for a component P_u -> P_v is an
element with src = v and tgt = u, acting by right multiplication.  For the
composite g∘f the element of the composite is elt(f) * elt(g).
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter

from .algebra import Algebra, opposite, per_algebra, semisimple_algebra
from .errors import CapExceeded
from .linalg import Mat, inv, kernel_units
from .module import (
    Bimodule,
    Module,
    Morphism,
    _sub_from_columns,
    column_sum,
    direct_sum,
    dual_module,
    dual_regular_bimodule,
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


class SumInfo:
    """A direct sum of indecomposable projectives: the column sum of the
    regular bimodule at verts, with column_sum's offsets, a view on the
    bimodule's blocks.  Coordinate offs[(r, w)] + p of the sum at vertex w
    is the basis element R.basis_indices[(w, verts[r])][p] of summand r."""

    def __init__(self, alg, verts):
        self.verts = list(verts)
        name = "P(" + ",".join(str(v) for v in self.verts) + ")"
        self.module, self.offs = column_sum(regular_bimodule(alg), self.verts, name=name)


@per_algebra
def _sum_info(alg, verts):
    """The SumInfo of a tuple of vertices."""
    return SumInfo(alg, verts)


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


def images_to_eltmat(verts, tgt: SumInfo, images):
    """Element matrix of the map from the sum of the projectives at verts
    to tgt.module that sends generator s to images[s], a vector of
    tgt.module at verts[s]."""
    R = regular_bimodule(tgt.module.alg)
    m = eltmat_zero(len(tgt.verts), len(verts))
    for s, (a, col) in enumerate(zip(verts, images)):
        for r, v in enumerate(tgt.verts):
            for c, bidx in enumerate(R.basis_indices.get((a, v), ()), tgt.offs[(r, a)]):
                if col[c]:
                    m[r][s][bidx] = col[c]
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
    """Returns (info: SumInfo, epi: Morphism info.module -> M, lifts).

    Summand r sends its generator to the unit vector at coordinate
    lifts[r] of M at its vertex.  The lifts are the coordinates left free
    by the rref of the radical span, so their unit vectors span a
    complement of rad M.  Only the vertices where M is nonzero are
    reduced, only the stored actions of M are read and only their
    nonzeros copied, and the SumInfo of a vertex list is built once per
    algebra."""
    alg = M.alg
    rad = radical_columns(M)
    verts = []
    lifts = []
    for v in alg.vertices:
        d = M.dims[v]
        pivset = set(Mat.from_rows(rad[v], ncols=d).rref()[1]) if rad[v] else ()
        for j in range(d):
            if j not in pivset:
                verts.append(v)
                lifts.append(j)
    info = _sum_info(alg, tuple(verts))
    pos = regular_bimodule(alg).basis_pos
    mats = {w: Mat.zero(M.dims[w], info.module.dims[w]) for w in alg.vertices}
    acts = {}  # source vertex -> (target vertex, position, action rows)
    for i, m in M.act.items():
        b = alg.basis[i]
        if b.degree:
            acts.setdefault(b.src, []).append((b.tgt, pos[i], m.a))
    for r, (v, j) in enumerate(zip(verts, lifts)):
        # basis element b of summand r goes to column j of b's action; the
        # idempotent, first in the basis, to the unit vector itself
        mats[v].a[j][info.offs[(r, v)]] = 1
        for t, p, act in acts.get(v, ()):
            c = info.offs[(r, t)] + p
            for row, act_row in zip(mats[t].a, act):
                x = act_row[j]
                if x:
                    row[c] = x
    return info, Morphism(info.module, M, mats), lifts


class Resolution:
    """Minimal projective resolution ... -> P_1 -> P_0 -> M -> 0.

    infos[k] is the SumInfo of the k-th term; eltmats[k] (k >= 1) is the
    based differential P_k -> P_{k-1}; complete is False when max_len was
    hit with a nonzero kernel.
    """

    def __init__(self, M, infos, eltmats, complete):
        self.module = M
        self.infos = infos
        self.eltmats = eltmats
        self.complete = complete

    @property
    def length(self):
        return len(self.infos) - 1

    @property
    def proj_dim(self):
        return self.length if self.complete else None

    def term_verts(self, k):
        return self.infos[k].verts if k < len(self.infos) else []

    def to_perf(self):
        """As a complex in degrees [-length, 0]."""
        terms = {-k: info.verts for k, info in enumerate(self.infos)}
        diffs = {-k: self.eltmats[k] for k in range(1, len(self.infos))}
        return PerfComplex(self.module.alg, terms, diffs)


def min_proj_resolution(M: Module, max_len=None, strict=False):
    alg = M.alg
    if max_len is None:
        max_len = default_cap(alg)
    info0, cur, _ = projective_cover(M)
    infos = [info0]
    eltmats = {}
    k = 0
    while True:
        K, cols, _ = kernel(cur)
        if K.total_dim == 0:
            return Resolution(M, infos, eltmats, True)
        if k >= max_len:
            if strict:
                raise CapExceeded(f"projective resolution of {M.name} exceeds {max_len}")
            return Resolution(M, infos, eltmats, False)
        info, cov, lifts = projective_cover(K)
        # the cover sends generator s to the unit vector at lifts[s] of K,
        # so the differential sends it to kernel vector lifts[s]
        images = [cols[v][j] for v, j in zip(info.verts, lifts)]
        em = images_to_eltmat(info.verts, infos[-1], images)
        assert eltmat_entries_in_radical(alg, em), "resolution differential not minimal"
        infos.append(info)
        eltmats[k + 1] = em
        cur = cov
        k += 1


def _module_resolution(M, upto):
    """Resolution prefix of M of length at least upto (or complete), kept
    on M so that it lives exactly as long as M does."""
    res = M._resolution
    if res is None or not (res.complete or res.length >= upto):
        res = M._resolution = min_proj_resolution(M, max_len=max(upto, default_cap(M.alg)))
    return res


def ext_dims_upto(M: Module, N: Module, n):
    """dim Ext^i(M, N) for i = 0..n, sharing one resolution P of M and one
    complex.  Hom_A(P, N) is the k-dual of DN (x)_A P, for DN the dual of
    N as a right module, so Ext^i(M, N) has the dimension of H^{-i} of
    DN tensored with P."""
    res = _module_resolution(M, n + 1)
    C = tensor_complex(_dual_right_module(N), res.to_perf(), range(-n - 1, 1))
    return [C.cohomology_dim(-i) for i in range(n + 1)]


def _dual_right_module(N: Module):
    """The k-dual of N as a right module over N.alg: a bimodule with the
    one-vertex semisimple algebra on the left, on which a basis element
    acts on the right by the transpose of its action on N."""
    dims = {(0, u): d for u, d in N.dims.items()}
    ract = {(0, j): m.transpose() for j, m in N.act.items()}
    return Bimodule(semisimple_algebra([0]), N.alg, dims, {}, ract, name=f"D({N.name})")


def _col_sum_diff(X: Bimodule, em, srcmod, srcoffs, tgtmod, tgtoffs):
    """Morphism between column sums induced by right multiplication with
    the entries of an element matrix.  Entry c * b adds c times the block
    of b's right action at each vertex where it is stored, reading only
    its nonzeros, with its corner at the entry's offsets; an idempotent,
    whose blocks are not stored, adds c on the diagonal of that corner."""
    alg = X.left_alg
    basis = X.right_alg.basis
    mats = {w: Mat.zero(tgtmod.dims[w], srcmod.dims[w]) for w in alg.vertices}
    for r, row in enumerate(em):
        for s, elt in enumerate(row):
            for bidx, c in elt.items():
                if basis[bidx].degree:
                    for w, blk in X.ract_by_elt.get(bidx, ()):
                        m, r0, c0 = mats[w].a, tgtoffs[(r, w)], srcoffs[(s, w)]
                        for i, brow in enumerate(blk.a):
                            mrow = m[r0 + i]
                            for j, x in enumerate(brow):
                                if x:
                                    mrow[c0 + j] += c * x
                else:
                    for w in alg.vertices:
                        m, r0, c0 = mats[w].a, tgtoffs[(r, w)], srcoffs[(s, w)]
                        for i in range(X.dims[(w, basis[bidx].src)]):
                            m[r0 + i][c0 + i] += c
    return Morphism(srcmod, tgtmod, mats)


def tensor_complex(X: Bimodule, P: PerfComplex, degrees=None):
    """X tensored with a complex of projectives P over X.right_alg, as a
    ModComplex over X.left_alg: term i is the column sum of X at the
    vertices of P^i, and the differential multiplies by the entries of P's
    element matrices on the right.  degrees, when given, limits the terms
    built, and the differentials to those between built terms."""
    degs = P.terms if degrees is None else [i for i in degrees if i in P.terms]
    sums = {i: column_sum(X, P.terms[i]) for i in degs}
    diffs = {i: _col_sum_diff(X, em, *sums[i], *sums[i + 1])
             for i, em in P.diffs.items() if i in sums and i + 1 in sums}
    return ModComplex(X.left_alg, {i: M for i, (M, _) in sums.items()}, diffs)


def tor(i, X: Bimodule, M: Module):
    """Tor_i(X, M) as a left module over X.left_alg: cohomology in degree
    -i of X tensored with the resolution of M, built only around -i."""
    if i < 0:
        raise ValueError("negative Tor degree")
    res = _module_resolution(M, i + 1)
    return tensor_complex(X, res.to_perf(), (-i - 1, -i, -i + 1)).cohomology(-i)


def global_dimension(alg: Algebra, cap=None):
    """The largest length of a minimal projective resolution of a simple
    module.  Raises CapExceeded when one is longer than cap.  The lengths
    are kept on the algebra once a call returns, and a later call with a
    smaller cap raises from them just as a fresh call would.

    On an acyclic Gabriel quiver it is the largest length of a resolution
    of an indecomposable injective instead, read from `injective_module`,
    whose resolution the orbit walk of `decide_nrf` reuses.  Proof: let
    d = gl.dim A be finite.  Some simples S, S' have Ext^d(S, S') != 0.
    As Ext^(d+1) vanishes, the embedding S -> I(S) makes
    Ext^d(I(S), S') -> Ext^d(S, S') onto, so pd I(S) >= d, and pd I <= d
    for every module I; hence d = max_v pd I_v.  An algebra with an
    acyclic quiver is triangular, and a triangular algebra has
    gl.dim <= #vertices - 1, so d is finite whenever this rule is used.
    A cyclic quiver keeps the simple modules: a selfinjective algebra has
    pd I = 0 for every injective but infinite global dimension."""
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
    if _quiver_is_acyclic(alg):
        return "I", _injective_resolution_lengths(alg)
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


def _injective_resolution_lengths(alg):
    lengths = []
    for v in alg.vertices:
        res = _module_resolution(injective_module(alg, v), 0)
        assert res.complete, "a triangular algebra has finite global dimension"
        lengths.append(res.length)
    return lengths


def _simple_resolution_lengths(alg, cap):
    return [min_proj_resolution(simple_module(alg, v), max_len=cap, strict=True).length
            for v in alg.vertices]


def _match_projective(M: Module):
    """Vertex v with M isomorphic to the projective at v, else None.

    Exact: M ≅ P_v iff top M ≅ S_v and dim M = dim P_v, because the
    projective cover P_v -> M is then a surjection between spaces of
    equal dimension."""
    top = top_dim_vector(M)
    if sum(top) != 1:
        return None
    alg = M.alg
    v = alg.vertices[top.index(1)]
    R = regular_bimodule(alg)
    return v if all(R.dims[(w, v)] == M.dims[w] for w in alg.vertices) else None


def _is_regular_module(M: Module):
    """M ≅ the regular module, by the test of `_match_projective`: the
    top of the regular module is one copy of every simple."""
    return (M.dim_vector() == regular_module(M.alg).dim_vector()
            and all(t == 1 for t in top_dim_vector(M)))


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
    res = min_proj_resolution(DM, max_len=cap, strict=True)
    count = 0
    for k in range(res.length + 1):
        verts = res.term_verts(k)
        if all(_projective_partner(alg, v) is not None for v in verts):
            count += 1
        else:
            break
    if count == res.length + 1 and res.complete:
        return cap
    return count


def is_selfinjective(alg: Algebra):
    return all(_projective_partner(alg, v) is not None for v in alg.vertices)


# -- projective replacement and minimization ---------------------------


def to_projective_complex(C: ModComplex, cap=None):
    """Quasi-isomorphic based complex of projectives, built from the top
    degree down by projective covers of pullbacks."""
    alg = C.alg
    if cap is None:
        cap = default_cap(alg)
    degs = C.degrees()
    if not degs:
        return PerfComplex(alg, {}, {})
    hi, lo = max(degs), min(degs)
    R = regular_bimodule(alg)
    P_infos = {}
    P_diffs = {}  # i -> eltmat P^i -> P^{i+1}
    pi = {}  # i -> Morphism P^i.module -> C.term(i)
    i = hi
    while True:
        Ci = C.term(i)
        Pnext = P_infos.get(i + 1)
        if Pnext is None:
            Pn_mod = zero_module(alg)
        else:
            Pn_mod = Pnext.module
        if Ci.total_dim == 0 and Pn_mod.total_dim == 0 and i < hi:
            break
        if i < lo - cap:
            raise CapExceeded("projective replacement exceeded the width cap")
        # X = {(c, p) : d_C c = pi(p), d_P p = 0} inside C^i (+) P^{i+1}
        S = direct_sum([Ci, Pn_mod])
        tgt1 = C.term(i + 1)
        dC = C.diff(i)
        mats = {}
        pi_next = pi.get(i + 1)
        dP_next = P_diffs.get(i + 1)
        if dP_next is not None:
            Pnn = P_infos[i + 2]
            dP_next_mor = _col_sum_diff(R, dP_next, Pnext.module, Pnext.offs, Pnn.module, Pnn.offs)
        else:
            Pnn = None
            dP_next_mor = None
        rows2 = Pnn.module.dims if Pnn else {v: 0 for v in alg.vertices}
        for v in alg.vertices:
            r1 = tgt1.dims[v]
            r2 = rows2[v]
            m = Mat.zero(r1 + r2, S.dims[v])
            blk_dc = dC.mats[v] if dC is not None else Mat.zero(r1, Ci.dims[v])
            blk_pi = pi_next.mats[v] if pi_next is not None else Mat.zero(r1, Pn_mod.dims[v])
            # assemble rows: [d_C, -pi_next] and [0, d_P_next]
            for r in range(r1):
                for c in range(Ci.dims[v]):
                    m.a[r][c] = blk_dc.a[r][c]
                for c in range(Pn_mod.dims[v]):
                    m.a[r][Ci.dims[v] + c] = -blk_pi.a[r][c]
            if dP_next_mor is not None:
                dpm = dP_next_mor.mats[v]
                for r in range(r2):
                    for c in range(Pn_mod.dims[v]):
                        m.a[r1 + r][Ci.dims[v] + c] = dpm.a[r][c]
            mats[v] = m
        # kernel columns give X; cover it
        cols = {v: mats[v].kernel_basis() for v in alg.vertices}
        units = {v: kernel_units(c) for v, c in cols.items()}
        X = _sub_from_columns(S, cols, units, name="pullback")
        if X.total_dim == 0 and i <= lo:
            break
        info, cov, lifts = projective_cover(X)
        # pi^i is the C^i block of the inclusion of X, whose columns are the
        # kernel columns, times the cover; the differential sends generator
        # s to the P^{i+1} block of kernel vector lifts[s], the image of its
        # unit vector
        pi[i] = Morphism(info.module, Ci, {
            v: Mat.from_rows([c[:Ci.dims[v]] for c in cols[v]], ncols=Ci.dims[v]).transpose()
            * cov.mats[v] for v in alg.vertices})
        P_infos[i] = info
        if Pnext is not None and Pnext.verts:
            images = [cols[v][j][Ci.dims[v]:] for v, j in zip(info.verts, lifts)]
            P_diffs[i] = images_to_eltmat(info.verts, Pnext, images)
        i -= 1
    terms = {d: inf.verts for d, inf in P_infos.items() if inf.verts}
    diffs = {d: em for d, em in P_diffs.items()
             if d in terms and (d + 1) in terms}
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
    the regular module placed in degree -m, else None."""
    table = P.cohomology_table()
    if len(table) != 1:
        return None
    (deg, H), = table.items()
    return -deg if _is_regular_module(H) else None

