"""Finite dimensional left modules over a based algebra, and bimodules.

A Module stores one vector space dimension per algebra vertex and its
action as `blocks()`: {i: [(row offset, column offset, block)]} for the
basis elements i of positive degree; i acts by a map M[src(i)] ->
M[tgt(i)] that is zero outside its blocks.  The blocks are nonzero, and
those of one element have disjoint row ranges and disjoint column
ranges.  Idempotents act as identity on their own vertex.  A sum of
columns of a bimodule is a `ColumnSum`, whose blocks are the bimodule's.
Readers whose output is whole matrices lay out one element with
`action_matrix`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property
from math import gcd, isqrt, lcm

from .algebra import Algebra, enveloping, opposite, per_algebra
from .errors import UNDECIDED
from .linalg import Mat, kernel_units, rational


class Module:
    def __init__(self, alg: Algebra, dims, blocks, name="M"):
        self.alg = alg
        self.dims = dict(dims)
        self._blocks = blocks  # {i: [(row offset, column offset, block)]}
        self.name = name

    def blocks(self):
        return self._blocks

    @property
    def total_dim(self):
        return sum(self.dims.values())

    def dim_vector(self):
        return tuple(self.dims[v] for v in self.alg.vertices)

    def is_zero(self):
        return self.total_dim == 0

    def __repr__(self):
        return f"Module({self.name}, dims {self.dim_vector()})"


def action_matrix(M: Module, i):
    """The action of basis element i on M as one matrix, for the readers
    whose output is whole matrices: the block itself when one fills the
    whole shape, else a new matrix.  Nothing is cached."""
    b = M.alg.basis[i]
    rows, cols = M.dims[b.tgt], M.dims[b.src]
    if not b.degree:
        return Mat.identity(rows)
    triples = M.blocks().get(i, ())
    if len(triples) == 1 and (triples[0][2].rows, triples[0][2].cols) == (rows, cols):
        return triples[0][2]
    m = Mat.zero(rows, cols)
    for r0, c0, blk in triples:
        for x, row in enumerate(blk.a):
            m.a[r0 + x][c0:c0 + blk.cols] = row
    return m


class Morphism:
    def __init__(self, src: Module, tgt: Module, mats):
        self.src = src
        self.tgt = tgt
        self.mats = mats  # vertex -> Mat(tgt.dims[v] x src.dims[v])

    def compose(self, other):
        """self after other."""
        return Morphism(other.src, self.tgt, {v: self.mats[v] * other.mats[v] for v in self.mats})

    def add(self, other):
        return Morphism(self.src, self.tgt, {v: self.mats[v] + other.mats[v] for v in self.mats})

    def scale(self, c):
        return Morphism(self.src, self.tgt, {v: self.mats[v].scale(c) for v in self.mats})

    def is_zero(self):
        return all(m.is_zero() for m in self.mats.values())

    def is_iso(self):
        return all(
            self.mats[v].rows == self.mats[v].cols and self.mats[v].is_invertible()
            for v in self.mats
        )

    def __repr__(self):
        return f"Morphism({self.src.name} -> {self.tgt.name})"


def zero_module(alg, name="0"):
    return Module(alg, {v: 0 for v in alg.vertices}, {}, name=name)


def simple_module(alg, v, name=None):
    dims = {u: (1 if u == v else 0) for u in alg.vertices}
    return Module(alg, dims, {}, name=name or f"S[{v}]")


@per_algebra
def injective_module(alg, v):
    """I_v = D(e_v (algebra)), the column of the dual regular bimodule at
    v, shared by every reader."""
    return column_sum(dual_regular_bimodule(alg), [v], name=f"I[{v}]")


@per_algebra
def regular_module(alg):
    return column_sum(regular_bimodule(alg), alg.vertices, name="reg")


def column_sum(X, verts, name=None):
    """The left module of the columns X e_u, u over verts, summed in that
    order, as a `ColumnSum`: a view on the blocks of X.lact_by_col at
    verts, which X stored only when nonzero."""
    return ColumnSum(X, verts, name or f"{X.name}(cols)")


class ColumnSum(Module):
    """The column sum of a bimodule X at a list of vertices, as a view:
    it stores dims and offsets, and its action is read as the blocks of
    X at its columns (`X.lact_by_col`), listed on the first call of `blocks`;
    X keeps only nonzero blocks of positive degree, so they need no test.
    Coordinate offs[(r, w)] + p at vertex w is coordinate p of
    X[(w, verts[r])], so the blocks of one element, one per column where
    it acts, sit block-diagonally.  offs holds only the pairs (r, w) with
    X[(w, verts[r])] nonzero, built from each column's support
    (`Bimodule.column_support`), so a sum costs its nonzero spaces and
    not summands times vertices."""

    def __init__(self, X, verts, name):
        self.bimodule = X
        self.verts = list(verts)
        self.offs = {}
        dims = dict.fromkeys(X.left_alg.vertices, 0)
        support = X.column_support
        for r, u in enumerate(self.verts):
            for w, d in support.get(u, ()):
                self.offs[(r, w)] = dims[w]
                dims[w] += d
        super().__init__(X.left_alg, dims, None, name)

    def blocks(self):
        if self._blocks is None:
            basis, offs = self.alg.basis, self.offs
            self._blocks = {}
            for r, u in enumerate(self.verts):
                for i, blk in self.bimodule.lact_by_col.get(u, {}).items():
                    b = basis[i]
                    self._blocks.setdefault(i, []).append(
                        (offs[(r, b.tgt)], offs[(r, b.src)], blk))
        return self._blocks


def dual_module(M: Module, op=None, name=None):
    """k-dual as a left module over the opposite algebra: each block
    transposed, with its offsets swapped."""
    op = op or opposite(M.alg)
    blocks = {i: [(c0, r0, blk.transpose()) for r0, c0, blk in triples]
              for i, triples in M.blocks().items()}
    return Module(op, M.dims, blocks, name=name or f"D({M.name})")


def direct_sum(mods, name=None):
    """The direct sum module, with the summands' coordinates in order: their
    blocks, shifted by the dimensions of the summands before them."""
    if not mods:
        raise ValueError("empty direct sum")
    alg = mods[0].alg
    dims = dict.fromkeys(alg.vertices, 0)
    blocks = {}
    for m in mods:
        for i, triples in m.blocks().items():
            b = alg.basis[i]
            r, c = dims[b.tgt], dims[b.src]
            blocks.setdefault(i, []).extend((r + r0, c + c0, blk) for r0, c0, blk in triples)
        dims = {v: d + m.dims[v] for v, d in dims.items()}
    return Module(alg, dims, blocks, name=name or "(+)".join(m.name for m in mods))


def _sub_from_columns(N: Module, cols, units, name="sub"):
    """Submodule spanned by the column vectors cols[v] (assumed
    invariant), where column k at v is 1 at coordinate units[v][k] and
    every other column is 0 there, units[v] ascending.  Restricted to
    those rows the inclusion is the identity, so the action of b on
    column k is the entries at units[tgt b] of b times column k.  N's
    action is read as its blocks: each nonzero of a column goes to the
    one block whose columns hold it (a bisection on the block starts),
    and is multiplied into the rows of that block at the unit
    coordinates."""
    alg = N.alg
    nonzeros = {}
    blocks = {}
    for i, triples in N.blocks().items():
        b = alg.basis[i]
        us, cs = units[b.tgt], cols[b.src]
        if not us or not cs:
            continue
        nzs = nonzeros.get(b.src)
        if nzs is None:
            nzs = nonzeros[b.src] = [[(j, x) for j, x in enumerate(c) if x] for c in cs]
        triples = sorted(triples, key=lambda t: t[1])
        starts = [c0 for _, c0, _ in triples]
        rows = {}  # block -> its rows at the unit coordinates, built on first hit
        out = None
        for k, nz in enumerate(nzs):
            parts = {}  # block -> the nonzeros of column k in its columns
            for j, x in nz:
                t = bisect_right(starts, j) - 1
                if t >= 0 and j - starts[t] < triples[t][2].cols:
                    parts.setdefault(t, []).append((j - starts[t], x))
            for t, part in parts.items():
                trows = rows.get(t)
                if trows is None:
                    r0, _, blk = triples[t]
                    lo, hi = bisect_left(us, r0), bisect_left(us, r0 + blk.rows)
                    trows = rows[t] = [(p, blk.a[us[p] - r0]) for p in range(lo, hi)]
                for p, row in trows:
                    s = 0
                    for j, x in part:
                        y = row[j]
                        if y:
                            s = s + y * x
                    if s:
                        if out is None:
                            out = [[0] * len(cs) for _ in us]
                        out[p][k] = out[p][k] + s
        if out is not None:
            blocks[i] = ((0, 0, Mat(len(us), len(cs), out)),)
    return Module(alg, {v: len(cols[v]) for v in alg.vertices}, blocks, name=name)


def kernel(fm: Morphism, name=None):
    """ker fm as (K, cols, units): column k of cols[v], a vector of fm.src
    at v, is the image of basis vector k of K at v; it is 1 at coordinate
    units[v][k] and every other column is 0 there, so the coordinates in
    K of a vector of the kernel are its entries at units[v].  A vertex
    where fm.src is zero gets empty cols and units without a reduction."""
    cols = {v: m.kernel_basis() if m.cols else [] for v, m in fm.mats.items()}
    units = {v: kernel_units(c) if c else [] for v, c in cols.items()}
    K = _sub_from_columns(fm.src, cols, units, name=name or f"ker({fm.src.name})")
    return K, cols, units


def _quotient_maps(vectors, n):
    """Projection from k^n onto its quotient by the span of the vectors,
    and a section of it, in the coordinates left free by the rref of the
    span."""
    R, pivots = Mat.from_rows([v for v in vectors if any(v)], ncols=n).rref()
    pivset = set(pivots)
    free = [j for j in range(n) if j not in pivset]
    p = Mat.zero(len(free), n)
    for r, j in enumerate(free):
        p.a[r][j] = 1
    for i, pc in enumerate(pivots):
        for r, j in enumerate(free):
            if R.a[i][j]:
                p.a[r][pc] = -R.a[i][j]
    s = Mat.zero(n, len(free))
    for r, j in enumerate(free):
        s.a[j][r] = 1
    return p, s


def _projected(triples, p, s):
    """p times the map with the given blocks times s, one block at a time:
    a column slice of p, the block and a row slice of s."""
    m = None
    for r0, c0, blk in triples:
        part = (Mat(p.rows, blk.rows, [row[r0:r0 + blk.rows] for row in p.a])
                * (blk * Mat(blk.cols, s.cols, s.a[c0:c0 + blk.cols])))
        m = part if m is None else m + part
    return m


def quotient(N: Module, cols_by_vertex, name="quot"):
    """Quotient of N by the invariant subspace spanned by the given column
    vectors.  Returns (Q, projection).  b acts on Q by the projection
    times b's action times the section, block by block (`_projected`)."""
    proj = {}
    sect = {}
    for v in N.alg.vertices:
        proj[v], sect[v] = _quotient_maps(cols_by_vertex.get(v, []), N.dims[v])
    dims = {v: proj[v].rows for v in N.alg.vertices}
    blocks = {}
    for i, triples in N.blocks().items():
        b = N.alg.basis[i]
        m = _projected(triples, proj[b.tgt], sect[b.src])
        if not m.is_zero():
            blocks[i] = ((0, 0, m),)
    Q = Module(N.alg, dims, blocks, name=name)
    return Q, Morphism(N, Q, proj)


def radical_columns(M: Module):
    """The nonzero columns of the radical action matrices of M, by the
    vertex they lie at: a spanning set of rad M.  A vertex where M is zero
    gets no columns.  A nonzero column of a block, padded by zeros, is one
    of the whole action, as no other block shares its columns."""
    cols = {v: [] for v in M.alg.vertices}
    for g, triples in M.blocks().items():
        t = M.alg.basis[g].tgt
        for r0, _, blk in triples:
            above, below = [0] * r0, [0] * (M.dims[t] - r0 - blk.rows)
            cols[t].extend([*above, *c, *below] for c in zip(*blk.a) if any(c))
    return cols


def top_of(M: Module):
    """M / rad M, with the projection."""
    return quotient(M, radical_columns(M), name=f"top({M.name})")


def top_dim_vector(M: Module):
    """Dimension vector of top M = M / rad M, without building the quotient."""
    cols = radical_columns(M)
    return tuple(M.dims[v] - (Mat.from_rows(cols[v]).rank() if cols[v] else 0)
                 for v in M.alg.vertices)


def hom(M: Module, N: Module):
    """Basis of Hom(M, N) as a list of Morphisms."""
    alg = M.alg
    verts = alg.vertices
    off = {}
    n = 0
    for v in verts:
        off[v] = n
        n += N.dims[v] * M.dims[v]
    if n == 0:
        return []
    # f commutes with generator g when N_g f_u - f_w M_g = 0: one row per
    # entry (r, c), from row r of N_g and column c of M_g, read off blocks
    rows = []
    for g in alg.generators():
        b = alg.basis[g]
        u, w = b.src, b.tgt
        nrows = {r0 + x: [(c0 + y, e) for y, e in enumerate(row) if e]
                 for r0, c0, blk in N.blocks().get(g, ()) for x, row in enumerate(blk.a)}
        mcols = {c0 + y: [(r0 + x, e) for x, e in enumerate(col) if e]
                 for r0, c0, blk in M.blocks().get(g, ()) for y, col in enumerate(blk.columns())}
        for r in range(N.dims[w]):
            for c in range(M.dims[u]):
                row = [0] * n
                for k, e in nrows.get(r, ()):
                    row[off[u] + k * M.dims[u] + c] += e
                for k, e in mcols.get(c, ()):
                    row[off[w] + r * M.dims[w] + k] -= e
                if any(row):
                    rows.append(row)
    kb = Mat.from_rows(rows, ncols=n).kernel_basis()

    def block(vec, v):
        # N.dims[v] rows of M.dims[v] consecutive entries each, from off[v]
        r, c, o = N.dims[v], M.dims[v], off[v]
        return Mat(r, c, [vec[o + k * c:o + (k + 1) * c] for k in range(r)])

    return [Morphism(M, N, {v: block(vec, v) for v in verts}) for vec in kb]


def _weighted_sum(H):
    """The fixed combination sum over k of (k+1) h_k."""
    out = H[0]
    for k, h in enumerate(H[1:], start=2):
        out = out.add(h.scale(k))
    return out


def _trace_rank(F, G):
    """Rank of the Gram matrix tr(g f) between a basis F of Hom(X, Y) and
    a basis G of Hom(Y, X).  Maps in the radical of the category compose
    to nilpotents, so the form lives on the semisimple quotients, where it
    is nondegenerate in characteristic 0 (Dickson).  The rank is therefore
    sum_j d_j a_j(X) a_j(Y), where a_j counts the summands isomorphic to
    the indecomposable X_j and d_j = dim End(X_j)/rad."""
    if not F or not G:
        return 0
    X, Y = F[0].src, F[0].tgt
    # tr(g f) = sum_v sum_{a,b} g_v[a][b] f_v[b][a], a over X, b over Y
    coords = [(v, a, b) for v in X.alg.vertices
              for a in range(X.dims[v]) for b in range(Y.dims[v])]
    fs = []
    for fm in F:
        entries = ((k, fm.mats[v].a[b][a]) for k, (v, a, b) in enumerate(coords))
        fs.append([(k, x) for k, x in entries if x])
    gs = [[g.mats[v].a[a][b] for v, a, b in coords] for g in G]
    gram = [[sum(x * g[k] for k, x in fe) for g in gs] for fe in fs]
    return Mat.from_rows(gram).rank()


def is_isomorphic(M: Module, N: Module):
    """Exact isomorphism test.  True comes with an explicit isomorphism
    when a basis element of Hom(M, N) or the fixed combination
    sum (k+1) h_k is invertible.  Otherwise the trace ranks decide:
    r(M, M) + r(N, N) - 2 r(M, N) = sum_j d_j (a_j(M) - a_j(N))^2 (see
    `_trace_rank`), which vanishes exactly when M and N have the same
    indecomposable summands with the same multiplicities (Krull-Schmidt)."""
    if M.dim_vector() != N.dim_vector():
        return False
    if M.total_dim == 0:
        return True
    H = hom(M, N)
    if not H:
        return False
    if any(h.is_iso() for h in H) or _weighted_sum(H).is_iso():
        return True
    EM, EN = hom(M, M), hom(N, N)
    return _trace_rank(EM, EM) + _trace_rank(EN, EN) == 2 * _trace_rank(H, hom(N, M))


def _min_poly(mats):
    """Minimal polynomial (coefficients, low degree first, monic) of the
    endomorphism with the given square blocks, one per vertex.  Its powers
    are flattened block by block until one depends on those before it:
    the one kernel vector of that matrix is 1 at its single free column,
    the last, so it is the monic minimal polynomial."""
    mats = [m for m in mats if m.rows]
    power = [Mat.identity(m.rows) for m in mats]
    flat = []
    while True:
        flat.append([x for m in power for row in m.a for x in row])
        kb = Mat.from_rows(flat).transpose().kernel_basis()
        if kb:
            return kb[0]
        power = [p * m for p, m in zip(power, mats)]


def _divisors(n):
    """The positive divisors of n > 0, by trial division up to sqrt(n)."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _rational_roots(coeffs):
    """The distinct rational roots, ascending, of the nonzero polynomial
    sum c_i x^i.  Rational root theorem: once the coefficients are scaled
    to integers, a root p/q in lowest terms has p dividing the lowest and
    q the highest nonzero coefficient; 0 is a root when c_0 is 0."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    while not ints[-1]:
        ints.pop()
    low = next(i for i, c in enumerate(ints) if c)
    ints = ints[low:]
    d = len(ints) - 1
    roots = [0] if low else []
    for q in _divisors(abs(ints[-1])):
        for p in _divisors(abs(ints[0])):
            if gcd(p, q) != 1:
                continue
            for x in (p, -p):
                # q^d times the value at x/q
                if not sum(c * x**i * q**(d - i) for i, c in enumerate(ints)):
                    roots.append(rational(x, q))
    return sorted(roots)


def _fitting_pieces(M: Module, fm: Morphism):
    """M split by Fitting's lemma at the rational eigenvalues of the
    endomorphism f: the generalized eigenspaces ker (f - r)^k, k >= dim M_v
    at each vertex v, at the rational roots r of f's minimal polynomial,
    and, if they do not fill M, the quotient of M by their sum.  f commutes
    with the action, so each primary component of f is a submodule and M is
    their direct sum; that quotient is the sum of the other components."""
    pieces = []
    cols = {v: [] for v in M.alg.vertices}
    for r in _rational_roots(_min_poly([fm.mats[v] for v in M.alg.vertices])):
        mats = {}
        for v, m in fm.mats.items():
            m = m + Mat.identity(m.rows).scale(-r)
            k = 1
            while k < m.rows:
                m, k = m * m, 2 * k
            mats[v] = m
        K, kcols, _ = kernel(Morphism(M, M, mats), name=f"{M.name}~")
        pieces.append(K)
        for v, c in kcols.items():
            cols[v].extend(c)
    if sum(P.total_dim for P in pieces) < M.total_dim:
        pieces.append(quotient(M, cols, name=f"{M.name}~")[0])
    return pieces


def decompose(M: Module):
    """Split M into indecomposable summands, by Fitting's lemma.

    Returns (summands, certified): certified is True when every summand
    has End/rad = Q (trace rank 1), and UNDECIDED when some summand has a
    larger End/rad that no candidate (a basis element of End or their
    fixed combination) splits into two `_fitting_pieces` or more.  Only
    rational roots split, so a candidate with minimal polynomial
    (x^2 + 1)(x^2 - 2) is left to the other candidates, to the recursion
    or to UNDECIDED; no split is ever wrong.
    """
    if M.total_dim == 0:
        return [], True
    E = hom(M, M)
    if _trace_rank(E, E) == 1:
        return [M], True
    for fm in E + [_weighted_sum(E)]:
        pieces = _fitting_pieces(M, fm)
        if len(pieces) > 1:
            splits = [decompose(P) for P in pieces]
            certified = all(cert is True for _, cert in splits) or UNDECIDED
            return [S for subs, _ in splits for S in subs], certified
    return [M], UNDECIDED


# -- bimodules ---------------------------------------------------------


class _PairDims(dict):
    """Dimensions by vertex pair that store only the nonzero ones: an
    absent pair reads as 0."""

    def __missing__(self, key):
        return 0


class Bimodule:
    """An (A, B)-bimodule with one space per vertex pair (u, v).

    The A-basis element i acts on the spaces with right vertex v by a map
    X[(src_i, v)] -> X[(tgt_i, v)], kept as lact_by_col[v][i]: the left
    action on the column X e_v, in basis order.  Right multiplication by
    the B-basis element j, X[(u, tgt_j)] -> X[(u, src_j)], is kept as
    ract_by_elt[j][u], so that it visits only the rows where j acts.
    Only nonzero dimensions and the nonzero blocks of elements of positive
    degree are kept: an idempotent acts as the identity on its own spaces,
    and an absent block is zero.  The constructor takes the blocks as flat
    dicts {(i, v): Mat} and {(u, j): Mat} and groups them; its callers
    pass only nonzero blocks, and its readers read the grouped dicts.
    """

    def __init__(self, left_alg, right_alg, dims, lact, ract, name="X"):
        self.left_alg = left_alg
        self.right_alg = right_alg
        self.dims = _PairDims((k, d) for k, d in dims.items() if d)
        self.lact_by_col = {}
        for (i, v), m in sorted(lact.items(), key=lambda kv: kv[0][0]):
            self.lact_by_col.setdefault(v, {})[i] = m
        self.ract_by_elt = {}
        for (u, j), m in ract.items():
            self.ract_by_elt.setdefault(j, {})[u] = m
        self.name = name

    @cached_property
    def column_support(self):
        """{v: [(u, dim X[(u, v)])]}: the nonzero spaces of each column."""
        support = {}
        for (u, v), d in self.dims.items():
            support.setdefault(v, []).append((u, d))
        return support

    @property
    def total_dim(self):
        return sum(self.dims.values())

    def __repr__(self):
        return f"Bimodule({self.name}, dim {self.total_dim})"


@per_algebra
def regular_bimodule(alg: Algebra):
    """The algebra over itself; X[(u, v)] has the basis elements with
    tgt == u and src == v as coordinates, in basis order, listed in
    X.basis_indices[(u, v)] when there are any; basis element i is
    coordinate X.basis_pos[i] of its pair.  The projective, injective
    and regular modules are read off this bimodule or its dual, so this
    is where the multiplication table becomes their action matrices, in
    one pass over the table."""
    by_pair = {}  # only the nonempty pairs
    for i, b in enumerate(alg.basis):
        by_pair.setdefault((b.tgt, b.src), []).append(i)
    pos = {}
    for lst in by_pair.values():
        for c, i in enumerate(lst):
            pos[i] = c
    dims = {pair: len(lst) for pair, lst in by_pair.items()}
    lact, ract = {}, {}
    # b_j * b_i fills column pos[i] of the left action of b_j and column
    # pos[j] of the right action of b_i
    for (j, i), prod in alg.mult.items():
        bj, bi = alg.basis[j], alg.basis[i]
        if bj.degree:
            m = lact.get((j, bi.src))
            if m is None:
                m = lact[(j, bi.src)] = Mat.zero(dims[(bj.tgt, bi.src)], dims[(bj.src, bi.src)])
            for k, c in prod.items():
                m.a[pos[k]][pos[i]] = c
        if bi.degree:
            m = ract.get((bj.tgt, i))
            if m is None:
                m = ract[(bj.tgt, i)] = Mat.zero(dims[(bj.tgt, bi.src)], dims[(bj.tgt, bi.tgt)])
            for k, c in prod.items():
                m.a[pos[k]][pos[j]] = c
    X = Bimodule(alg, alg, dims, lact, ract, name="reg")
    X.basis_indices = by_pair
    X.basis_pos = pos
    return X


@per_algebra
def dual_regular_bimodule(alg: Algebra):
    """The k-dual of the algebra as a bimodule: the transpose of the
    regular bimodule with its sides swapped.  X[(u, v)] is the dual of the
    span of basis elements with src == u and tgt == v; a acts on the left
    by (a.xi)(x) = xi(x * a) and on the right by (xi.a)(x) = xi(a * x)."""
    R = regular_bimodule(alg)
    dims = {(u, v): d for (v, u), d in R.dims.items()}
    lact = {(j, v): m.transpose() for j, by_row in R.ract_by_elt.items()
            for v, m in by_row.items()}
    ract = {(u, j): m.transpose() for u, by_elt in R.lact_by_col.items()
            for j, m in by_elt.items()}
    return Bimodule(alg, alg, dims, lact, ract, name="D(reg)")


@per_algebra
def env_module(alg: Algebra, bimodule):
    """bimodule(alg), regular_bimodule or dual_regular_bimodule, as a
    module over the enveloping algebra."""
    return bimodule_to_env_module(bimodule(alg))


def _column_nonzeros(m, n):
    """The (row, entry) nonzeros of each of the n columns of m; none when
    m, a block that is not stored, is None."""
    if m is None:
        return [()] * n
    return [[(k, x) for k, x in enumerate(col) if x] for col in m.columns()]


def tensor_bimod_bimod(T: Bimodule, S: Bimodule, name=None):
    """T tensor_B S for an (A, B)-bimodule T and a (B, C)-bimodule S,
    giving an (A, C)-bimodule.

    The big space at (u, w) is the sum over v of T[(u, v)] (x) S[(v, w)],
    summand v from offsets[(u, v, w)], coordinate a (x) b at a * dim S[(v, w)]
    + b.  Its quotient by the relations t.g (x) s - t (x) g.s, g a generator
    of B, is the space of the product, with a projection and a section.  i
    acts on summand v by T's block kron the identity, j by the identity
    kron S's block; each action is projected block by block."""
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
        rgs = T.ract_by_elt.get(g, {})  # rgs[u]: T[(u,t)] -> T[(u,s)]
        for u in A.vertices:
            rg = rgs.get(u)
            rcols = _column_nonzeros(rg, T.dims[(u, t)])
            for w in C.vertices:
                lg = S.lact_by_col.get(w, {}).get(g)  # S[(s,w)] -> S[(t,w)]
                if rg is None and lg is None:
                    continue
                lcols = _column_nonzeros(lg, S.dims[(s, w)])
                dss, dtw = S.dims[(s, w)], S.dims[(t, w)]
                o_s, o_t = offs[(u, s, w)], offs[(u, t, w)]
                for a, rnz in enumerate(rcols):
                    for b, lnz in enumerate(lcols):
                        row = [0] * wdims[(u, w)]
                        for c, x in rnz:
                            row[o_s + c * dss + b] += x
                        for d, x in lnz:
                            row[o_t + a * dtw + d] -= x
                        if any(row):
                            rel_rows[(u, w)].append(row)
    ps = {k: _quotient_maps(rel_rows[k], n) for k, n in wdims.items()}
    dims = {k: ps[k][0].rows for k in wdims}
    # key -> (target pair, source pair, the action's blocks in the big space)
    lblocks, rblocks = {}, {}
    for v, by_elt in T.lact_by_col.items():
        for w in C.vertices:
            if S.dims[(v, w)]:
                eye = Mat.identity(S.dims[(v, w)])
                for i, la in by_elt.items():
                    bi = A.basis[i]
                    lblocks.setdefault((i, w), ((bi.tgt, w), (bi.src, w), []))[2].append(
                        (offs[(bi.tgt, v, w)], offs[(bi.src, v, w)], la.kron(eye)))
    for j, by_row in S.ract_by_elt.items():
        bj = C.basis[j]
        for v, ra in by_row.items():
            for u in A.vertices:
                if T.dims[(u, v)]:
                    rblocks.setdefault((u, j), ((u, bj.src), (u, bj.tgt), []))[2].append(
                        (offs[(u, v, bj.src)], offs[(u, v, bj.tgt)],
                         Mat.identity(T.dims[(u, v)]).kron(ra)))
    lact, ract = {}, {}
    for acts, blocks in ((lact, lblocks), (ract, rblocks)):
        for key, (tgt, src, triples) in blocks.items():
            m = _projected(triples, ps[tgt][0], ps[src][1])
            if not m.is_zero():
                acts[key] = m
    out = Bimodule(A, C, dims, lact, ract, name=name or f"{T.name}(x){S.name}")
    out.tensor_data = {"offsets": offs, "proj": {k: ps[k][0] for k in wdims},
                       "sect": {k: ps[k][1] for k in wdims}, "big_dims": wdims}
    return out


def bimodule_to_env_module(X: Bimodule):
    """View an (A, A)-bimodule as a left module over A (x) A^op.

    i (x) j^op sends X[(src_i, tgt_j)] to X[(tgt_i, src_j)].  Only the
    stored blocks are visited: e_u (x) j acts by ract_by_elt[j][u],
    i (x) e_v by lact_by_col[v][i], and i (x) j with both of positive
    degree by ract_by_elt[j][tgt_i] * lact_by_col[tgt_j][i] when both are
    stored."""
    A = X.left_alg
    E = enveloping(A)
    _, _, pair_index = E.tensor_info
    idem = A.idem
    act = {}
    by_tgt = {}  # (u, tgt_j) -> [(j, ract_by_elt[j][u])]
    for j, by_row in X.ract_by_elt.items():
        for u, m in by_row.items():
            act[pair_index[(idem[u], j)]] = ((0, 0, m),)
            by_tgt.setdefault((u, A.basis[j].tgt), []).append((j, m))
    for v, by_elt in X.lact_by_col.items():
        for i, la in by_elt.items():
            act[pair_index[(i, idem[v])]] = ((0, 0, la),)
            for j, ra in by_tgt.get((A.basis[i].tgt, v), ()):
                m = ra * la
                if not m.is_zero():
                    act[pair_index[(i, j)]] = ((0, 0, m),)
    dims = {x: X.dims[x] for x in E.vertices}
    return Module(E, dims, dict(sorted(act.items())), name=X.name)


def outer_tensor_module(M: Module, N: Module, t: Algebra, name=None):
    """M (x) N as a left module over the tensor-product algebra t of
    M.alg and N.alg."""
    a, b, pair_index = t.tensor_info
    dims = {(u, v): M.dims[u] * N.dims[v] for u in a.vertices for v in b.vertices}
    # each factor's nonzero actions, its identities and its stored ones
    ma, na = ({x.alg.idem[v]: Mat.identity(d) for v, d in x.dims.items() if d}
              | {i: action_matrix(x, i) for i in x.blocks()} for x in (M, N))
    blocks = {}
    for i, x in ma.items():
        for j, y in na.items():
            if a.basis[i].degree + b.basis[j].degree:
                blocks[pair_index[(i, j)]] = ((0, 0, x.kron(y)),)
    return Module(t, dims, dict(sorted(blocks.items())), name=name or f"{M.name}(x){N.name}")
