"""Finite dimensional left modules over a based algebra, and bimodules.

A Module stores one vector space dimension per algebra vertex and one
matrix per basis element that acts nontrivially; the matrix for a basis
element b is a map M[src(b)] -> M[tgt(b)].  Idempotents act as identity
on their own vertex and are not stored.  A sum of several columns of a
bimodule is a `ColumnSum`, which reads its action as the bimodule's
blocks and builds these matrices only when asked for them.
"""

from __future__ import annotations

from bisect import bisect_left

from .algebra import Algebra, enveloping, opposite, per_algebra
from .errors import NotAHomomorphism, UNDECIDED
from .linalg import Mat, kernel_units, rational


class Module:
    def __init__(self, alg: Algebra, dims, act, name="M"):
        self.alg = alg
        self.dims = dict(dims)
        # keep only the nonzero action matrices
        self.act = {i: m for i, m in act.items() if not m.is_zero()}
        self.name = name
        self._resolution = None  # see homology._module_resolution

    def act_mat(self, i):
        m = self.act.get(i)
        if m is not None:
            return m
        b = self.alg.basis[i]
        if b.degree == 0:
            return Mat.identity(self.dims[b.src])
        return Mat.zero(self.dims[b.tgt], self.dims[b.src])

    def blocks(self):
        """The stored actions as {i: [(row offset, column offset, block)]};
        here each is its one matrix."""
        return {i: ((0, 0, m),) for i, m in self.act.items()}

    @property
    def total_dim(self):
        return sum(self.dims.values())

    def dim_vector(self):
        return tuple(self.dims[v] for v in self.alg.vertices)

    def is_zero(self):
        return self.total_dim == 0

    def check(self):
        """Verify the module axioms on the multiplication table."""
        for i, b in enumerate(self.alg.basis):
            m = self.act_mat(i)
            if m.rows != self.dims[b.tgt] or m.cols != self.dims[b.src]:
                raise ValueError(f"action of {b} has wrong shape")
        for (i, j), prod in self.alg.mult.items():
            bi, bj = self.alg.basis[i], self.alg.basis[j]
            if bi.src != bj.tgt:
                continue
            lhs = self.act_mat(i) * self.act_mat(j)
            rhs = Mat.zero(lhs.rows, lhs.cols)
            for k, c in prod.items():
                rhs = rhs + self.act_mat(k).scale(c)
            if lhs != rhs:
                raise ValueError(f"action breaks product {bi} * {bj}")

    def __repr__(self):
        return f"Module({self.name}, dims {self.dim_vector()})"


class Morphism:
    def __init__(self, src: Module, tgt: Module, mats):
        self.src = src
        self.tgt = tgt
        self.mats = mats  # vertex -> Mat(tgt.dims[v] x src.dims[v])

    def check(self):
        for g in self.src.alg.generators():
            b = self.src.alg.basis[g]
            lhs = self.tgt.act_mat(g) * self.mats[b.src]
            rhs = self.mats[b.tgt] * self.src.act_mat(g)
            if lhs != rhs:
                raise NotAHomomorphism(f"square fails at generator {b}")

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


def projective_module(alg, v, name=None):
    """P_v = (algebra) e_v, the column of the regular bimodule at v."""
    return column_sum(regular_bimodule(alg), [v], name=name or f"P[{v}]")[0]


@per_algebra
def injective_module(alg, v):
    """I_v = D(e_v (algebra)), the column of the dual regular bimodule at
    v, shared by every reader together with the resolution kept on it."""
    return column_sum(dual_regular_bimodule(alg), [v], name=f"I[{v}]")[0]


@per_algebra
def regular_module(alg):
    return column_sum(regular_bimodule(alg), alg.vertices, name="reg")[0]


def column_sum(X, verts, name=None):
    """The left module of the columns X e_u, u over verts, summed in that
    order, as (module, offsets) where offsets[(r, w)] locates column r at
    vertex w.  Only the blocks of X.lact_by_col at verts are read.  A
    single column shares its blocks with X; more columns give a
    `ColumnSum`, a view on those blocks."""
    name = name or f"{X.name}(cols)"
    if len(verts) == 1:
        (u,) = verts
        alg = X.left_alg
        dims = {w: X.dims[(w, u)] for w in alg.vertices}
        act = X.lact_by_col.get(u, {})
        return Module(alg, dims, act, name=name), {(0, w): 0 for w in alg.vertices}
    M = ColumnSum(X, verts, name)
    return M, M.offs


class ColumnSum(Module):
    """The column sum of a bimodule X at a list of vertices, as a view:
    it stores dims and offsets, and its action is read as the blocks of
    X.lact_by_col at its columns (`blocks`).  The dense `act` is built on
    first read, by `_dense_act`."""

    def __init__(self, X, verts, name):
        alg = X.left_alg
        self.alg = alg
        self.name = name
        self._resolution = None
        self.bimodule = X
        self.verts = list(verts)
        self.offs = {}
        self.dims = {}
        for w in alg.vertices:
            n = 0
            for r, u in enumerate(self.verts):
                self.offs[(r, w)] = n
                n += X.dims.get((w, u), 0)  # no __missing__ call per absent pair
            self.dims[w] = n
        self._blocks = self._act = None

    def blocks(self):
        if self._blocks is None:
            basis, offs = self.alg.basis, self.offs
            self._blocks = {}
            for r, u in enumerate(self.verts):
                for i, blk in self.bimodule.lact_by_col.get(u, {}).items():
                    b = basis[i]
                    if b.degree:
                        self._blocks.setdefault(i, []).append(
                            (offs[(r, b.tgt)], offs[(r, b.src)], blk))
        return self._blocks

    @property
    def act(self):
        if self._act is None:
            self._act = self._dense_act()
        return self._act

    def _dense_act(self):
        act = {}
        for i, triples in self.blocks().items():
            b = self.alg.basis[i]
            m = act[i] = Mat.zero(self.dims[b.tgt], self.dims[b.src])
            for r0, c0, blk in triples:
                for x, row in enumerate(blk.a):
                    m.a[r0 + x][c0 : c0 + blk.cols] = row
        return act


def dual_module(M: Module, op=None, name=None):
    """k-dual as a left module over the opposite algebra."""
    op = op or opposite(M.alg)
    act = {i: m.transpose() for i, m in M.act.items()}
    return Module(op, dict(M.dims), act, name=name or f"D({M.name})")


def direct_sum(mods, name=None):
    """The direct sum module, with the summands' coordinates in order."""
    if not mods:
        raise ValueError("empty direct sum")
    alg = mods[0].alg
    dims = {v: sum(m.dims[v] for m in mods) for v in alg.vertices}
    keys = set()
    for m in mods:
        keys.update(m.act)
    act = {i: Mat.block_diag([m.act_mat(i) for m in mods]) for i in keys}
    return Module(alg, dims, act, name=name or "(+)".join(m.name for m in mods))


def _sub_from_columns(N: Module, cols, units, name="sub"):
    """Submodule spanned by the column vectors cols[v] (assumed
    invariant), where column k at v is 1 at coordinate units[v][k] and
    every other column is 0 there, units[v] ascending.  Restricted to
    those rows the inclusion is the identity, so the action of b on
    column k is the entries at units[tgt b] of b times column k.  N's
    action is read as its blocks, and only the nonzeros of a column that
    fall in a block's columns are multiplied, into the rows of the block
    at the unit coordinates."""
    alg = N.alg
    nonzeros = {}
    act = {}
    for i, triples in N.blocks().items():
        b = alg.basis[i]
        us, cs = units[b.tgt], cols[b.src]
        if not us or not cs:
            continue
        nzs = nonzeros.get(b.src)
        if nzs is None:
            nzs = nonzeros[b.src] = [[(j, x) for j, x in enumerate(c) if x] for c in cs]
        out = None
        for r0, c0, blk in triples:
            lo, hi = bisect_left(us, r0), bisect_left(us, r0 + blk.rows)
            if lo == hi:
                continue
            rows = [(p, blk.a[us[p] - r0]) for p in range(lo, hi)]
            c1 = c0 + blk.cols
            for k, nz in enumerate(nzs):
                part = [(j - c0, x) for j, x in nz if c0 <= j < c1]
                if not part:
                    continue
                for p, row in rows:
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
            act[i] = Mat(len(us), len(cs), out)
    return Module(alg, {v: len(cols[v]) for v in alg.vertices}, act, name=name)


def kernel(fm: Morphism, name=None):
    """ker fm as (K, cols, units): column k of cols[v], a vector of fm.src
    at v, is the image of basis vector k of K at v; it is 1 at coordinate
    units[v][k] and every other column is 0 there, so the coordinates in
    K of a vector of the kernel are its entries at units[v]."""
    cols = {v: m.kernel_basis() for v, m in fm.mats.items()}
    units = {v: kernel_units(c) for v, c in cols.items()}
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


def quotient(N: Module, cols_by_vertex, name="quot"):
    """Quotient of N by the invariant subspace spanned by the given column
    vectors.  Returns (Q, projection)."""
    proj = {}
    sect = {}
    for v in N.alg.vertices:
        proj[v], sect[v] = _quotient_maps(cols_by_vertex.get(v, []), N.dims[v])
    dims = {v: proj[v].rows for v in N.alg.vertices}
    act = {}
    for i in list(N.act):
        b = N.alg.basis[i]
        act[i] = proj[b.tgt] * (N.act_mat(i) * sect[b.src])
    Q = Module(N.alg, dims, act, name=name)
    return Q, Morphism(N, Q, proj)


def radical_columns(M: Module):
    """The nonzero columns of the radical action matrices of M, by the
    vertex they lie at: a spanning set of rad M.  Only the stored nonzero
    actions of positive degree are read, so a vertex where M is zero gets
    no columns."""
    cols = {v: [] for v in M.alg.vertices}
    for g, m in M.act.items():
        b = M.alg.basis[g]
        if b.degree:
            cols[b.tgt].extend(c for c in m.columns() if any(c))
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
    rows = []
    for g in alg.generators():
        b = alg.basis[g]
        u, w = b.src, b.tgt
        NA = N.act_mat(g)
        MA = M.act_mat(g)
        for r in range(N.dims[w]):
            for c in range(M.dims[u]):
                row = [0] * n
                for k in range(N.dims[u]):
                    if NA.a[r][k]:
                        row[off[u] + k * M.dims[u] + c] += NA.a[r][k]
                for k in range(M.dims[w]):
                    if MA.a[k][c]:
                        row[off[w] + r * M.dims[w] + k] -= MA.a[k][c]
                if any(row):
                    rows.append(row)
    kb = Mat.from_rows(rows, ncols=n).kernel_basis()

    def block(vec, v):
        # N.dims[v] rows of M.dims[v] consecutive entries each, from off[v]
        r, c, o = N.dims[v], M.dims[v], off[v]
        return Mat(r, c, [vec[o + k * c:o + (k + 1) * c] for k in range(r)])

    return [Morphism(M, N, {v: block(vec, v) for v in verts}) for vec in kb]


def hom_dim(M: Module, N: Module):
    return len(hom(M, N))


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


def _min_poly(blocks):
    """Minimal polynomial (coeff list, low degree first, monic) of the
    block-diagonal endomorphism given per-vertex square matrices."""
    big = Mat.block_diag([b for b in blocks if b.rows])
    n = big.rows
    if n == 0:
        return [1]
    # Krylov on the flattened powers
    powers = [Mat.identity(n)]
    vecs = [[x for row in powers[0].a for x in row]]
    while True:
        nxt = powers[-1] * big
        v = [x for row in nxt.a for x in row]
        A = Mat.from_rows(vecs).transpose()
        sol = A.solve(v)
        if sol is not None:
            coeffs = [-c for c in sol] + [1]
            return coeffs
        powers.append(nxt)
        vecs.append(v)


def _factor_poly(coeffs):
    """Irreducible factors over Q via sympy; returns [(coeff list, mult)]."""
    import sympy

    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(str(c)) * x**i for i, c in enumerate(coeffs))
    _, facs = sympy.Poly(expr, x).factor_list()
    out = []
    for p, m in facs:
        cl = [sympy.Rational(c) for c in reversed(sympy.Poly(p, x).all_coeffs())]
        out.append((cl, m))
    return out


def _poly_of_morphism(fm: Morphism, coeffs):
    """p(f) as a Morphism, p given low-to-high over sympy Rationals."""
    import sympy

    alg = fm.src.alg
    mats = {}
    for v in alg.vertices:
        m = fm.mats[v]
        acc = Mat.zero(m.rows, m.rows)
        pw = Mat.identity(m.rows)
        for c in coeffs:
            if c:
                acc = acc + pw.scale(rational(int(sympy.numer(c)), int(sympy.denom(c))))
            pw = pw * m
        mats[v] = acc
    return Morphism(fm.src, fm.src, mats)


def decompose(M: Module):
    """Split M into indecomposable summands.

    Returns (summands, certified) where summands is a list of Modules and
    certified is True when every piece has End/rad = Q (trace rank 1), or
    UNDECIDED when some piece has a larger End/rad that no candidate
    endomorphism (a basis element of End or their fixed combination)
    splits.  Only this path loads sympy, so that importing quivercy
    does not.
    """
    import sympy

    if M.total_dim == 0:
        return [], True
    E = hom(M, M)
    if _trace_rank(E, E) == 1:
        return [M], True
    for fm in E + [_weighted_sum(E)]:
        blocks = [fm.mats[v] for v in M.alg.vertices]
        mp = _min_poly(blocks)
        facs = _factor_poly(mp)
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
            subs, cert = decompose(K)
            summands.extend(subs)
            if cert is not True:
                certified = cert
        return summands, certified
    return [M], UNDECIDED


# -- bimodules ---------------------------------------------------------


class _PairDims(dict):
    """Dimensions by vertex pair that store only the nonzero ones: an
    absent pair reads as 0."""

    def __missing__(self, key):
        return 0


class Bimodule:
    """An (A, B)-bimodule with one space per vertex pair (u, v).

    lact[(i, v)] is the action of the A-basis element i on the spaces with
    right vertex v, a map X[(src_i, v)] -> X[(tgt_i, v)].  ract[(u, j)] is
    right multiplication by the B-basis element j, X[(u, tgt_j)] ->
    X[(u, src_j)].  Only nonzero matrices and dimensions are stored.
    lact_by_col[v] = {i: lact[(i, v)]}, in basis order, is the left action
    on the column X e_v, grouped once so that no reader scans the basis;
    ract_by_elt[j] lists the pairs (u, ract[(u, j)]) in the same way, so
    that a right multiplication by j visits only the rows where it acts.
    """

    def __init__(self, left_alg, right_alg, dims, lact, ract, name="X"):
        self.left_alg = left_alg
        self.right_alg = right_alg
        self.dims = _PairDims((k, d) for k, d in dims.items() if d)
        self.lact = {k: m for k, m in lact.items() if not m.is_zero()}
        self.ract = {k: m for k, m in ract.items() if not m.is_zero()}
        self.lact_by_col = {}
        for (i, v), m in sorted(self.lact.items(), key=lambda kv: kv[0][0]):
            self.lact_by_col.setdefault(v, {})[i] = m
        self.ract_by_elt = {}
        for (u, j), m in self.ract.items():
            self.ract_by_elt.setdefault(j, []).append((u, m))
        self.name = name

    def lact_mat(self, i, v):
        m = self.lact.get((i, v))
        if m is not None:
            return m
        b = self.left_alg.basis[i]
        if b.degree == 0:
            return Mat.identity(self.dims[(b.src, v)])
        return Mat.zero(self.dims[(b.tgt, v)], self.dims[(b.src, v)])

    def ract_mat(self, u, j):
        m = self.ract.get((u, j))
        if m is not None:
            return m
        b = self.right_alg.basis[j]
        if b.degree == 0:
            return Mat.identity(self.dims[(u, b.src)])
        return Mat.zero(self.dims[(u, b.src)], self.dims[(u, b.tgt)])

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
    is where the multiplication table becomes their action matrices."""
    by_pair = {}  # only the nonempty pairs: an enveloping algebra has many
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
    lact = {(j, v): m.transpose() for (v, j), m in R.ract.items()}
    ract = {(u, j): m.transpose() for (j, u), m in R.lact.items()}
    return Bimodule(alg, alg, dims, lact, ract, name="D(reg)")


@per_algebra
def env_module(alg: Algebra, bimodule):
    """bimodule(alg), regular_bimodule or dual_regular_bimodule, as a
    module over the enveloping algebra."""
    return bimodule_to_env_module(bimodule(alg))


def tensor_bimod_bimod(T: Bimodule, S: Bimodule, name=None):
    """T tensor_B S for an (A, B)-bimodule T and a (B, C)-bimodule S,
    giving an (A, C)-bimodule."""
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
        for u in A.vertices:
            rg = T.ract_mat(u, g)  # T[(u,t)] -> T[(u,s)]
            for w in C.vertices:
                lg = S.lact_mat(g, w)  # S[(s,w)] -> S[(t,w)]
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
                la = T.lact.get((i, v))
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
                ra = S.ract.get((v, j))
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


def bimodule_to_env_module(X: Bimodule):
    """View an (A, A)-bimodule as a left module over A (x) A^op."""
    A = X.left_alg
    E = enveloping(A)
    _, _, pair_index = E.tensor_info
    dims = {x: X.dims[x] for x in E.vertices}
    act = {}
    for (i, j), k in pair_index.items():
        bi = A.basis[i]
        if bi.degree + A.basis[j].degree == 0:
            continue
        # (i (x) j^op) sends X[(src_i, tgt_j in A)] to X[(tgt_i, src_j in A)]
        m = X.ract_mat(bi.tgt, j) * X.lact_mat(i, A.basis[j].tgt)
        if not m.is_zero():
            act[k] = m
    return Module(E, dims, act, name=X.name)


def env_module_to_bimodule(M: Module, alg: Algebra):
    """Inverse of bimodule_to_env_module for modules over A (x) A^op."""
    E = M.alg
    a, aop, pair_index = E.tensor_info
    lact, ract = {}, {}
    for i, bi in enumerate(a.basis):
        if bi.degree == 0:
            continue
        for v in a.vertices:
            k = pair_index[(i, a.idem[v])]
            m = M.act.get(k)
            if m is not None:
                lact[(i, v)] = m
    for j, bj in enumerate(a.basis):
        if bj.degree == 0:
            continue
        for u in a.vertices:
            k = pair_index[(a.idem[u], j)]
            m = M.act.get(k)
            if m is not None:
                ract[(u, j)] = m
    return Bimodule(alg, alg, M.dims, lact, ract, name=M.name)


def flip_bimodule(X: Bimodule, new_left, new_right, name=None):
    """View an (A, B)-bimodule as a (B^op, A^op)-bimodule: the right
    action becomes the left action and vice versa.  new_left and new_right
    must be the opposite algebras sharing basis indices with B and A."""
    dims = {(v, u): d for (u, v), d in X.dims.items()}
    lact = {(j, u): m for (u, j), m in X.ract.items()}
    ract = {(v, i): m for (i, v), m in X.lact.items()}
    return Bimodule(new_left, new_right, dims, lact, ract, name=name or f"{X.name}^flip")


def outer_tensor_module(M: Module, N: Module, t: Algebra, name=None):
    """M (x) N as a left module over the tensor-product algebra t of
    M.alg and N.alg."""
    a, b, pair_index = t.tensor_info
    dims = {(u, v): M.dims[u] * N.dims[v] for u in a.vertices for v in b.vertices}
    act = {}
    for (i, j), k in pair_index.items():
        if a.basis[i].degree + b.basis[j].degree == 0:
            continue
        m = M.act_mat(i).kron(N.act_mat(j))
        if not m.is_zero():
            act[k] = m
    return Module(t, dims, act, name=name or f"{M.name}(x){N.name}")
