"""Finite dimensional algebras with an explicit basis and structure constants.

An Algebra is a based algebra: the first ``len(vertices)`` basis elements
are the vertex idempotents, every other basis element has a positive
degree, and the span of the positive-degree elements is the (nilpotent)
radical.  Path algebras modulo relations, opposites, tensor products and
tensor algebras all produce this shape.

Multiplication composes like functions: ``x * y`` means "y first, then x"
and is nonzero only if ``src(x) == tgt(y)``.  A basis element b acts on a
left module as a map M[src(b)] -> M[tgt(b)].
"""

from __future__ import annotations

from functools import cached_property, wraps

from .errors import MalformedRelation, NotFiniteDimensional
from .linalg import Mat, independent_subset
from .quiver import Path, Quiver, Relation


class BasisElt:
    __slots__ = ("name", "src", "tgt", "degree", "path")

    def __init__(self, name, src, tgt, degree, path=None):
        self.name = name
        self.src = src
        self.tgt = tgt
        self.degree = degree
        self.path = path  # Path instance for path-built algebras

    def __repr__(self):
        return str(self.name)


_MISSING = object()


def per_algebra(fn):
    """Memoize fn(alg, *args) on alg under the key (fn, args): a derived
    object has one spelling and is built once per algebra.  Keyword-only
    arguments, the caps, are not part of the key.  A call that raises
    stores nothing, so the next call builds again.  A miss builds through
    the memo's __wrapped__, so that a test can count the builds."""

    @wraps(fn)
    def memo(alg, *args, **caps):
        key = (fn, args)
        out = alg._cache.get(key, _MISSING)
        if out is _MISSING:
            out = alg._cache[key] = memo.__wrapped__(alg, *args, **caps)
        return out

    return memo


class Algebra:
    def __init__(self, vertices, basis, mult, name="algebra", quiver=None):
        self.vertices = list(vertices)
        self.basis = basis
        if mult is not None:  # None: a subclass builds the table on first read
            self.mult = mult  # (i, j) -> {k: coeff}, only nonzero products stored
        self.name = name
        self.quiver = quiver
        self.idem = {v: i for i, v in enumerate(self.vertices)}
        for i, v in enumerate(self.vertices):
            b = basis[i]
            if not (b.src == v and b.tgt == v and b.degree == 0):
                raise ValueError("basis must start with the vertex idempotents")
        if any(b.degree <= 0 for b in basis[len(self.vertices):]):
            raise ValueError("non-idempotent basis elements need positive degree")
        self._generators = None
        self._cache = {}

    @property
    def dim(self):
        return len(self.basis)

    def nvert(self):
        return len(self.vertices)

    def mul(self, i, j):
        """basis[i] * basis[j] as a sparse {index: coeff} dict."""
        return self.mult.get((i, j), {})

    def mul_elt(self, x, y):
        """Product of sparse elements {index: coeff}."""
        out = {}
        for i, ci in x.items():
            for j, cj in y.items():
                prod = self.mult.get((i, j))
                if prod:
                    c = ci * cj
                    for k, ck in prod.items():
                        v = out.get(k, 0) + c * ck
                        if v:
                            out[k] = v
                        elif k in out:
                            del out[k]
        return out

    def radical_indices(self):
        return [i for i, b in enumerate(self.basis) if b.degree > 0]

    def generators(self):
        """Indices of basis elements spanning rad/rad^2 (Gabriel arrows)."""
        if self._generators is not None:
            return self._generators
        rad = self.radical_indices()
        pos = {idx: k for k, idx in enumerate(rad)}
        rad2 = []
        for i in rad:
            for j in rad:
                prod = self.mult.get((i, j))
                if prod:
                    vec = [0] * len(rad)
                    for k, c in prod.items():
                        vec[pos[k]] = c
                    rad2.append(vec)
        order = sorted(rad, key=lambda i: (self.basis[i].degree, i))
        units = [[1 if k == pos[i] else 0 for k in range(len(rad))] for i in order]
        gens = [order[k] for k in independent_subset(rad2, units)]
        self._generators = gens
        return gens

    def set_generators(self, gens):
        self._generators = list(gens)

    def gabriel_quiver(self):
        """Quiver with the generator elements as arrows (src/tgt swapped to
        traversal direction: a generator acts M[src] -> M[tgt])."""
        arrows = [(f"g{k}", self.basis[g].src, self.basis[g].tgt) for k, g in enumerate(self.generators())]
        return Quiver(self.vertices, arrows)

    def is_connected(self):
        return self.gabriel_quiver().is_connected()

    def check_associativity(self):
        """Associativity on every basis triple, exhaustively; raises
        ValueError on failure.  Once every product (i, j) is checked to run
        from src(j) to tgt(i) with src(i) == tgt(j) (the vertex grading),
        both sides vanish off the composable triples; only those are tried,
        and a triple with b_i b_j = 0 = b_j b_k has both sides zero."""
        mult = self.mult
        ends = [(b.src, b.tgt) for b in self.basis]
        for (i, j), prod in mult.items():
            if ends[i][0] != ends[j][1] or any(ends[k] != (ends[j][0], ends[i][1]) for k in prod):
                raise ValueError(f"product ({i},{j}) breaks the vertex grading")
        by_src, by_tgt = {}, {}
        for idx, (s, t) in enumerate(ends):
            by_src.setdefault(s, []).append(idx)
            by_tgt.setdefault(t, []).append(idx)
        for j, (s, t) in enumerate(ends):
            right = [(k, mult.get((j, k))) for k in by_tgt.get(s, ())]
            for i in by_src.get(t, ()):
                ij = mult.get((i, j))
                for k, jk in right:
                    if ij or jk:
                        lhs = self.mul_elt(ij, {k: 1}) if ij else {}
                        rhs = self.mul_elt({i: 1}, jk) if jk else {}
                        if lhs != rhs:
                            raise ValueError(f"associativity fails at basis triple ({i},{j},{k})")

    def __repr__(self):
        return f"Algebra({self.name}, dim {self.dim})"


def semisimple_algebra(labels, name=None):
    """Product of copies of Q, one per label."""
    basis = [BasisElt(f"e[{v}]", v, v, 0) for v in labels]
    mult = {(i, i): {i: 1} for i in range(len(basis))}
    return Algebra(labels, basis, mult, name=name or "semisimple")


def build_algebra(quiver, relations, length_cap=64, name=None):
    """Quotient of the path algebra KQ by length-homogeneous relations.

    The basis consists of residue classes of paths, computed degree by
    degree; the class representative for each degree is chosen by a
    deterministic pivot rule on the lexicographic path order.
    """
    for r in relations:
        if not isinstance(r, Relation):
            raise MalformedRelation(f"not a Relation: {r!r}")
        if not r.is_homogeneous():
            raise MalformedRelation(f"relation {r!r} mixes path lengths")

    # all paths per length, and the reduction of each path to basis classes
    paths_by_len = [[Path(quiver, v, ()) for v in quiver.vertices]]
    basis_paths = list(paths_by_len[0])  # trivial paths are the idempotents
    reduction = {p: {p: 1} for p in paths_by_len[0]}

    rels_by_len = {}
    for r in relations:
        rels_by_len.setdefault(r.length(), []).append(r)

    d = 0
    while True:
        d += 1
        prev = paths_by_len[-1]
        cur = []
        for p in prev:
            for a in quiver.out_arrows[p.end]:
                cur.append(Path(quiver, p.start, p.labels + (a.label,)))
        paths_by_len.append(cur)
        if not cur:
            break
        # group parallel paths
        blocks = {}
        for p in cur:
            blocks.setdefault((p.start, p.end), []).append(p)
        new_basis = []
        for key in sorted(blocks, key=lambda k: (str(k[0]), str(k[1]))):
            block = sorted(blocks[key], key=lambda p: tuple(str(l) for l in p.labels))
            col = {p: c for c, p in enumerate(block)}
            # span of degree-d relation consequences u * r * v inside this block
            rows = []
            for rl, rs in rels_by_len.items():
                if rl > d:
                    continue
                for r in rs:
                    for lu in range(d - rl + 1):
                        for u in paths_by_len[lu]:
                            # u is the prefix walk, continuing into r
                            if u.end != r.source or u.start != key[0]:
                                continue
                            # suffix walks v completing the degree
                            for v in paths_by_len[d - rl - lu]:
                                if v.start != r.target or v.end != key[1]:
                                    continue
                                vec = [0] * len(block)
                                for c, pp in r.terms:
                                    full = Path(quiver, u.start, u.labels + pp.labels + v.labels)
                                    vec[col[full]] = vec[col[full]] + c
                                if any(vec):
                                    rows.append(vec)
            R, pivots = Mat.from_rows(rows).rref()
            pivset = set(pivots)
            free = [c for c in range(len(block)) if c not in pivset]
            for c in free:
                new_basis.append(block[c])
            # reduction of every path in the block
            for c in range(len(block)):
                p = block[c]
                if c in pivset:
                    i = pivots.index(c)
                    red = {}
                    for fc in free:
                        val = -R.a[i][fc]
                        if val:
                            red[block[fc]] = val
                    reduction[p] = red
                else:
                    reduction[p] = {p: 1}
        basis_paths.extend(new_basis)
        if not new_basis:
            # nothing survives at this length, hence nothing later either
            break
        if d >= length_cap:
            raise NotFiniteDimensional(
                f"nonzero path classes persist at length {d} (cap {length_cap})"
            )

    index = {p: i for i, p in enumerate(basis_paths)}
    basis = []
    for p in basis_paths:
        deg = len(p)
        nm = f"e[{p.start}]" if deg == 0 else "*".join(str(l) for l in p.labels)
        basis.append(BasisElt(nm, p.start, p.end, deg, path=p))

    max_len = len(paths_by_len) - 1
    mult = {}
    for i, p in enumerate(basis_paths):
        for j, q in enumerate(basis_paths):
            # basis[i] * basis[j]: q traversed first, then p
            if q.end != p.start:
                continue
            if len(p) + len(q) > max_len:
                continue
            walk = Path(quiver, q.start, q.labels + p.labels)
            red = reduction.get(walk)
            if red:
                mult[(i, j)] = {index[b]: c for b, c in red.items()}

    alg = Algebra(quiver.vertices, basis, mult, name=name or "KQ/I", quiver=quiver)
    # homogeneous relations: rad^2 is spanned by the classes of degree >= 2
    alg.set_generators([i for i, b in enumerate(basis) if b.degree == 1])
    alg.check_associativity()
    return alg


def path_algebra(quiver, name=None, length_cap=64):
    return build_algebra(quiver, [], length_cap=length_cap, name=name or "KQ")


@per_algebra
def opposite(a: Algebra) -> Algebra:
    """Same basis, reversed multiplication and src/tgt."""
    basis = [BasisElt(b.name, b.tgt, b.src, b.degree, path=b.path) for b in a.basis]
    mult = {(j, i): dict(prod) for (i, j), prod in a.mult.items()}
    op = Algebra(a.vertices, basis, mult, name=f"{a.name}^op",
                 quiver=a.quiver.reversed() if a.quiver else None)
    if a._generators is not None:
        op.set_generators(a._generators)
    return op


class TensorProduct(Algebra):
    """a (x) b as built by `tensor_product`, with tensor_info =
    (a, b, pair_index).  Its table, one product per pair of products of
    the factors, is built on first read: the bimodule path reads the
    algebra off its factors instead (`module.regular_bimodule`)."""

    @cached_property
    def mult(self):
        """(i1 (x) j1)(i2 (x) j2) = i1 i2 (x) j1 j2, from the factors' tables."""
        a, b, pair_index = self.tensor_info
        mult = {}
        for (i1, i2), pa in a.mult.items():
            for (j1, j2), pb in b.mult.items():
                mult[(pair_index[(i1, j1)], pair_index[(i2, j2)])] = {
                    pair_index[(k1, k2)]: c1 * c2 for k1, c1 in pa.items() for k2, c2 in pb.items()}
        return mult


def tensor_product(a: Algebra, b: Algebra, name=None) -> TensorProduct:
    """a (x) b over Q; vertices are pairs.  Basis element pair_index[(i, j)]
    is a.basis[i] (x) b.basis[j]: the idempotent pairs first, matching the
    vertices, then every other pair in lexicographic order.  Among the
    pairs from one vertex pair to another, an idempotent pair is the
    least one too, so they run in lexicographic order: the kron order of
    the factors' spaces.  The table is built on first read."""
    vertices = [(u, v) for u in a.vertices for v in b.vertices]
    pairs = [(i, j) for i in range(a.nvert()) for j in range(b.nvert())]
    pairs += [
        (i, j)
        for i in range(a.dim)
        for j in range(b.dim)
        if a.basis[i].degree + b.basis[j].degree > 0
    ]
    pair_index = {p: k for k, p in enumerate(pairs)}
    basis = []
    for (i, j) in pairs:
        x, y = a.basis[i], b.basis[j]
        basis.append(
            BasisElt(
                f"{x.name}(x){y.name}",
                (x.src, y.src),
                (x.tgt, y.tgt),
                x.degree + y.degree,
            )
        )
    t = TensorProduct(vertices, basis, None, name=name or f"{a.name}(x){b.name}")
    t.tensor_info = (a, b, pair_index)
    # Gabriel arrows of a product are g(x)e and e(x)g
    ga = a.generators()
    gb = b.generators()
    gens = [pair_index[(g, j)] for g in ga for j in range(b.nvert())]
    gens += [pair_index[(i, g)] for i in range(a.nvert()) for g in gb]
    t.set_generators(gens)
    return t


@per_algebra
def enveloping(a: Algebra) -> Algebra:
    """a (x) a^op; bimodules over a are left modules over this."""
    return tensor_product(a, opposite(a), name=f"{a.name}^env")
