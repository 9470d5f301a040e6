"""Explicit families: Dynkin quivers with their Coxeter numbers and the
diagram involution, and the cyclic type-A family with its cuts.
"""

from __future__ import annotations

from itertools import permutations
from math import comb

from .algebra import Algebra, BasisElt, build_algebra
from .errors import UNDECIDED, BijectionFailure, InvalidSpec, NotACut
from .quiver import Path, Quiver


# -- Dynkin quivers ----------------------------------------------------


def _dynkin_edges(letter, rank):
    if letter == "A":
        if rank < 1:
            raise InvalidSpec("type A needs rank >= 1")
        return [(i, i + 1) for i in range(1, rank)]
    if letter == "D":
        if rank < 3:
            raise InvalidSpec("type D needs rank >= 3")
        edges = [(i, i + 1) for i in range(1, rank - 1)]
        edges.append((rank - 2, rank))
        return edges
    if letter == "E":
        if rank == 6:
            return [(1, 2), (2, 3), (3, 5), (5, 6), (3, 4)]
        if rank == 7:
            return [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)]
        if rank == 8:
            return [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8)]
        raise InvalidSpec("type E needs rank 6, 7 or 8")
    raise InvalidSpec(f"unknown type {letter!r}")


def coxeter_number(letter, rank):
    if letter == "A":
        return rank + 1
    if letter == "D":
        return 2 * (rank - 1)
    return {6: 12, 7: 18, 8: 30}[rank]


def omega_involution(letter, rank):
    omega = {i: i for i in range(1, rank + 1)}
    if letter == "A":
        omega = {i: rank + 1 - i for i in range(1, rank + 1)}
    elif letter == "D" and rank % 2 == 1:
        omega[rank - 1], omega[rank] = rank, rank - 1
    elif letter == "E" and rank == 6:
        omega.update({1: 6, 6: 1, 2: 5, 5: 2})
    return omega


class DynkinQuiver:
    """A Dynkin diagram with a chosen orientation.

    orientation: iterable of directed (source, target) pairs, one per
    edge of the diagram; default orients every edge upward in the vertex
    labeling.
    """

    def __init__(self, letter, rank, orientation=None):
        self.letter = letter
        self.rank = rank
        self.edges = _dynkin_edges(letter, rank)
        self.h = coxeter_number(letter, rank)
        self.omega = omega_involution(letter, rank)
        if orientation is None:
            orientation = list(self.edges)
        chosen = list(orientation)
        norm = {frozenset(e) for e in self.edges}
        if {frozenset(e) for e in chosen} != norm or len(chosen) != len(self.edges):
            raise InvalidSpec("orientation must pick a direction for each edge")
        self.orientation = chosen
        arrows = [(f"a{k}", u, v) for k, (u, v) in enumerate(chosen)]
        self.quiver = Quiver(list(range(1, rank + 1)), arrows)

    def algebra(self, name=None):
        return build_algebra(self.quiver, [],
                             name=name or f"{self.letter}{self.rank}")

    def __repr__(self):
        return f"DynkinQuiver({self.letter}{self.rank}, h={self.h})"


# -- the cyclic type-A family ------------------------------------------


class TypeAQuiver:
    """Quiver on the lattice points of the dilated simplex: vertices are
    the nonnegative integer vectors of length n+1 summing to s-1, with an
    arrow in direction i moving a unit from slot i to slot i+1
    (cyclically)."""

    def __init__(self, n, s):
        if n < 1 or s < 1:
            raise InvalidSpec("need n, s >= 1")
        self.n = n
        self.s = s
        self.f = []
        for i in range(n + 1):
            v = [0] * (n + 1)
            v[i] -= 1
            v[(i + 1) % (n + 1)] += 1
            self.f.append(tuple(v))
        verts = []

        def rec(prefix, left):
            if len(prefix) == n:
                verts.append(tuple(prefix + [left]))
                return
            for x in range(left + 1):
                rec(prefix + [x], left - x)

        rec([], s - 1)
        self.vertices = verts
        if len(verts) != comb(s + n - 1, n):
            raise AssertionError(f"{len(verts)} vertices, not C({s + n - 1}, {n})")
        self.arrow_dir = {}
        arrows = []
        vset = set(verts)
        for x in verts:
            for i in range(n + 1):
                y = self.step(x, i)
                if y in vset:
                    lab = f"a{i + 1}{list(x)}"
                    arrows.append((lab, x, y))
                    self.arrow_dir[lab] = i
        self.quiver = Quiver(verts, arrows)
        self._cycles = None

    def step(self, x, i):
        return tuple(a + b for a, b in zip(x, self.f[i]))

    def omega_vertex(self, x):
        return (x[-1],) + x[:-1]

    def omega_arrow(self, lab):
        a = self.quiver.arrow_by_label[lab]
        i = self.arrow_dir[lab]
        return f"a{(i + 1) % (self.n + 1) + 1}{list(self.omega_vertex(a.source))}"

    def arrow_label(self, x, i):
        return f"a{i + 1}{list(x)}"

    def cycles(self):
        """All cycles of length n+1: closed walks applying each direction
        exactly once, as frozensets of arrow labels."""
        if self._cycles is not None:
            return self._cycles
        vset = set(self.vertices)
        found = set()
        for x in self.vertices:
            for order in permutations(range(self.n + 1)):
                cur = x
                labs = []
                ok = True
                for i in order:
                    nxt = self.step(cur, i)
                    if nxt not in vset:
                        ok = False
                        break
                    labs.append(self.arrow_label(cur, i))
                    cur = nxt
                if ok:
                    if cur != x:
                        raise AssertionError(f"the cycle from {x} ends at {cur}")
                    found.add(frozenset(labs))
        self._cycles = sorted(found, key=sorted)
        return self._cycles

    def __repr__(self):
        return f"TypeAQuiver(n={self.n}, s={self.s}, {len(self.vertices)} vertices)"


def _box_algebra(q: TypeAQuiver, cut, name):
    """Gamma(n, s) in closed form, restricted to the classes whose paths
    avoid the arrows of `cut` (all of them when `cut` is empty).

    Gamma is the path algebra of q.quiver modulo these relations: at a
    vertex y with y + f_i and y + f_i + f_j vertices (i != j), the two
    steps i then j equal the steps j then i when y + f_j is a vertex, and
    vanish when it is not.  A path from x with multidegree d (d_i steps
    in direction i) ends at x + sum d_i f_i, whose slot k is
    x_k - d_k + d_{k-1} (slots mod n+1).  The classes are the pairs
    (x, d) with 0 <= d <= x slotwise, and (y, e) * (x, d) = (x, d + e)
    when d + e <= x, else 0 (y the end of (x, d)); every constant is 1.

    Proof.  (a) Inside the box.  If d <= x, every ordering of the steps
    of d is a path from x: after a prefix of multidegree d' <= d the walk
    is at y with y_k >= x_k - d_k >= 0.  Two orderings differ by swaps of
    adjacent steps; a swap of i, j at y has d' + e_i + e_j <= x, so
    y + f_i, y + f_j and y + f_i + f_j are all vertices, and the swap is
    a commutation relation.  So these paths are all equal in Gamma.
    (b) Leaving the box.  Let p from x have multidegree not <= x.  Cut it
    after its longest prefix with multidegree d' <= x: the next step j
    has d'_j = x_j, from y with y_j = d'_{j-1}, which is >= 1 since that
    step exists.  By (a) the prefix may end with a step j-1, from
    z = y - f_{j-1} with z_j = d'_{j-1} - 1.  If z_j = 0, z + f_j is no
    vertex and the steps j-1, j at z meet a zero relation, so p = 0.
    Otherwise swapping them is a commutation, and the new path has a
    step j after the prefix d' - e_{j-1} <= x, whose slot j is x_j:
    induction on d'_{j-1} ends at a zero relation.  (c) So Gamma is spanned by the
    classes (x, d), d <= x.  The closed form B is associative (both
    sides of a triple are (x, d + e + f) or 0) with unit sum (x, 0), and
    e_x -> (x, 0), a_i(x) -> (x, e_i) sends a path to its (x, d), or to
    0 when it leaves the box; that kills the commutations (both sides
    are (y, e_i + e_j)) and the zero relations (y + f_j is no vertex, so
    y_j = 0 < 1).  This onto map from Gamma to B is an isomorphism, as
    dim Gamma <= dim B.  (d) Cuts.  A cut C meets every (n+1)-cycle (a
    closed walk taking each direction once) exactly once.  A commutation
    square at y closes into two such cycles through one walk from
    w = y + f_i + f_j back to y: take the other directions in runs of
    cyclically consecutive ones, k, k+1, ..., m in that order, each run
    carrying one unit from slot k, which holds w_k = y_k + 1 >= 1 since
    no other step touches it.  So both routes carry the same number of
    cut arrows, zero relations are monomials, and by (a) that number is
    a grading of Gamma by classes.  The ideal (C) is the span of the
    classes of positive degree, so Gamma/(C), which is Q_C modulo the
    terms of the relations that avoid C, is the span of the classes of
    degree 0 with the product of Gamma.  A product of two
    kept classes that lands in the box on a removed class would break
    this grading; it raises NotACut.

    Names and order are those of `build_algebra`.  After the idempotents
    it sorts the basis by (degree, str(src), str(tgt)), with one class per
    key, as x + sum d_i f_i fixes d up to (1, ..., 1) and the degree fixes
    that.
    The relation consequences of a block of parallel paths span the
    vectors whose coordinates on the class's paths sum to 0 (and
    anything on paths leaving the box), so its rref leaves free only the
    class's last path by label strings, and every path reduces to it
    with coefficient 1.  Labels from one vertex compare by their prefix
    a{i+1}[, so that path takes the directions in the descending order
    of these prefixes, each d_i times; in Gamma/(C) a class of degree 0
    has the same paths, hence the same name."""
    quiver = q.quiver
    if cut:
        quiver = Quiver(q.vertices, [(a.label, a.source, a.target)
                                     for a in q.quiver.arrows if a.label not in cut])
    # directions by ascending label prefix: a class's path extends the
    # path of the class with one step fewer in its first direction here
    order = sorted(range(q.n + 1), key=lambda i: f"a{i + 1}[")
    arrow = {(a.source, q.arrow_dir[a.label]): a for a in q.quiver.arrows}
    zero = (0,) * (q.n + 1)
    idem = [(x, zero, x, ()) for x in q.vertices]
    kept, removed = [], set()
    for x in q.vertices:
        walks = {zero: ((), x, False)}  # multidegree -> (labels, end, meets cut)
        for d in _boxes(x)[1:]:  # after every box below it
            i = next(i for i in order if d[i])
            labels, y, hit = walks[d[:i] + (d[i] - 1,) + d[i + 1:]]
            a = arrow[(y, i)]
            labels, y, hit = walks[d] = (labels + (a.label,), a.target, hit or a.label in cut)
            if hit:
                removed.add((x, d))
            else:
                kept.append((x, d, y, labels))
    kept = idem + sorted(kept, key=lambda c: (len(c[3]), str(c[0]), str(c[2])))
    basis = [BasisElt(f"e[{x}]" if not labels else "*".join(labels), x, y,
                      len(labels), path=Path(quiver, x, labels))
             for x, d, y, labels in kept]
    index = {(x, d): k for k, (x, d, _, _) in enumerate(kept)}
    by_tgt = {}
    for j, (_, _, y, _) in enumerate(kept):
        by_tgt.setdefault(y, []).append(j)
    mult = {}
    for i, (y, e, _, _) in enumerate(kept):
        for j in by_tgt.get(y, ()):
            x, d = kept[j][0], kept[j][1]
            de = (x, tuple(a + b for a, b in zip(d, e)))
            k = index.get(de)
            if k is not None:
                mult[(i, j)] = {k: 1}
            elif de in removed:
                raise NotACut(f"{basis[i].name} * {basis[j].name} leaves the "
                              f"classes that avoid the cut: it is not a grading")
    alg = Algebra(q.vertices, basis, mult, name=name, quiver=quiver)
    alg.set_generators([i for i, b in enumerate(basis) if b.degree == 1])
    alg.check_associativity()
    alg.type_a = q
    return alg


def gamma_algebra(q: TypeAQuiver, name=None):
    """The mesh-type algebra of the cyclic type-A quiver: consecutive
    steps in two directions commute when both routes exist and vanish
    otherwise.  Built in closed form by `_box_algebra`."""
    return _box_algebra(q, frozenset(), name or f"Gamma({q.n},{q.s})")


def enumerate_cuts(q: TypeAQuiver):
    """All arrow subsets meeting every (n+1)-cycle exactly once."""
    cycles = q.cycles()
    cuts = []

    def rec(k, chosen):
        if any(len(chosen & cyc) > 1 for cyc in cycles):
            return
        if k == len(cycles):
            if all(len(chosen & cyc) == 1 for cyc in cycles):
                cuts.append(frozenset(chosen))
            return
        cyc = cycles[k]
        if chosen & cyc:
            rec(k + 1, chosen)
            return
        for a in sorted(cyc):
            chosen.add(a)
            rec(k + 1, chosen)
            chosen.discard(a)

    rec(0, set())
    return sorted(set(cuts), key=sorted)


def is_cut(q: TypeAQuiver, c):
    return all(len(c & cyc) == 1 for cyc in q.cycles())


def omega_on_cuts(q: TypeAQuiver, c):
    return frozenset(q.omega_arrow(a) for a in c)


def cut_algebra(q: TypeAQuiver, c, name=None):
    """The quotient of the mesh-type algebra by the arrows of the cut, on
    the subquiver without those arrows: the classes of Gamma that avoid
    the cut, built in closed form by `_box_algebra`."""
    c = frozenset(c)
    if not is_cut(q, c):
        raise NotACut(f"{sorted(c)} does not meet every cycle exactly once")
    a = _box_algebra(q, c, name or f"Lambda({q.n},{q.s})")
    a.cut = c
    return a


def _quiver_isomorphic(q1: Quiver, q2: Quiver):
    """Brute-force digraph isomorphism with degree pruning."""
    if len(q1.vertices) != len(q2.vertices) or len(q1.arrows) != len(q2.arrows):
        return False

    def adj(q):
        out = {v: {} for v in q.vertices}
        for a in q.arrows:
            out[a.source][a.target] = out[a.source].get(a.target, 0) + 1
        return out

    a1, a2 = adj(q1), adj(q2)

    def deg_sig(q, ad, v):
        outs = sorted(ad[v].values())
        ins = sorted(ad[u].get(v, 0) for u in q.vertices if v in ad[u])
        return (tuple(outs), tuple(ins))

    s1 = {v: deg_sig(q1, a1, v) for v in q1.vertices}
    s2 = {v: deg_sig(q2, a2, v) for v in q2.vertices}
    if sorted(s1.values()) != sorted(s2.values()):
        return False
    order = sorted(q1.vertices, key=lambda v: (s1[v], str(v)))

    def rec(k, mapping, used):
        if k == len(order):
            return True
        v = order[k]
        for w in q2.vertices:
            if w in used or s1[v] != s2[w]:
                continue
            ok = True
            for vp, img in mapping.items():
                if a1[vp].get(v, 0) != a2[img].get(w, 0):
                    ok = False
                    break
                if a1[v].get(vp, 0) != a2[w].get(img, 0):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used.add(w)
                if rec(k + 1, mapping, used):
                    return True
                del mapping[v]
                used.discard(w)
        return False

    return rec(0, {}, set())


def verify_thm_homogeneous_cuts(n, s, cap=None):
    """For every cut: the quotient is n-representation-finite, it is
    homogeneous exactly when the cut is stable under the cyclic symmetry,
    and then the common orbit length is (s+n)/(n+1).

    Returns a report dict with counts and the per-cut results.
    """
    from .ar import decide_nrf

    q = TypeAQuiver(n, s)
    cuts = enumerate_cuts(q)
    ell_expected = (s + n) // (n + 1) if (s + n) % (n + 1) == 0 else None
    results = []
    stable_quivers = []
    for c in cuts:
        lam = cut_algebra(q, c)
        rep = decide_nrf(lam, n, cap=cap)
        stable = omega_on_cuts(q, c) == c
        entry = {
            "cut": sorted(c),
            "is_nrf": rep.is_nrf,
            "homogeneous": rep.homogeneous,
            "omega_stable": stable,
            "ell": rep.ell_value(),
        }
        if rep.is_nrf is not True:
            entry["reason"] = rep.reason
        results.append(entry)
        if stable:
            stable_quivers.append(lam.quiver)
    iso_classes = []
    for qq in stable_quivers:
        if not any(_quiver_isomorphic(qq, rep_q) for rep_q in iso_classes):
            iso_classes.append(qq)
    decided = [e for e in results if e["is_nrf"] is not UNDECIDED]
    ok = all(
        e["is_nrf"] is True and e["homogeneous"] == e["omega_stable"]
        and (not e["homogeneous"] or e["ell"] == ell_expected)
        for e in decided
    )
    if ell_expected is None:
        ok = ok and not any(e["homogeneous"] for e in decided)
    if ok and len(decided) < len(results):
        ok = UNDECIDED
    return {
        "n": n,
        "s": s,
        "verified": ok,
        "cut_count": len(cuts),
        "omega_stable_count": sum(1 for e in results if e["omega_stable"]),
        "omega_stable_iso_classes": len(iso_classes),
        "homogeneous_count": sum(1 for e in results if e["homogeneous"]),
        "ell": ell_expected,
        "results": results,
    }


def _basis_multidegree(g, b):
    q = g.type_a
    d = [0] * (q.n + 1)
    for lab in b.path.labels:
        d[q.arrow_dir[lab]] += 1
    return tuple(d)


def verify_nakayama_bijection(g):
    """Socle pairing of the mesh-type algebra: every nonzero path class p
    from x pairs with a unique complementary class q landing at the
    rotated vertex, with p then q spanning the full-multidegree socle
    class at x.  Also checks the pairing's compatibility with the algebra
    action on every arrow extension.
    """
    q = g.type_a
    by_key = {}
    for idx, b in enumerate(g.basis):
        d = _basis_multidegree(g, b)
        key = (b.src, d)
        if key in by_key:
            raise BijectionFailure(f"duplicate path class at {key}")
        by_key[key] = idx
    expected = {(x, d) for x in q.vertices
                for d in _boxes(x)}
    if set(by_key) != expected:
        missing = expected - set(by_key)
        extra = set(by_key) - expected
        raise BijectionFailure(f"path classes do not match the lattice boxes; "
                               f"missing {sorted(missing)[:3]}, extra {sorted(extra)[:3]}")
    partner = {}
    for (x, d), idx in by_key.items():
        b = g.basis[idx]
        z = b.tgt
        dq = tuple(xi - di for xi, di in zip(x, d))
        if any(v < 0 for v in dq):
            raise BijectionFailure(f"class {b.name} exceeds its source vertex degree")
        key = (z, dq)
        if key not in by_key:
            raise BijectionFailure(f"no complementary class for {b.name}")
        jdx = by_key[key]
        bq = g.basis[jdx]
        if bq.tgt != q.omega_vertex(x):
            raise BijectionFailure(f"complement of {b.name} ends at {bq.tgt}, "
                                   f"not the rotated source")
        prod = g.mul(jdx, idx)
        socle_idx = by_key[(x, x)]
        if set(prod) != {socle_idx}:
            raise BijectionFailure(f"pairing of {b.name} misses the socle class")
        partner[idx] = jdx
    # compatibility with the algebra action: extending p by an arrow on
    # the source side rotates the partner by an arrow on the target side
    arrow_idx = {bb.path.labels: k for k, bb in enumerate(g.basis) if bb.degree == 1}
    for idx in by_key.values():
        for a in q.quiver.in_arrows[g.basis[idx].src]:
            prod = g.mul(idx, arrow_idx[(a.label,)])  # p after the arrow
            if not prod:
                continue
            (pidx, _), = prod.items()
            # partner of the extended class, then the rotated arrow, must
            # recover the partner of the original class
            rot = g.mul(arrow_idx[(q.omega_arrow(a.label),)], partner[pidx])
            if set(rot) != {partner[idx]}:
                raise BijectionFailure(f"pairing is not compatible with arrow {a.label}")
    return True


def _boxes(x):
    out = [()]
    for xi in x:
        out = [t + (d,) for t in out for d in range(xi + 1)]
    return [tuple(t) for t in out]
