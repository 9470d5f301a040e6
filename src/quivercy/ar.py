"""Higher Auslander-Reiten translates and the representation-finiteness
decision, plus preprojective and higher Auslander algebras.

tau_n is Tor_n(D(reg), -); tau_n^- is computed through the dual formula
D Tor_n(D(-), D(reg)) by resolving over the opposite algebra, which keeps
everything inside one-sided module machinery.
"""

from __future__ import annotations

from functools import cached_property

from .algebra import Algebra, BasisElt, opposite, per_algebra, tensor_product
from .errors import (
    CapExceeded,
    FactorNotHomogeneous,
    NotNilpotent,
    NotNRF,
    NotSelfinjective,
    UNDECIDED,
)
from .linalg import Mat, independent_subset, inv
from .module import (
    Bimodule,
    Module,
    Morphism,
    direct_sum,
    dual_module,
    dual_regular_bimodule,
    env_module,
    env_module_to_bimodule,
    flip_bimodule,
    hom,
    injective_module,
    outer_tensor_module,
    regular_bimodule,
    regular_module,
    tensor_bimod_bimod,
)
from .homology import (
    PerfComplex,
    _match_projective,
    _module_resolution,
    _projective_partner,
    default_cap,
    global_dimension,
    is_selfinjective,
    tensor_complex,
    tor,
)


def tau_n(M: Module, n: int):
    """Higher AR translate Tor_n(D(reg), M)."""
    return tor(n, dual_regular_bimodule(M.alg), M)


def tau_n_minus(M: Module, n: int):
    """Inverse translate, via D Tor_n(D M, D(reg)) resolved over the
    opposite algebra."""
    alg = M.alg
    T = tor(n, _flipped_dual_regular(alg), dual_module(M, opposite(alg)))
    return dual_module(T, alg, name=f"tau{n}-({M.name})")


@per_algebra
def _flipped_dual_regular(alg):
    """The dual regular bimodule as a bimodule over the opposite algebra."""
    op = opposite(alg)
    return flip_bimodule(dual_regular_bimodule(alg), op, op)


class NrfReport:
    def __init__(self, alg, n):
        self.alg = alg
        self.n = n
        self.is_nrf = False
        self.gl_dim = None
        self.a = len(alg.vertices)
        self.b = None
        self.orbit_table = {}
        self.ell = {}
        self.sigma = {}
        self.homogeneous = None
        self.ct_summands = None
        self.connected = alg.is_connected()
        self.reason = None

    @cached_property
    def ct_module(self):
        """The direct sum of ct_summands, built on first read; None unless
        the report is positive."""
        return direct_sum(self.ct_summands, name="M") if self.ct_summands else None

    def ell_value(self):
        vals = set(self.ell.values())
        return vals.pop() if len(vals) == 1 else None

    def to_dict(self):
        nrf = self.is_nrf if isinstance(self.is_nrf, bool) else "undecided"
        return {
            "n": self.n,
            "is_nrf": nrf,
            "gl_dim": self.gl_dim,
            "a": self.a,
            "b": self.b,
            "ell": {str(k): v for k, v in self.ell.items()},
            "sigma": {str(k): str(v) for k, v in self.sigma.items()},
            "homogeneous": self.homogeneous,
            "connected": self.connected,
            "reason": self.reason,
        }

    def __repr__(self):
        return f"NrfReport(n={self.n}, is_nrf={self.is_nrf!r})"


class _OrbitCut(Exception):
    """An orbit walk passed its cap; raised inside the memoized walk, so
    the cut walk is not stored."""


@per_algebra
def _walk_tau_orbit(alg, i, n, *, cap):
    """The tau_n-orbit X_0 = I_i, X_1 = tau_n X_0, ... of the injective
    at i, as (stages, v, reason).  The walk computes nu X = DA (x)_A P_X
    itself, once per stage, on the resolution P_X kept on X: its
    cohomology in degree -k is Tor_k(DA, X) = D Ext^k(X, A), zero for
    k > n as pd X <= gl.dim <= n.  Every stage but the last has it zero
    for k < n too, so nu X is tau_n X = H^{-n}(nu X) shifted by n, and
    that is the next stage.  The walk ends with v when the last
    stage is P_v, and with v None and a reason when a stage fails that
    check or tau_n kills it.  Raises _OrbitCut past cap stages.  A walk
    is kept on the algebra per (i, n), whatever cap it ran under.  Stage
    0 is `injective_module`, so a resolution that global_dimension has
    already built is read, not rebuilt."""
    DA = dual_regular_bimodule(alg)
    X = injective_module(alg, i)
    orbit = [X]
    while True:
        v = _match_projective(X)
        if v is not None:
            return orbit, v, None
        nu = tensor_complex(DA, _module_resolution(X, n + 1).to_perf(), range(-n - 1, 1))
        bad = next((k for k in range(n) if nu.cohomology_dim(-k)), None)
        if bad is not None:
            return orbit, None, (f"orbit of injective at {i}: stage {len(orbit)-1} has "
                                 f"Ext^{bad}(X, reg) != 0")
        X = nu.cohomology(-n)
        if X.total_dim == 0:
            return orbit, None, f"orbit of injective at {i} dies before a projective"
        if len(orbit) >= cap:
            raise _OrbitCut
        orbit.append(X)


def walk_orbits(report, cap):
    """Walk the tau_n-orbit of every injective at report.n into
    report.ell, report.sigma and report.orbit_table, orbits of at most cap
    stages.  True when every orbit ends on a projective; otherwise False
    with report.reason set, and report.is_nrf UNDECIDED for a cut walk.
    Needs gl.dim <= report.n.  Each walk that was not cut is kept on the
    algebra, whatever cap it ran under; a kept walk of more than cap
    stages counts as cut, as it would be on a fresh algebra."""
    alg, n = report.alg, report.n
    for i in alg.vertices:
        try:
            orbit, v, reason = _walk_tau_orbit(alg, i, n, cap=cap)
        except _OrbitCut:
            orbit = None
        if orbit is None or len(orbit) > cap:
            report.is_nrf = UNDECIDED
            report.reason = f"orbit of injective at {i} exceeds the cap"
            return False
        if v is None:
            report.reason = reason
            return False
        report.sigma[i] = v
        report.ell[i] = len(orbit)
        report.orbit_table[i] = orbit
    return True


def decide_nrf(alg: Algebra, n: int, cap=None, *, verify_ct=None):
    """Decide n-representation-finiteness by walking the tau_n-orbit of
    each injective: a stage X needs Ext^k(X, reg) = 0 for k != n before
    tau_n is applied again, and the orbit must end on an indecomposable
    projective.  The walk computes nu X itself, once per stage, and reads
    both off it: the Ext condition as the vanishing of H^{-k}(nu X) for
    k < n, and tau_n X as H^{-n}(nu X).  verify_ct is ignored; it stays
    because perfbench/workloads.py passes it, and goes with ROADMAP item 3.

    A positive verdict is the criterion of Iyama and Oppermann,
    "n-representation-finite algebras and n-APR tilting" (arXiv 0909.0593),
    Theorem 3.1.  Let gl.dim A <= n and nu_n = nu o [-n] on the derived
    category.  Then A is n-representation-finite iff for every
    indecomposable projective P some nu_n^{-l} P (l >= 0) is an
    indecomposable injective, iff for every indecomposable injective I
    some nu_n^l I is an indecomposable projective.  The walk certifies
    the second form.  A projective resolution Q of X has H^{-k}(D Hom(Q, A))
    = D Ext^k(X, A), so H^j(nu_n X) = D Ext^{n-j}(X, A); the stage check
    leaves only H^0 = D Ext^n(X, A) = Tor_n(D A, X) = tau_n X, so nu_n X is
    the next stage.  The orbit I_i = X_0, ..., X_{l_i - 1} = P_sigma(i) thus
    gives nu_n^{l_i - 1} I_i = P_sigma(i).  As nu_n is an autoequivalence,
    sigma is onto; this is still checked.  The stages then form the
    n-cluster tilting module; its check (pairwise distinct summands,
    Ext^1..n-1 vanishing on their sum) is kept in the tests as an oracle.

    The hypothesis gl.dim A <= n is checked first.  On an acyclic quiver
    `global_dimension` reads it off the resolutions of the injectives
    (gl.dim A = max_i pd I_i there; its docstring gives the proof), and
    the walks start from the same injectives, the one `injective_module`
    keeps per vertex, so each one is resolved once and no simple module
    is resolved at all.
    """
    if cap is None:
        cap = default_cap(alg)
    report = NrfReport(alg, n)
    try:
        report.gl_dim = global_dimension(alg, cap)
    except CapExceeded:
        report.is_nrf = UNDECIDED
        report.reason = "global dimension exceeds the cap"
        return report
    if report.gl_dim > n:
        report.reason = f"gl.dim = {report.gl_dim} > n"
        return report
    if not walk_orbits(report, cap):
        return report
    report.b = sum(report.ell.values())
    report.homogeneous = len(set(report.ell.values())) == 1
    if set(report.sigma.values()) != set(alg.vertices):
        report.reason = "orbit endpoints do not exhaust the projectives"
        return report
    report.ct_summands = [X for i in alg.vertices for X in report.orbit_table[i]]
    report.is_nrf = True
    return report


def homogeneity(report: NrfReport):
    """All orbit lengths equal; for connected input this is also checked
    against the fixed-point characterization ell_i = ell_sigma(i)."""
    if report.is_nrf is not True:
        raise NotNRF("homogeneity needs a positive representation-finiteness report")
    all_equal = report.homogeneous
    if report.connected:
        fixed = all(report.ell[i] == report.ell[report.sigma[i]] for i in report.ell)
        assert fixed == all_equal, "orbit-length permutation cross-check failed"
    return all_equal


# -- Ext^n(D(reg), reg) as a bimodule ----------------------------------


@per_algebra
def ext_bimodule(alg: Algebra, n: int):
    """Ext^n(D(reg), reg) with both module structures: the bimodule T
    generating the higher preprojective algebra.

    T = Ext^n_A(DA, A) as Ext^n_E(A, E) over E = A (x) A^op: the n-th
    cohomology of the dual of the minimal E-resolution P of A.

    Keller ("Deformed Calabi-Yau completions", arXiv 0908.3499, section 4)
    calls Theta = RHom_E(A, E) the inverse dualizing complex; for A finite-
    dimensional of finite global dimension, Theta (x)^L_A - is quasi-inverse
    to the Nakayama functor DA (x)^L_A -, so Theta = RHom_A(DA, A).  In
    degree n, with both actions: the terms Ae_u (x) e_vA of P are projective
    as right modules, so the augmented P splits as a complex of right
    modules and P (x)_A DA resolves DA by the left projectives
    Ae_u (x) e_v DA.  Hence T = H^n Hom_A(P (x)_A DA, A), with a acting on the
    left through the right action on DA and on the right through A.  And
    Hom_A(Ae_u (x) e_v DA, A) = Hom_k(e_v DA, e_uA) = e_uA (x) Ae_v =
    Hom_E(Ae_u (x) e_vA, E), naturally in P, with a acting on the left on
    Ae_v and on the right on e_uA on both sides (the inner structure of E).

    The right E-modules e_x E of Hom_E(P, E) are made left ones by the swap
    anti-automorphism s(i (x) j) = j (x) i of E: term k has the vertices
    (v, u) of the resolution's term (u, v), and as Hom_E(-, E) turns right
    multiplication by m into left, each differential is transposed with s
    applied to its entries.  For n > pd A the complex is zero in degree n."""
    M = env_module(alg, regular_bimodule)
    res = _module_resolution(M, n + 1)
    E = M.alg
    pair_index = E.tensor_info[2]
    swap = {k: pair_index[(j, i)] for (i, j), k in pair_index.items()}
    terms = {k: [(v, u) for u, v in res.term_verts(k)] for k in range(res.length + 1)}
    diffs = {k - 1: [[{swap[e]: c for e, c in row[s].items()} for row in em]
                     for s in range(len(terms[k]))]
             for k, em in res.eltmats.items()}
    P = PerfComplex(E, terms, diffs)
    H = tensor_complex(regular_bimodule(E), P, (n - 1, n, n + 1)).cohomology(n)
    out = env_module_to_bimodule(H, alg)
    out.name = "T"
    return out


# -- tensor algebra of a bimodule --------------------------------------


def tensor_algebra(alg: Algebra, T: Bimodule, cap=24, name=None):
    """The graded algebra alg (+) T (+) T(x)T (+) ... with multiplication
    by tensor concatenation; terminates when a tensor power vanishes."""
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
            m = Tk.lact_mat(j, v)
            return (bj.tgt, v), m.apply(vec)
        if bj.tgt != v:
            return None
        m = Tk.ract_mat(u, j)
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


def preprojective(alg: Algebra, n: int, cap=24, report=None):
    """The (n+1)-preprojective algebra: tensor algebra of Ext^n(D reg, reg).
    Requires a positive representation-finiteness verdict (NotNRF for a
    negative one, CapExceeded for an undecided one) and verifies that the
    result is selfinjective."""
    if report is None:
        report = decide_nrf(alg, n)
    if report.is_nrf is UNDECIDED:
        raise CapExceeded(report.reason)
    if report.is_nrf is not True:
        raise NotNRF(report.reason or "not representation-finite")
    T = ext_bimodule(alg, n)
    if T.total_dim == 0:
        pi = alg
        return pi
    pi = tensor_algebra(alg, T, cap=cap)
    if not is_selfinjective(pi):
        raise NotSelfinjective("preprojective algebra fails selfinjectivity")
    return pi


def nakayama_permutation(p: Algebra):
    """For selfinjective p: the permutation sending i to the vertex j
    with the injective at i isomorphic to the projective at j,
    equivalently socle(P_j) is the simple at i.  It is the match that
    `is_selfinjective` has already made."""
    if not is_selfinjective(p):
        raise NotSelfinjective(p.name)
    return {i: _projective_partner(p, i) for i in p.vertices}


def auslander_algebra(alg: Algebra, summands):
    """Endomorphism algebra of the direct sum of the given pairwise
    non-isomorphic modules, as a based algebra with one vertex per
    summand."""
    nsum = len(summands)
    homs = {}
    for s in range(nsum):
        for t in range(nsum):
            homs[(s, t)] = hom(summands[s], summands[t])

    def flatten(mor):
        return [x for v in alg.vertices for row in mor.mats[v].a for x in row]

    # basis: identity per summand first, then a radical complement
    basis_mors = []
    basis_meta = []
    for s in range(nsum):
        ident = Morphism(summands[s], summands[s],
                         {v: Mat.identity(summands[s].dims[v]) for v in alg.vertices})
        basis_mors.append(ident)
        basis_meta.append(BasisElt(f"e[{s}]", s, s, 0))
    for s in range(nsum):
        for t in range(nsum):
            cand = homs[(s, t)]
            if s == t:
                # subtract the scalar part so the rest is radical
                dim_s = summands[s].total_dim
                rad = []
                for h in cand:
                    trace = 0
                    for v in alg.vertices:
                        m = h.mats[v]
                        for k in range(m.rows):
                            trace += m.a[k][k]
                    lam = trace * inv(dim_s)
                    adj = h.add(basis_mors[s].scale(-lam))
                    rad.append(adj)
                rows = [flatten(h) for h in rad]
                sel = independent_subset([], rows)
                for idx in sel:
                    basis_mors.append(rad[idx])
                    basis_meta.append(BasisElt(f"r[{s},{t}]{idx}", s, t, 1))
            else:
                for idx, h in enumerate(cand):
                    basis_mors.append(h)
                    basis_meta.append(BasisElt(f"h[{s},{t}]{idx}", s, t, 1))
    # per-block coordinate matrices for product expansion: morphisms with
    # the same domain and codomain summand flatten to equal-length vectors
    blocks = {}
    for idx, bm in enumerate(basis_meta):
        blocks.setdefault((bm.src, bm.tgt), []).append(idx)
    block_mats = {}
    for key, idxs in blocks.items():
        rows = [flatten(basis_mors[i]) for i in idxs]
        block_mats[key] = Mat.from_rows(rows, ncols=len(rows[0])).transpose()
    mult = {}
    for x, hx in enumerate(basis_mors):
        for y, hy in enumerate(basis_mors):
            if basis_meta[x].src != basis_meta[y].tgt:
                continue
            comp = hx.compose(hy)
            vec = flatten(comp)
            if not any(vec):
                continue
            key = (basis_meta[y].src, basis_meta[x].tgt)
            sol = block_mats[key].solve(vec)
            if sol is None:
                raise ValueError("endomorphism composition leaves the basis span")
            out = {blocks[key][k]: c for k, c in enumerate(sol) if c}
            if out:
                mult[(x, y)] = out
    gamma = Algebra(list(range(nsum)), basis_meta, mult, name=f"End({alg.name})")
    gamma.check_associativity()
    return gamma


def recover_presentation(alg: Algebra, max_degree=None):
    """Quiver-and-relations presentation of a based algebra: arrows are a
    basis of rad/rad^2, relations are a minimal generating set of the
    kernel of the path-algebra surjection, found degree by degree."""
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


def tensor_nrf(factors, ell, cap=None):
    """Tensor-product construction: factors is a list of (Algebra, n_i),
    each required to be ell-homogeneous n_i-representation-finite; returns
    (product algebra, report) for n = sum(n_i), with the predicted cluster
    tilting module as report.predicted_ct.  A factor that fails raises
    FactorNotHomogeneous, one left undecided at the cap CapExceeded."""
    reports = []
    for a, ni in factors:
        rep = decide_nrf(a, ni, cap=cap)
        if rep.is_nrf is UNDECIDED:
            raise CapExceeded(f"{a.name}: {rep.reason}")
        if rep.is_nrf is not True or not homogeneity(rep) or rep.ell_value() != ell:
            raise FactorNotHomogeneous(
                f"{a.name} is not {ell}-homogeneous {ni}-representation-finite"
            )
        reports.append(rep)
    chain = [factors[0][0]]
    for a, _ in factors[1:]:
        chain.append(tensor_product(chain[-1], a))
    prod = chain[-1]
    n_total = sum(ni for _, ni in factors)
    rep = decide_nrf(prod, n_total, cap=cap)
    if rep.is_nrf is not True:
        return prod, rep
    assert homogeneity(rep) and rep.ell_value() == ell, "tensor product lost homogeneity"
    # predicted cluster tilting module: sum over i of the outer tensor of
    # the tau^{-i} translates of the regular modules, assembled along the
    # same association order used to build `prod`
    predicted = []
    for i in range(ell):
        parts = []
        for a, ni in factors:
            X = regular_module(a)
            for _ in range(i):
                X = tau_n_minus(X, ni)
            parts.append(X)
        cur = parts[0]
        for idx, nxt in enumerate(parts[1:], start=1):
            cur = outer_tensor_module(cur, nxt, chain[idx])
        predicted.append(cur)
    rep.predicted_ct = direct_sum(predicted)
    return prod, rep
