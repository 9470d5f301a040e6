"""Submodule actions, homology coordinates and resolution differentials are
read off the unit coordinates of rref bases instead of solved for, and
`minimize` resumes its search for a unit entry instead of rescanning.
The constructions they replace are kept here as oracles, and so is the
expansion of element matrices through the multiplication table that
`_col_sum_diff` replaced on the regular bimodule.  A submodule's action
is read off the blocks of its ambient module; the dense product with the
inclusion it replaced is `conftest.submodule_oracle`."""

import sys

import pytest

from conftest import (
    corpus_algebra,
    dense_act_mat,
    dense_action,
    radical_submodule,
    solve_oracle,
    submodule_oracle,
)
from quivercy import ar, cy, homology, module
from quivercy.constructions import TypeAQuiver, cut_algebra, enumerate_cuts, omega_on_cuts
from quivercy.homology import (
    PerfComplex,
    _elt_inverse,
    _sum_info,
    eltmat_zero,
    min_proj_resolution,
    minimize,
    nakayama,
    projective_cover,
    stalk_regular,
    tensor_complex,
    to_projective_complex,
)
from quivercy.linalg import Mat, kernel_units
from quivercy.module import (
    Morphism,
    column_sum,
    direct_sum,
    dual_regular_bimodule,
    injective_module,
    kernel,
    regular_bimodule,
    simple_module,
    zero_module,
)

CORPUS = ["a2", "a3_linear", "a3_stable", "a4_linear", "a5_stable", "d4", "kronecker",
          "a2_tensor_a2"]
CUTS_2_4 = range(0, 65, 5)
CUTS_2_5 = [(2, 5, 0), (2, 5, 240)]
CUTS_2_5_SPARSE = [(2, 5, k) for k in range(0, 480, 120)]
CUTS_3_4_SPARSE = [(3, 4, k) for k in range(0, 640, 160)]


def _algebra(key):
    if key in CORPUS:
        return corpus_algebra(key)
    n, s, idx = key if isinstance(key, tuple) else (2, 4, key)
    q = TypeAQuiver(n, s)
    return cut_algebra(q, enumerate_cuts(q)[idx])


def _gl_dim_n(key):
    return 1 if key in CORPUS and key != "a2_tensor_a2" else 2


def _replace_everywhere(monkeypatch, name, real, new):
    """Replace `name` wherever a quivercy module bound `real` to it."""
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("quivercy") and vars(mod).get(name) is real:
            monkeypatch.setattr(mod, name, new)


# -- submodules ------------------------------------------------------------


def _solve_columns(A, B):
    """The X with A X = B for A of full column rank, column by column."""
    cols = []
    for j in range(B.cols):
        x = solve_oracle(A, B.column(j))
        assert x is not None, "the columns do not span a submodule"
        cols.append(x)
    return Mat.from_rows(cols, ncols=A.cols).transpose()


@pytest.mark.parametrize("key", CORPUS + list(CUTS_2_4) + CUTS_2_5, ids=str)
def test_submodule_actions_match_the_solved_ones(monkeypatch, key):
    # every submodule built along decide_nrf, find_twisted_cy and two
    # Nakayama powers has, entry for entry, the action of the dense
    # oracle; that action makes the span invariant and is the one solve
    # finds
    real = module._sub_from_columns
    seen = []

    def checked(N, cols, units, name="sub"):
        S = real(N, cols, units, name=name)
        dims, act, inc = submodule_oracle(N, cols, units)
        assert (S.dims, dense_action(S)) == (dims, act)
        for i, m in dense_action(N).items():
            b = N.alg.basis[i]
            rhs = m * inc[b.src]
            assert inc[b.tgt] * dense_act_mat(S, i) == rhs
            assert dense_act_mat(S, i) == _solve_columns(inc[b.tgt], rhs)
        seen.append(name)
        return S

    _replace_everywhere(monkeypatch, "_sub_from_columns", real, checked)
    alg = _algebra(key)
    ar.decide_nrf(alg, _gl_dim_n(key))
    cy.find_twisted_cy(alg)
    C = stalk_regular(alg)
    for _ in range(2):
        C = nakayama(C)
    assert any(n.startswith("ker") for n in seen) and "pullback" in seen


def test_radical_submodule_is_invariant(a3_linear, d4, kronecker):
    # the block-read action of rad M on the injectives and on their sum,
    # a column sum, equals the dense oracle's and the one solve finds
    for alg in (a3_linear, d4, kronecker):
        mods = [injective_module(alg, v) for v in alg.vertices]
        for M in mods + [column_sum(dual_regular_bimodule(alg), alg.vertices)]:
            R, inc = radical_submodule(M)
            inc.check()
            cols = {v: inc.mats[v].columns() for v in alg.vertices}
            units = {v: [next(j for j, x in enumerate(c) if x) for c in cs]
                     for v, cs in cols.items()}
            assert (R.dims, dense_action(R)) == submodule_oracle(M, cols, units)[:2]
            for i, m in dense_action(M).items():
                b = alg.basis[i]
                rhs = m * inc.mats[b.src]
                assert dense_act_mat(R, i) == _solve_columns(inc.mats[b.tgt], rhs)


# -- resolution differentials ------------------------------------------------


def _coords(alg, verts, w):
    """(summand, basis index) of each coordinate at w of the sum of the
    projectives at verts: summand by summand, the basis elements from v to
    w of the summand at v in basis order."""
    return [(r, k) for r, v in enumerate(verts) for k, b in enumerate(alg.basis)
            if b.tgt == w and b.src == v]


def _eltmat_to_morphism(alg, src, tgt, m):
    """Module morphism src -> tgt, sums of projectives, for an element
    matrix, each entry expanded through the multiplication table."""
    mats = {}
    for w in alg.vertices:
        scoords, tcoords = _coords(alg, src.verts, w), _coords(alg, tgt.verts, w)
        pos = {key: c for c, key in enumerate(tcoords)}
        mat = Mat.zero(len(tcoords), len(scoords))
        for c, (s, bcol) in enumerate(scoords):
            for r in range(len(tgt.verts)):
                for tdx, cf in m[r][s].items():
                    for k, cf2 in alg.mul(bcol, tdx).items():
                        mat.a[pos[(r, k)]][c] += cf * cf2
        mats[w] = mat
    return Morphism(src, tgt, mats)


def _morphism_to_eltmat(src, tgt, fm):
    """Element matrix of fm read off the images of the generators of src."""
    alg = src.alg
    m = eltmat_zero(len(tgt.verts), len(src.verts))
    for s, a in enumerate(src.verts):
        gen = _coords(alg, src.verts, a).index((s, alg.idem[a]))
        for (r, bidx), val in zip(_coords(alg, tgt.verts, a), fm.mats[a].column(gen)):
            if val:
                m[r][s][bidx] = val
    return m


def _differentials_by_composition(M, length):
    """The differentials of the minimal resolution of M as the element
    matrices of inclusion-of-the-kernel after cover."""
    P, cur, _ = projective_cover(M)
    out = {}
    for k in range(1, length + 1):
        K, cols, units = kernel(cur)
        inc = Morphism(K, cur.src, submodule_oracle(cur.src, cols, units)[2])
        Q, cov, _ = projective_cover(K)
        out[-k] = _morphism_to_eltmat(Q, P, inc.compose(cov))
        P, cur = Q, cov
    return out


@pytest.mark.parametrize("key", CORPUS + list(CUTS_2_4))
def test_resolution_differentials_match_the_composed_ones(key):
    alg = _algebra(key)
    rep = ar.decide_nrf(alg, _gl_dim_n(key))
    mods = [simple_module(alg, v) for v in alg.vertices]
    mods += [injective_module(alg, v) for v in alg.vertices]
    mods += [X for orbit in rep.orbit_table.values() for X in orbit]
    for M in mods:
        res = min_proj_resolution(M)
        assert res.complete
        assert res.diffs == _differentials_by_composition(M, res.length)


def _to_projective_complex_by_composition(C):
    """to_projective_complex with pi^i and the differential read off the
    composite inclusion-of-the-pullback after cover, projected onto the
    two summands of C^i (+) P^{i+1}."""
    alg = C.alg
    hi, lo = max(C.degrees()), min(C.degrees())
    P_sums, P_diffs, pi = {}, {}, {}
    i = hi
    while True:
        Ci, Pnext = C.term(i), P_sums.get(i + 1)
        Pn_mod = Pnext if Pnext is not None else zero_module(alg)
        if Ci.total_dim == 0 and Pn_mod.total_dim == 0 and i < hi:
            break
        S = direct_sum([Ci, Pn_mod])
        tgt1, dC = C.term(i + 1), C.diff(i)
        dP = None
        if i + 1 in P_diffs:
            dP = _eltmat_to_morphism(alg, Pnext, P_sums[i + 2], P_diffs[i + 1])
        mats = {}
        for v in alg.vertices:
            c1, c2 = Ci.dims[v], Pn_mod.dims[v]
            top = [(dC.mats[v].a[r] if dC else [0] * c1)
                   + ([-x for x in pi[i + 1].mats[v].a[r]] if i + 1 in pi else [])
                   for r in range(tgt1.dims[v])]
            bottom = [[0] * c1 + row for row in dP.mats[v].a] if dP else []
            mats[v] = Mat.from_rows(top + bottom, ncols=c1 + c2)
        cols = {v: mats[v].kernel_basis() for v in alg.vertices}
        units = {v: kernel_units(c) for v, c in cols.items()}
        X = module._sub_from_columns(S, cols, units, name="pullback")
        xinc = Morphism(X, S, submodule_oracle(S, cols, units)[2])
        if X.total_dim == 0 and i <= lo:
            break
        Pi, cov, _ = projective_cover(X)
        tot = xinc.compose(cov)
        blocks = [{v: Mat.from_rows(tot.mats[v].a[:Ci.dims[v]], ncols=tot.mats[v].cols)
                   for v in alg.vertices},
                  {v: Mat.from_rows(tot.mats[v].a[Ci.dims[v]:], ncols=tot.mats[v].cols)
                   for v in alg.vertices}]
        pi[i] = Morphism(Pi, Ci, blocks[0])
        P_sums[i] = Pi
        if Pnext is not None and Pnext.verts:
            P_diffs[i] = _morphism_to_eltmat(Pi, Pnext, Morphism(Pi, Pn_mod, blocks[1]))
        i -= 1
    terms = {d: Pd.verts for d, Pd in P_sums.items() if Pd.verts}
    diffs = {d: em for d, em in P_diffs.items() if d in terms and d + 1 in terms}
    return PerfComplex(alg, terms, diffs)


def _assert_pullbacks_match(P, powers):
    """The complexes nakayama replaces along the given number of powers
    from P equal the oracle's; the module view of every complex on the
    way, and so each d_P map, also matches the product expansion."""
    alg = P.alg
    DL = dual_regular_bimodule(alg)
    for _ in range(powers):
        C = tensor_complex(DL, P)
        Q = to_projective_complex(C)
        ref = _to_projective_complex_by_composition(C)
        assert (Q.terms, Q.diffs) == (ref.terms, ref.diffs)
        for X in (P, Q):
            view = X.to_mod_complex()
            assert view.diffs.keys() == X.diffs.keys()
            for i, em in X.diffs.items():
                src = _sum_info.__wrapped__(alg, tuple(X.terms[i]))
                tgt = _sum_info.__wrapped__(alg, tuple(X.terms[i + 1]))
                assert view.diffs[i].mats == _eltmat_to_morphism(alg, src, tgt, em).mats
        P = minimize(Q)
    assert Q.diffs


@pytest.mark.parametrize("key", CORPUS + list(CUTS_2_4) + CUTS_2_5_SPARSE + CUTS_3_4_SPARSE,
                         ids=str)
def test_pullback_differentials_match_the_composed_ones(key):
    _assert_pullbacks_match(stalk_regular(_algebra(key)), 3)


def test_pullback_differentials_match_the_composed_ones_over_the_enveloping_algebra(a2sq):
    # the two nu_E steps of check_untwisted_cy(a2sq, 6, 4)
    _assert_pullbacks_match(cy._bimodule_resolution(a2sq, regular_bimodule), 2)


def test_projective_replacement_rebuilds_no_differential(monkeypatch, a2sq):
    # d_P^{i+1} is read off the map kept from the step before, not
    # re-expanded from its element matrix
    C = tensor_complex(dual_regular_bimodule(a2sq), nakayama(stalk_regular(a2sq)))
    calls = []
    real = homology._col_sum_diff
    monkeypatch.setattr(homology, "_col_sum_diff", lambda *a: calls.append(a) or real(*a))
    Q = to_projective_complex(C)
    assert len(Q.terms) > 2 and not calls


# -- minimize ----------------------------------------------------------------


def _minimize_by_rescanning(P):
    """minimize with a search for the next unit entry that starts over
    from the first differential after every elimination."""
    alg = P.alg
    nv = len(alg.vertices)
    terms = {i: list(t) for i, t in P.terms.items()}
    diffs = {i: [[dict(e) for e in row] for row in d] for i, d in P.diffs.items()}

    def find_unit():
        for i, d in diffs.items():
            for r, row in enumerate(d):
                for s, elt in enumerate(row):
                    if any(k < nv and c for k, c in elt.items()):
                        return i, r, s
        return None

    while True:
        hit = find_unit()
        if hit is None:
            break
        i, r, s = hit
        d = diffs[i]
        ainv = _elt_inverse(alg, d[r][s])
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
        if i - 1 in diffs:
            diffs[i - 1] = [row for t, row in enumerate(diffs[i - 1]) if t != s]
        if i + 1 in diffs:
            diffs[i + 1] = [[e for t, e in enumerate(row) if t != r] for row in diffs[i + 1]]
        terms[i] = [v for t, v in enumerate(terms[i]) if t != s]
        terms[i + 1] = [v for t, v in enumerate(terms[i + 1]) if t != r]
        diffs[i] = nd if nd and nd[0] else eltmat_zero(len(terms[i + 1]), len(terms[i]))
    return PerfComplex(alg, terms, diffs)


@pytest.fixture
def checked_minimize(monkeypatch):
    """Every minimize call also runs the rescanning oracle and compares."""
    calls = []

    def checked(P):
        out = minimize(P)
        ref = _minimize_by_rescanning(P)
        assert (out.terms, out.diffs) == (ref.terms, ref.diffs)
        calls.append(P.width() - out.width())
        return out

    _replace_everywhere(monkeypatch, "minimize", minimize, checked)
    return calls


@pytest.mark.parametrize("stem", CORPUS)
def test_minimize_matches_the_rescanning_search_on_towers(checked_minimize, stem):
    alg = corpus_algebra(stem)
    C = stalk_regular(alg)
    for _ in range(4):
        C = nakayama(C)
    assert len(checked_minimize) == 4 and any(checked_minimize)


def test_minimize_matches_the_rescanning_search_on_bimodules(checked_minimize, a2sq):
    # (6, 4) takes two Nakayama powers of the enveloping algebra; (3, 2)
    # reads its one power off DE (x)_E and minimizes nothing
    assert cy.check_untwisted_cy(a2sq, 6, 4) is True
    assert checked_minimize and any(checked_minimize)


def test_minimize_eliminates_the_first_unit_in_scan_order(checked_minimize, a3_linear):
    # P2 -> P1 (+) P1 -> P1 with both entries of d^0 units: eliminating the
    # first one keeps the second copy of P1 and the entry -a of d^-1, the
    # other one would keep 2a
    P = PerfComplex(a3_linear, {-1: [2], 0: [1, 1], 1: [1]},
                    {-1: [[{3: 2}], [{3: -1}]], 0: [[{0: 1}, {0: 2}]]})
    P.check()
    M = homology.minimize(P)
    assert (M.terms, M.diffs) == ({-1: [2], 0: [1]}, {-1: [[{3: -1}]]})
    assert checked_minimize == [2]


# -- no linear solve ---------------------------------------------------------


def test_verdicts_solve_no_linear_system(monkeypatch):
    def refuse(self, b):
        raise AssertionError("Mat.solve called")

    # Mat has no solve now; the patch keeps any that comes back out of these
    monkeypatch.setattr(Mat, "solve", refuse, raising=False)
    q = TypeAQuiver(2, 4)
    cut = next(c for c in enumerate_cuts(q) if omega_on_cuts(q, c) == c)
    alg = cut_algebra(q, cut)
    assert ar.decide_nrf(alg, 2).is_nrf is True
    assert cy.find_twisted_cy(alg) is not None
    assert cy.check_twisted_cy(alg, 2, 2) is True
    # homology with both a kernel and an image in it: tau_1 = Tor_1 of the
    # simple of projective dimension 2, and the bimodule tower of a2 (x) a2
    sq = corpus_algebra("a2_tensor_a2")
    assert ar.tau_n(simple_module(sq, sq.vertices[0]), 1).total_dim == 0
    assert cy.check_untwisted_cy(sq, 3, 2) is True
