from fractions import Fraction
from types import SimpleNamespace

import pytest

from conftest import (
    check_twisted_cy_oracle,
    corpus_algebra,
    find_twisted_cy_oracle,
    k0_powers_oracle,
    nakayama_powers_oracle,
    projective_module,
)
from quivercy import ar, cy
from quivercy.ar import decide_nrf
from quivercy.constructions import TypeAQuiver, cut_algebra, enumerate_cuts
from quivercy.cy import (
    ORBIT_ROUTE,
    TOWER_ROUTE,
    CyCertificate,
    certificate_from_orbits,
    check_twisted_cy,
    check_untwisted_cy,
    combine_cy,
    cy_dimension,
    find_twisted_cy,
    k0_candidates,
    k0_nakayama,
    nakayama_power,
)
from quivercy.errors import CapExceeded
from quivercy.homology import (
    ModComplex,
    default_cap,
    global_dimension,
    is_shifted_regular,
    nakayama,
    stalk_regular,
)
from quivercy.module import injective_module
from quivercy.parsing import parse_algebra_file

# the minimal twisted certificate (ell, m) of each corpus algebra but Kronecker
CORPUS_CERTS = {
    "a2": (3, 1),
    "a3_linear": (4, 2),
    "a3_stable": (2, 1),
    "a4_linear": (5, 3),
    "a5_stable": (3, 2),
    "d4": (3, 2),
    "a2_tensor_a2": (3, 2),
}


def test_certificate_basics():
    c = CyCertificate(3, 1, twisted=True)
    assert cy_dimension(c) == Fraction(1, 3)
    d = c.to_dict()
    assert d["ell"] == 3 and d["m"] == 1 and d["twisted"]


def test_combine_cy():
    c1 = CyCertificate(3, 1, twisted=True)
    c2 = CyCertificate(2, 1, twisted=True)
    m, ell = combine_cy([c1, c2])
    assert (m, ell) == (5, 6)
    m, ell = combine_cy([c1, c1])
    assert Fraction(m, ell) == Fraction(2, 3)


def test_check_twisted_a2(a2):
    assert check_twisted_cy(a2, 3, 1)
    assert not check_twisted_cy(a2, 2, 1)
    assert not check_twisted_cy(a2, 3, 2)
    with pytest.raises(ValueError):
        check_twisted_cy(a2, 0, 0)


def test_check_twisted_stable_a3(a3_stable):
    assert check_twisted_cy(a3_stable, 2, 1)
    assert not check_twisted_cy(a3_stable, 2, 2)


def test_find_twisted_minimal_certificates(a2, a3_linear, a3_stable, a4_linear, d4):
    for alg, ell, m in [
        (a2, 3, 1),
        (a3_linear, 4, 2),
        (a3_stable, 2, 1),
        (a4_linear, 5, 3),
        (d4, 3, 2),
    ]:
        cert = find_twisted_cy(alg)
        assert cert is not None
        assert (cert.ell, cert.m) == (ell, m)
        assert cert.twisted


def test_find_twisted_none_for_kronecker_small_window(kronecker):
    # representation-infinite hereditary: no certificate in a small window
    assert find_twisted_cy(kronecker, ell_max=6, m_max=6) is None


def test_scaling_invariance(a2, a3_stable):
    for k in (2, 3):
        assert check_twisted_cy(a2, 3 * k, k)
        assert check_twisted_cy(a3_stable, 2 * k, k)


def test_untwisted_a2(a2):
    assert check_untwisted_cy(a2, 3, 1)
    assert not check_untwisted_cy(a2, 3, 2)


def test_twisted_but_not_untwisted(a3_stable):
    # the twist is a genuine diagram automorphism here
    assert check_twisted_cy(a3_stable, 2, 1)
    assert not check_untwisted_cy(a3_stable, 2, 1)
    assert check_untwisted_cy(a3_stable, 4, 2)


def test_untwisted_tensor_square(a2sq):
    assert check_untwisted_cy(a2sq, 3, 2)


def test_untwisted_builds_only_the_shifted_cohomology(monkeypatch, a2sq):
    # the other degrees are ruled out by ranks, and H^{-m} alone is built
    calls = []
    real = ModComplex.cohomology
    monkeypatch.setattr(ModComplex, "cohomology", lambda C, i: calls.append(i) or real(C, i))
    assert check_untwisted_cy(a2sq, 6, 4) is True
    assert calls == [-4]


# -- the K_0 gate, cross-checked against the ungated search ---------------


def _ungated_shifts(alg, ell_max):
    """is_shifted_regular of nu^ell of the regular module for every ell
    from 1 to ell_max, with no K_0 gate."""
    global_dimension(alg)
    C = stalk_regular(alg)
    out = []
    for _ in range(ell_max):
        C = nakayama(C)
        out.append(is_shifted_regular(C))
    return out


def _ungated_find(alg, ell_max, m_max=24):
    global_dimension(alg)
    C = stalk_regular(alg)
    for ell in range(1, ell_max + 1):
        C = nakayama(C)
        m = is_shifted_regular(C)
        if m is not None and 0 <= m <= m_max:
            return ell, m
    return None


def _matpow(N, ell):
    P = N
    for _ in range(ell - 1):
        P = [[sum(x * y for x, y in zip(row, col)) for col in zip(*N)] for row in P]
    return P


@pytest.mark.parametrize("stem", [*CORPUS_CERTS, "kronecker"])
def test_gated_search_matches_ungated(stem):
    ell_max = 6 if stem == "kronecker" else 24
    cert = find_twisted_cy(corpus_algebra(stem), ell_max=ell_max)
    found = None if cert is None else (cert.ell, cert.m)
    assert found == _ungated_find(corpus_algebra(stem), ell_max)
    assert found == CORPUS_CERTS.get(stem)
    # the commutative square is not 2-representation-finite, so its
    # orbits give no certificate and the tower decides
    if cert is not None:
        route = TOWER_ROUTE if stem == "a2_tensor_a2" else ORBIT_ROUTE
        assert cert.evidence["route"] == route


@pytest.mark.parametrize("stem", ["a2", "a3_linear", "a3_stable", "d4"])
def test_gated_check_matches_ungated(stem):
    shifts = _ungated_shifts(corpus_algebra(stem), 6)
    alg = corpus_algebra(stem)
    for ell in range(1, 7):
        for m in range(7):
            assert check_twisted_cy(alg, ell, m) == (shifts[ell - 1] == m), (ell, m)


def _k0_inputs():
    """The corpus algebras, all 65 (2,4) cuts and every 40th (2,5) cut."""
    q4, q5 = TypeAQuiver(2, 4), TypeAQuiver(2, 5)
    algs = [corpus_algebra(stem) for stem in [*CORPUS_CERTS, "kronecker"]]
    algs += [cut_algebra(q4, c) for c in enumerate_cuts(q4)]
    return algs + [cut_algebra(q5, c) for c in enumerate_cuts(q5)[::40]]


def test_k0_matrix_sends_projectives_to_injectives():
    # column w of N holds the class of I_w = nu P_w in the basis of the
    # [P_v]: a check that shares no elimination with k0_nakayama
    for alg in _k0_inputs():
        N = k0_nakayama(alg)
        vs = alg.vertices
        for w, col in zip(vs, zip(*N)):
            dims = [sum(c * projective_module(alg, v).dims[u] for c, v in zip(col, vs))
                    for u in vs]
            assert dims == [injective_module(alg, w).dims[u] for u in vs]


def test_corpus_certificates_satisfy_the_k0_condition():
    for stem, (ell, m) in CORPUS_CERTS.items():
        alg = corpus_algebra(stem)
        P = _matpow(k0_nakayama(alg), ell)
        # N^ell = (-1)^m times a permutation matrix
        nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in P]
        assert all(len(e) == 1 and e[0][1] == (-1) ** m for e in nonzero), stem
        assert sorted(e[0][0] for e in nonzero) == list(range(len(P))), stem
        assert (ell, (-1) ** m) in list(k0_candidates(alg, ell)), stem
    # the untwisted certificate (3, 2) of the commutative square fixes
    # every projective, so N^3 is the identity
    N = k0_nakayama(corpus_algebra("a2_tensor_a2"))
    assert _matpow(N, 3) == [[int(i == j) for j in range(4)] for i in range(4)]


def _k0_candidates_uncached(alg, ell_max):
    """[(ell, eps)] for every ell <= ell_max at which N^ell is a signed
    permutation, by an in-test scan of the powers that keeps nothing."""
    return [(ell, eps) for ell, (_, eps) in enumerate(k0_powers_oracle(alg, ell_max), 1)
            if eps is not None]


def test_k0_candidates_match_the_full_power_scan():
    for alg in _k0_inputs():
        assert list(k0_candidates(alg, 24)) == _k0_candidates_uncached(alg, 24), alg.name


def test_kept_k0_scan_matches_an_uncached_scan(monkeypatch):
    # k0_candidates keeps its scan on the algebra: whatever the order of
    # the calls, each ell <= 24 gets the uncached answer, and no power is
    # computed twice
    q = TypeAQuiver(2, 4)
    builds = ([lambda stem=stem: corpus_algebra(stem) for stem in [*CORPUS_CERTS, "kronecker"]]
              + [lambda c=c: cut_algebra(q, c) for c in enumerate_cuts(q)])
    assert len(builds) == 8 + 65
    signs = _counting(monkeypatch, cy, "_permutation_sign")
    for build in builds:
        full = _k0_candidates_uncached(build(), 24)
        for order in (range(1, 25), range(24, 0, -1)):
            alg = build()
            signs.clear()
            for ell in order:
                expected = [(e, s) for e, s in full if e <= ell]
                assert list(k0_candidates(alg, ell)) == expected, (alg.name, ell)
            assert len(signs) == (full[0][0] if full else 24), alg.name


def test_kronecker_k0_scan_runs_once(monkeypatch):
    kronecker = corpus_algebra("kronecker")  # fresh: the fixture may have scanned
    signs = _counting(monkeypatch, cy, "_permutation_sign")
    assert find_twisted_cy(kronecker, ell_max=24) is None
    for ell in range(2, 7):
        assert check_twisted_cy(kronecker, ell, 0) is False
    assert find_twisted_cy(kronecker, ell_max=24) is None
    assert len(signs) == 24


def test_the_k0_scan_and_the_untwisted_gate_share_one_list(monkeypatch):
    # ell0 = 3 for the commutative square: after the search, the gate at 3
    # reads N^3 and its sign from the algebra's list, the gate at 4 builds
    # no power since 4 is no candidate, and two gates at 6 build N^4..N^6
    # once between them
    alg = corpus_algebra("a2_tensor_a2")  # fresh: the fixture may have scanned
    assert find_twisted_cy(alg, ell_max=24) is not None
    signs = _counting(monkeypatch, cy, "_permutation_sign")
    assert check_untwisted_cy(alg, 3, 2) is True
    assert signs == []
    for m in range(4):
        assert check_untwisted_cy(alg, 4, m) is False
    assert signs == []
    assert check_untwisted_cy(alg, 6, 4) is True
    assert check_untwisted_cy(alg, 6, 4) is True
    assert len(signs) == 3


@pytest.mark.parametrize("text,error", [
    # k[x]/(x^2): C = (2), invertible over Q with det 2
    ("vertices: 1\narrows:\n  x: 1 -> 1\nzero:\n  x*x\n",
     "the Cartan matrix is not invertible over the integers"),
    # the 2-cycle with both paths of length 2 zero: C = [[1, 1], [1, 1]]
    ("vertices: 1 2\narrows:\n  a: 1 -> 2\n  b: 2 -> 1\nzero:\n  a*b\n  b*a\n",
     "the Cartan matrix is singular"),
])
def test_k0_nakayama_rejects_a_cartan_matrix_without_integral_inverse(text, error):
    with pytest.raises(ValueError, match=error):
        k0_nakayama(parse_algebra_file(text).build())


def _counting(monkeypatch, mod, name):
    calls = []
    real = getattr(mod, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(mod, name, counting)
    return calls


def test_kronecker_search_computes_no_nakayama_power(kronecker, monkeypatch):
    calls = _counting(monkeypatch, cy, "nakayama")
    stages = _counting(monkeypatch, ar, "tau_n")  # nor walks any orbit
    assert find_twisted_cy(kronecker, ell_max=24) is None
    assert list(k0_candidates(kronecker, 24)) == []
    assert calls == stages == []


# -- the tau_n orbits route, cross-checked against the tower --------------


def test_orbit_certificate_matches_tower_on_2_4_cuts():
    q = TypeAQuiver(2, 4)
    for c in enumerate_cuts(q)[::5]:
        alg = cut_algebra(q, c)
        expected = _ungated_find(cut_algebra(q, c), 24)
        assert expected is not None
        cert = certificate_from_orbits(decide_nrf(alg, 2))
        assert (cert.ell, cert.m) == expected, c
        cert = find_twisted_cy(alg)
        assert (cert.ell, cert.m, cert.evidence["route"]) == (*expected, ORBIT_ROUTE), c


def test_2_5_cuts_need_no_nakayama_power(monkeypatch):
    calls = _counting(monkeypatch, cy, "nakayama")
    q = TypeAQuiver(2, 5)
    cuts = enumerate_cuts(q)
    for c in (cuts[5], cuts[330]):
        cert = find_twisted_cy(cut_algebra(q, c))
        assert (cert.ell, cert.m, cert.evidence["route"]) == (7, 8, ORBIT_ROUTE)
    assert calls == []


def test_orbits_are_walked_once(monkeypatch):
    alg = corpus_algebra("a3_stable")
    decide_nrf(alg, 1)
    calls = _counting(monkeypatch, ar, "tau_n")
    assert (find_twisted_cy(alg).ell, decide_nrf(alg, 1).is_nrf) == (2, True)
    assert calls == []


# -- the Nakayama tower, kept per algebra and cap -------------------------

STEMS = [*CORPUS_CERTS, "kronecker"]
GLDIM = dict.fromkeys(STEMS, 1) | {"a2_tensor_a2": 2}


@pytest.mark.parametrize("stem", STEMS)
def test_tower_matches_the_loop(stem):
    alg = corpus_algebra(stem)
    # extend the tower in steps, then read every power back
    for k in (3, 1, 8):
        nakayama_power(alg, k)
    powers = [nakayama_power(alg, k) for k in range(1, 9)]
    for k, (P, Q) in enumerate(zip(powers, nakayama_powers_oracle(corpus_algebra(stem), 8)), 1):
        assert (P.terms, P.diffs) == (Q.terms, Q.diffs), k


def _search(alg):
    cert = find_twisted_cy(alg)
    return cert and cert.to_dict()


def _scan(alg, check):
    return [(ell, m) for ell in range(2, 7) for m in range(2 * ell) if check(alg, ell, m)]


@pytest.mark.parametrize("stem", STEMS)
def test_scan_and_search_agree_in_either_order(stem):
    fresh = (_search(corpus_algebra(stem)), _scan(corpus_algebra(stem), check_twisted_cy_oracle))
    alg = corpus_algebra(stem)
    scan = _scan(alg, check_twisted_cy)
    assert (_search(alg), scan) == fresh
    alg = corpus_algebra(stem)
    search = _search(alg)
    assert (search, _scan(alg, check_twisted_cy)) == fresh


# nakayama calls of the benchmark's corpus_cy operation on a fresh
# algebra.  The checks answer from the least certificate, so only
# a2_tensor_a2, whose orbits give none, builds powers: nu^1..nu^3, where
# its tower finds (3, 2).
CORPUS_CY_CALLS = {"a2": 0, "a3_linear": 0, "a3_stable": 0, "a4_linear": 0,
                   "a5_stable": 0, "d4": 0, "a2_tensor_a2": 3}


@pytest.mark.parametrize("stem", CORPUS_CY_CALLS)
def test_corpus_cy_operation_builds_each_power_once(stem, monkeypatch):
    alg = corpus_algebra(stem)
    n = GLDIM[stem]
    calls = _counting(monkeypatch, cy, "nakayama")
    decide_nrf(alg, n)
    find_twisted_cy(alg)
    for ell in range(2, 7):
        check_twisted_cy(alg, ell, n * (ell - 1))
    assert len(calls) == CORPUS_CY_CALLS[stem]


def test_a_deep_tower_is_built_without_recursion():
    # nu^3 A = A[1] for A2; a memo that built nu^k from nu^(k-1) by
    # recursion would exceed the interpreter's recursion limit here.  The
    # check reads (3, 1) off the orbits and builds no power, so the tower
    # is driven directly.
    alg = corpus_algebra("a2")
    assert check_twisted_cy(alg, 1200, 400)
    assert is_shifted_regular(nakayama_power(alg, 1200)) == 400


def _tower_probe(stem, cap):
    """a2's orbits decide its check, so its tower is read directly;
    a2_tensor_a2's orbits give no certificate, so its check reads the
    tower."""
    ell, m = CORPUS_CERTS[stem]
    if stem == "a2":
        return lambda alg: is_shifted_regular(nakayama_power(alg, ell, cap)) == m
    return lambda alg: check_twisted_cy(alg, ell, m, cap)


@pytest.mark.parametrize("stem, cap, raises", [
    ("a2", 1, True), ("a2", 2, False), ("a2_tensor_a2", 2, True), ("a2_tensor_a2", 3, False),
])
def test_a_capped_check_builds_its_own_tower(stem, cap, raises, monkeypatch):
    # both raising caps pass global_dimension and raise in the projective
    # replacement of nu A
    calls = _counting(monkeypatch, cy, "nakayama")

    def outcome(alg):
        calls.clear()
        try:
            out = _tower_probe(stem, cap)(alg)
        except CapExceeded as exc:
            out = f"CapExceeded: {exc}"
        return out, len(calls)

    fresh = outcome(corpus_algebra(stem))
    assert fresh[0] == ("CapExceeded: projective replacement exceeded the width cap"
                        if raises else True)
    alg = corpus_algebra(stem)
    assert _tower_probe(stem, None)(alg) and calls
    assert outcome(alg) == fresh
    # a raising power is not kept: the next call raises at it again
    assert outcome(alg) == (fresh if raises else (True, 0))


def test_a_cap_exceeded_mid_tower_keeps_the_powers_below_it(monkeypatch):
    # the orbits of a2_tensor_a2 give no certificate, so its check reads
    # the tower up to nu^3
    alg = corpus_algebra("a2_tensor_a2")
    nu2 = nakayama_power(alg, 2)
    real = cy.nakayama
    calls = []

    def capped(P, cap=None):
        calls.append(P)
        if P is nu2:
            raise CapExceeded("projective replacement exceeded the width cap")
        return real(P, cap=cap)

    monkeypatch.setattr(cy, "nakayama", capped)
    for _ in range(2):
        with pytest.raises(CapExceeded):
            check_twisted_cy(alg, 3, 2)
    assert calls == [nu2, nu2]
    assert nakayama_power(alg, 2) is nu2


def test_cap_none_and_the_default_cap_share_one_tower(monkeypatch):
    # None is read as default_cap before the tower is keyed, so the second
    # call builds nothing
    calls = _counting(monkeypatch, cy, "nakayama")
    alg = corpus_algebra("a2_tensor_a2")
    nu3 = nakayama_power(alg, 3)
    assert len(calls) == 3
    assert nakayama_power(alg, 3, cap=default_cap(alg)) is nu3
    assert len(calls) == 3


def test_a_capped_check_the_orbits_decide_builds_no_power(monkeypatch):
    # the tower raises under cap 1 at nu A, as the oracle shows, but the
    # orbits give a2's certificate (3, 1) without any power
    with pytest.raises(CapExceeded):
        check_twisted_cy_oracle(corpus_algebra("a2"), 3, 1, 1)
    calls = _counting(monkeypatch, cy, "nakayama")
    alg = corpus_algebra("a2")
    assert [check_twisted_cy(alg, ell, 1, 1) for ell in (3, 6)] == [True, False]
    assert check_twisted_cy(alg, 6, 2, 1)
    assert calls == []


# -- the least certificate, cross-checked against the oracles -------------


@pytest.mark.parametrize("stem", STEMS)
def test_check_matches_the_oracle(stem):
    alg, fresh = corpus_algebra(stem), corpus_algebra(stem)
    for ell in range(1, 13):
        for m in range(2 * ell + 1):
            assert check_twisted_cy(alg, ell, m) == check_twisted_cy_oracle(fresh, ell, m), (ell, m)


def test_check_matches_the_oracle_on_2_4_cuts():
    q = TypeAQuiver(2, 4)
    for c in enumerate_cuts(q)[::5]:
        alg, fresh = cut_algebra(q, c), cut_algebra(q, c)
        global_dimension(alg)
        signs = dict(k0_candidates(alg, 6))
        for ell in range(1, 7):
            # 2 (ell - 1), and the m of ell or ell + 1 that has the sign
            # of N^ell on K_0, when N^ell is a signed permutation
            ms = {2 * (ell - 1)}
            ms |= {m for m in (ell, ell + 1) if ell in signs and (-1) ** m == signs[ell]}
            for m in sorted(ms):
                assert check_twisted_cy(alg, ell, m) == check_twisted_cy_oracle(fresh, ell, m), \
                    (c, ell, m)


@pytest.mark.parametrize("stem", STEMS)
def test_search_matches_the_oracle(stem):
    alg, fresh = corpus_algebra(stem), corpus_algebra(stem)
    for ell_max in (1, 2, 3, 4, 5, 6, 24):
        for m_max in (0, 1, 2, 24):
            got, want = (f(a, ell_max, m_max) for f, a in
                         ((find_twisted_cy, alg), (find_twisted_cy_oracle, fresh)))
            assert (got and got.to_dict()) == (want and want.to_dict()), (ell_max, m_max)


def test_the_rule_needs_ell0_to_divide_ell(d4, monkeypatch):
    # no algebra at hand has its least ell0 above its least K_0
    # candidate, where divisibility alone decides; so d4, whose K_0
    # candidates are the multiples of 3 with sign +1, is given the
    # stand-in least certificate (6, 4), and nu^9 A = A[4] passes the
    # K_0 gate and 9 // 6 * 4 = 4, but 6 does not divide 9
    cert = CyCertificate(6, 4, twisted=True)
    monkeypatch.setattr(cy, "_least_certificate", lambda alg, candidates, cap: cert)
    assert [check_twisted_cy(d4, ell, m) for ell, m in [(6, 4), (9, 4), (12, 8)]] == \
        [True, False, True]


@pytest.mark.parametrize("stem", CORPUS_CERTS)
def test_certificates_scale_on_fresh_powers(stem):
    # the divisibility rule, on powers built by the loop rather than read
    # off the orbits or the tower: nu^(k ell0) A = A[k m0]
    ell, m = CORPUS_CERTS[stem]
    powers = nakayama_powers_oracle(corpus_algebra(stem), 3 * ell)
    assert [is_shifted_regular(powers[k * ell - 1]) for k in (1, 2, 3)] == [m, 2 * m, 3 * m]


@pytest.mark.parametrize("stem", ["a2", "kronecker"])
def test_no_candidate_to_test_builds_no_tower(stem):
    # a2's orbits give its least candidate ell, so no candidate is left
    # below it; Kronecker has none
    alg = corpus_algebra(stem)
    find_twisted_cy(alg)
    assert (cy._nakayama_tower.__wrapped__, (None,)) not in alg._cache


# -- the ell rule on synthetic orbit tables --------------------------------


def _rule(n, ell, sigma):
    cert = certificate_from_orbits(SimpleNamespace(n=n, ell=ell, sigma=sigma))
    return None if cert is None else (cert.ell, cert.m)


def test_rule_homogeneous():
    for n in (1, 2, 3):
        assert _rule(n, {1: 4, 2: 4, 3: 4}, {1: 3, 2: 2, 3: 1}) == (4, n * 3)


def test_rule_heterogeneous():
    # the chains 1, 2, 1, ... and 2, 1, 2, ... both first reach 3 after 2 steps
    assert _rule(2, {1: 1, 2: 2}, {1: 2, 2: 1}) == (3, 2)
    assert _rule(1, {1: 1, 2: 2}, {1: 2, 2: 1}) == (3, 1)


def test_rule_disagreeing_shifts():
    # 2 is reached after two steps from 1 and after one from 2
    assert _rule(1, {1: 1, 2: 2}, {1: 1, 2: 2}) is None


def test_rule_endpoints_not_a_permutation():
    assert _rule(1, {1: 1, 2: 1}, {1: 1, 2: 1}) is None
