"""The tau_n-orbits of `decide_nrf` are walked in lockstep: each stage
resolves the sum of the live orbits' modules once, builds one Nakayama
complex laid out orbit by orbit, and splits its cohomology by orbit.
`conftest.walk_tau_orbit_oracle`, the walk of one orbit alone that this
replaced, is the oracle: every stage must have its dimensions and blocks,
every orbit its end vertex and reason, and every report the verdict that
the per-orbit walk gives, on the corpus at n = 1, 2, 3, all 65 (2,4)
cuts, every 24th (2,5) cut, every 80th (3,4) cut, the two cyclic quivers
of finite global dimension, a capped call and the wild Kronecker quivers
with three and four arrows.  The orbits after the first that ends
without a projective stop walking, and kept walks are read, not walked
again."""

import time

import pytest

from conftest import CORPUS, walk_tau_orbit_oracle
from quivercy import ar
from quivercy.ar import NrfReport, decide_nrf
from quivercy.constructions import TypeAQuiver, cut_algebra, enumerate_cuts
from quivercy.cy import certificate_from_orbits, find_twisted_cy, k0_candidates
from quivercy.errors import UNDECIDED
from quivercy.homology import default_cap
from quivercy.parsing import load_algebra_file, parse_algebra_file

STEMS = sorted(p.stem for p in CORPUS.glob("*.alg"))
CUTS = ([(2, 4, i) for i in range(65)] + [(2, 5, i) for i in range(0, 480, 24)]
        + [(3, 4, i) for i in range(0, 640, 80)])
# cyclic quivers of finite global dimension 2 and 3, whose walks fail at
# stage 0
CYCLIC = {"cycle2_ab": ("vertices: 1 2\narrows:\n  a: 1 -> 2\n  b: 2 -> 1\n"
                        "relations:\n  a*b\n", 2),
          "cycle3": ("vertices: 1 2 3\narrows:\n  a: 1 -> 2\n  b: 2 -> 3\n  c: 3 -> 1\n"
                     "relations:\n  a*b\n  b*c\n", 3)}


def _corpus(stem):
    return load_algebra_file(str(CORPUS / f"{stem}.alg")).build(name=stem)


def _cut(n, s, i):
    q = TypeAQuiver(n, s)
    return cut_algebra(q, enumerate_cuts(q)[i])


def _kronecker(arrows):
    text = "".join(f"  a{j}: 1 -> 2\n" for j in range(arrows))
    return parse_algebra_file(f"vertices: 1 2\narrows:\n{text}").build(name=f"K{arrows}")


def _blocks(X):
    return {i: list(triples) for i, triples in X.blocks().items()}


def _same_walk(walk, ref):
    (stages, v, reason), (ref_stages, ref_v, ref_reason) = walk, ref
    assert (v, reason) == (ref_v, ref_reason)
    assert len(stages) == len(ref_stages)
    for X, Y in zip(stages, ref_stages):
        assert X.dims == Y.dims
        assert _blocks(X) == _blocks(Y)


def _assert_walks_match_the_oracle(rep, cap=None):
    """rep = decide_nrf(alg, n, cap) on a fresh algebra against the
    per-orbit walks: the report, and every walk that the lockstep kept."""
    alg, n = rep.alg, rep.n
    if cap is None:
        cap = default_cap(alg)
    if rep.gl_dim is None or rep.gl_dim > n:
        return rep
    kept = ar._kept_walks(alg, n)
    oracle = {}
    # the report: the per-orbit walks in vertex order, up to the first
    # that does not end on a projective
    ell, sigma, verdict = {}, {}, (True, None)
    for i in alg.vertices:
        walk = oracle[i] = walk_tau_orbit_oracle(alg, i, n, cap)
        if walk is None:
            verdict = (UNDECIDED, f"orbit of injective at {i} exceeds the cap")
            assert i not in kept
            break
        if walk[1] is None:
            verdict = (False, walk[2])
            break
        ell[i], sigma[i] = len(walk[0]), walk[1]
    if verdict[0] is True and set(sigma.values()) != set(alg.vertices):
        verdict = (False, "orbit endpoints do not exhaust the projectives")
    assert (rep.is_nrf, rep.reason) == verdict
    assert (rep.ell, rep.sigma) == (ell, sigma)
    assert all(rep.orbit_table[i] is kept[i][0] for i in ell)
    # every walk the lockstep kept, also past the first that failed
    for i, walk in kept.items():
        ref = oracle[i] if i in oracle else walk_tau_orbit_oracle(alg, i, n, cap)
        _same_walk(walk, ref)
    return rep


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("stem", STEMS)
def test_corpus_walks_match_the_oracle(stem, n):
    rep = _assert_walks_match_the_oracle(decide_nrf(_corpus(stem), n))
    if (stem, n) == ("a2_tensor_a2", 2):
        assert rep.is_nrf is False and rep.reason.endswith("Ext^1(X, reg) != 0")


@pytest.mark.parametrize("case", CUTS, ids=str)
def test_cut_walks_match_the_oracle(case):
    rep = _assert_walks_match_the_oracle(decide_nrf(_cut(*case), case[0]))
    assert rep.is_nrf is True


@pytest.mark.parametrize("name", sorted(CYCLIC))
def test_cyclic_walks_fail_at_stage_0_as_the_oracle(name):
    text, gl_dim = CYCLIC[name]
    rep = _assert_walks_match_the_oracle(decide_nrf(parse_algebra_file(text).build(), gl_dim))
    assert rep.reason == "orbit of injective at 1: stage 0 has Ext^0(X, reg) != 0"


@pytest.mark.parametrize("stem,cap", [("a3_linear", 1), ("kronecker", None)])
def test_capped_walks_match_the_oracle(stem, cap):
    rep = _assert_walks_match_the_oracle(decide_nrf(_corpus(stem), 1, cap), cap)
    assert rep.is_nrf is UNDECIDED
    assert rep.reason == "orbit of injective at 1 exceeds the cap"


def test_kept_walks_give_find_twisted_cy_under_its_short_cap(monkeypatch):
    # find_twisted_cy after decide_nrf walks at n = gl.dim to the largest
    # K_0 candidate, fewer stages than decide_nrf's cap: it reads the walks
    # decide_nrf kept and builds no Nakayama complex for them
    alg = _cut(2, 5, 120)
    assert decide_nrf(alg, 2).is_nrf is True
    last = list(k0_candidates(alg, 24))[-1][0]
    assert last < default_cap(alg)
    built = []
    real = ar.tensor_complex
    monkeypatch.setattr(ar, "tensor_complex", lambda *args: built.append(args) or real(*args))
    cert = find_twisted_cy(alg)
    assert built == []
    # the same certificate from the per-orbit walks under that cap
    report = NrfReport(alg, 2)
    for i in alg.vertices:
        stages, v, _ = walk_tau_orbit_oracle(alg, i, 2, last)
        report.ell[i], report.sigma[i] = len(stages), v
    ref = certificate_from_orbits(report)
    assert cert is not None and (cert.ell, cert.m) == (ref.ell, ref.m)
    # and from a fresh algebra, whose walks run under that cap first
    fresh = find_twisted_cy(_cut(2, 5, 120))
    assert (fresh.ell, fresh.m) == (cert.ell, cert.m)


def test_orbits_after_the_first_failure_stop(monkeypatch):
    # the commutative square a2 (x) a2 beside the commutative 3x2 grid
    # a3 (x) a2, at n = 2: the orbit of 12 fails at stage 0, which decides
    # the report, so the grid's orbits of p1 and p2, alive after stage 0,
    # are walked no further; a second call reads the kept walks
    text = ("vertices: 11 12 21 22 p1 p2 p3 q1 q2 q3\narrows:\n"
            "  a1: 11 -> 21\n  a2: 12 -> 22\n  b1: 11 -> 12\n  b2: 21 -> 22\n"
            "  r1: p1 -> p2\n  r2: p2 -> p3\n  s1: q1 -> q2\n  s2: q2 -> q3\n"
            "  c1: p1 -> q1\n  c2: p2 -> q2\n  c3: p3 -> q3\n"
            "relations:\n  a1*b2 - b1*a2\n  r1*c2 - c1*s1\n  r2*c3 - c2*s2\n")
    alg = parse_algebra_file(text).build()
    built = []
    real = ar.tensor_complex
    monkeypatch.setattr(ar, "tensor_complex",
                        lambda X, P, degrees=None: built.append(len(P)) or real(X, P, degrees))
    rep = _assert_walks_match_the_oracle(decide_nrf(alg, 2))
    assert rep.reason == "orbit of injective at 12: stage 0 has Ext^1(X, reg) != 0"
    assert built == [8]
    assert not {"p1", "p2"} & set(ar._kept_walks(alg, 2))
    del built[:]
    assert decide_nrf(alg, 2).to_dict() == rep.to_dict() and built == []


@pytest.mark.parametrize("arrows,caps", [(3, (1, 2, 3)), (4, (1, 2))])
def test_wild_kronecker_stops_at_the_cap(arrows, caps):
    # the stages of a wild quiver grow by the Coxeter spectral radius, so
    # only the cap stops the walk; the lockstep walks both orbits to it.
    # On a 2-CPU host the per-orbit walk took 1-45 ms per call, and the
    # lockstep took 1-570 ms (3-Kronecker at cap 3 the most); the budget
    # is 5 s per call
    for cap in caps:
        alg = _kronecker(arrows)
        start = time.perf_counter()
        rep = decide_nrf(alg, 1, cap)
        elapsed = time.perf_counter() - start
        assert rep.is_nrf is UNDECIDED
        assert rep.reason == "orbit of injective at 1 exceeds the cap"
        _assert_walks_match_the_oracle(rep, cap)
        assert elapsed < 5, f"{arrows}-Kronecker at cap {cap} took {elapsed:.2f} s"
