"""Global dimension from the injectives on an acyclic quiver.

`global_dimension` takes max_v pd I_v when the Gabriel quiver is acyclic
and resolves the simple modules otherwise.  The simple-module rule stays
the oracle: both must agree on the corpus, all 65 (2,4) cuts, every 10th
(2,5) cut, every 20th (3,4) cut and the Auslander algebra of a3_stable.
A cyclic quiver (selfinjective Γ, the 2-cycle with rad^2 = 0, a
preprojective algebra) must keep the simple rule: there pd I_v = 0 for
every v while gl.dim is infinite.  `tests/test_cli.py::
test_capped_algebra_is_undecided` checks the 2-cycle's undecided verdict.

The injectives are resolved together, as DA, and the resolution is split
into each I_v's; each slice must equal a fresh resolution of I_v on the
corpus, all (2,4) cuts, every 24th (2,5) cut and every 80th (3,4) cut."""

import pytest

from conftest import CORPUS, corpus_algebra
from quivercy import homology
from quivercy.ar import auslander_algebra, decide_nrf, preprojective
from quivercy.constructions import TypeAQuiver, cut_algebra, enumerate_cuts, gamma_algebra
from quivercy.cy import find_twisted_cy
from quivercy.errors import CapExceeded
from quivercy.homology import (
    _module_resolution,
    _quiver_is_acyclic,
    _simple_resolution_lengths,
    default_cap,
    global_dimension,
    min_proj_resolution,
)
from quivercy.module import ColumnSum, column_sum, dual_regular_bimodule, injective_module
from quivercy.parsing import parse_algebra_file

STEMS = sorted(p.stem for p in CORPUS.glob("*.alg"))
CUTS = ([(2, 4, i) for i in range(65)] + [(2, 5, i) for i in range(0, 480, 10)]
        + [(3, 4, i) for i in range(0, 640, 20)])
CYCLE2 = "vertices: 1 2\narrows:\n  a: 1 -> 2\n  b: 2 -> 1\nrelations:\n  a*b\n  b*a\n"


def _cut(n, s, i):
    q = TypeAQuiver(n, s)
    return cut_algebra(q, enumerate_cuts(q)[i])


def _build(case):
    if case == "auslander_a3_stable":
        a3 = corpus_algebra("a3_stable")
        return auslander_algebra(a3, decide_nrf(a3, 1).ct_summands)
    if isinstance(case, str):
        return corpus_algebra(case)
    return _cut(*case)


def _has_cycle_oracle(alg):
    """An oriented cycle in the Gabriel quiver of `Algebra.generators`, by
    depth-first search."""
    succ = {v: [] for v in alg.vertices}
    for a in alg.gabriel_quiver().arrows:
        succ[a.source].append(a.target)
    state = {}

    def visit(v):
        state[v] = "open"
        for w in succ[v]:
            if state.get(w) == "open" or (w not in state and visit(w)):
                return True
        state[v] = "done"
        return False

    return any(v not in state and visit(v) for v in alg.vertices)


@pytest.mark.parametrize("case", STEMS + CUTS + ["auslander_a3_stable"], ids=str)
def test_injective_rule_matches_simple_oracle(case):
    alg = _build(case)
    assert _quiver_is_acyclic(alg) and not _has_cycle_oracle(alg)
    d = global_dimension(alg)
    assert d == max(_simple_resolution_lengths(alg, default_cap(alg)))
    for v in alg.vertices:
        assert _module_resolution(injective_module(alg, v), 0).length <= d


SPLIT_CASES = (STEMS + [(2, 4, i) for i in range(65)] + [(2, 5, i) for i in range(0, 480, 24)]
               + [(3, 4, i) for i in range(0, 640, 80)])


@pytest.mark.parametrize("case", SPLIT_CASES, ids=str)
def test_split_resolutions_equal_fresh_ones(case):
    # the slice of DA's resolution kept on each injective is the minimal
    # resolution of a fresh I_v on a fresh algebra, byte for byte
    alg, fresh = _build(case), _build(case)
    global_dimension(alg)
    DA = dual_regular_bimodule(fresh)
    for v in alg.vertices:
        kept = injective_module(alg, v)._resolution
        res = min_proj_resolution(column_sum(DA, [v], name=f"I[{v}]"))
        assert kept.terms == res.terms, v
        assert repr(kept.diffs) == repr(res.diffs) and kept.diffs == res.diffs, v
        assert (kept.length, kept.complete) == (res.length, res.complete), v


@pytest.mark.parametrize("s", [3, 4])
def test_selfinjective_gamma_exceeds_the_cap(s):
    # every injective of Γ is projective, so the injective rule would give 0
    g = gamma_algebra(TypeAQuiver(s - 2, s))
    assert not _quiver_is_acyclic(g) and _has_cycle_oracle(g)
    with pytest.raises(CapExceeded, match=r"projective resolution of S\["):
        global_dimension(g)


def test_route_follows_acyclicity(monkeypatch):
    pi = preprojective(corpus_algebra("a3_linear"), 1)
    acyclic = [corpus_algebra("a3_linear"), corpus_algebra("kronecker"), _cut(2, 4, 0),
               _build("auslander_a3_stable")]
    cyclic = [gamma_algebra(TypeAQuiver(1, 3)), parse_algebra_file(CYCLE2).build(), pi]
    routes = {}
    for route in ("_injective_resolution_lengths", "_simple_resolution_lengths"):
        real = getattr(homology, route)

        def spy(alg, *args, real=real, route=route):
            routes[id(alg)] = route
            return real(alg, *args)

        monkeypatch.setattr(homology, route, spy)
    for alg in acyclic + cyclic:
        assert _quiver_is_acyclic(alg) == (not _has_cycle_oracle(alg))
        try:
            global_dimension(alg)
        except CapExceeded:
            assert alg in cyclic
    assert [routes[id(a)] for a in acyclic] == ["_injective_resolution_lengths"] * 4
    assert [routes[id(a)] for a in cyclic] == ["_simple_resolution_lengths"] * 3


def test_each_injective_is_resolved_once(monkeypatch):
    # decide_nrf and find_twisted_cy on a fixed (2,5) cut resolve DA, the
    # sum of every injective, once, and no injective and no simple module
    # on its own: each injective's kept resolution is its slice of DA's
    resolved, stepped = [], []
    real, real_steps = homology.min_proj_resolution, homology._resolution_steps

    def counting(M, *args, **kwargs):
        resolved.append(M)
        return real(M, *args, **kwargs)

    def steps(M, *args):
        stepped.append(M)
        return real_steps(M, *args)

    monkeypatch.setattr(homology, "min_proj_resolution", counting)
    monkeypatch.setattr(homology, "_resolution_steps", steps)
    alg = _cut(2, 5, 60)
    assert decide_nrf(alg, 2).is_nrf is True
    assert find_twisted_cy(alg) is not None
    injectives = {id(injective_module(alg, v)) for v in alg.vertices}
    assert not [M for M in resolved if M.name.startswith("S[") or id(M) in injectives]
    # every resolution but DA's goes through min_proj_resolution
    (DA,) = [M for M in stepped if all(M is not N for N in resolved)]
    assert isinstance(DA, ColumnSum) and DA.bimodule is dual_regular_bimodule(alg)
    assert DA.verts == alg.vertices and len(stepped) == len(resolved) + 1
    for v in alg.vertices:
        res = injective_module(alg, v)._resolution
        assert res.complete and res.length == -min(res.terms)