"""Global dimension from the injectives on an acyclic quiver.

`global_dimension` takes max_v pd I_v when the Gabriel quiver is acyclic
and resolves the simple modules otherwise.  The simple-module rule stays
the oracle: both must agree on the corpus, all 65 (2,4) cuts, every 10th
(2,5) cut, every 20th (3,4) cut and the Auslander algebra of a3_stable.
A cyclic quiver (selfinjective Γ, the 2-cycle with rad^2 = 0, a
preprojective algebra) must keep the simple rule: there pd I_v = 0 for
every v while gl.dim is infinite.  `tests/test_cli.py::
test_capped_algebra_is_undecided` checks the 2-cycle's undecided verdict."""

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
)
from quivercy.module import injective_module
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
    # decide_nrf and find_twisted_cy on a fixed (2,5) cut resolve no simple
    # module, and every injective exactly once, as the cached object
    resolved = []
    real = homology.min_proj_resolution

    def counting(M, *args, **kwargs):
        resolved.append(M)
        return real(M, *args, **kwargs)

    monkeypatch.setattr(homology, "min_proj_resolution", counting)
    alg = _cut(2, 5, 60)
    assert decide_nrf(alg, 2).is_nrf is True
    assert find_twisted_cy(alg) is not None
    assert not [M for M in resolved if M.name.startswith("S[")]
    injectives = [M for M in resolved if M.name.startswith("I[")]
    assert len(injectives) == len(alg.vertices)
    for v in alg.vertices:
        assert sum(M is injective_module(alg, v) for M in injectives) == 1
