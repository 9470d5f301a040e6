"""Global dimension from the injectives on an acyclic quiver.

`global_dimension` takes max_v pd I_v when the Gabriel quiver is acyclic
and resolves the simple modules otherwise.  The simple-module rule stays
the oracle: both must agree on the corpus, all 65 (2,4) cuts, every 10th
(2,5) cut, every 20th (3,4) cut and the Auslander algebra of a3_stable.
A cyclic quiver (selfinjective Γ, the 2-cycle with rad^2 = 0, a
preprojective algebra) must keep the simple rule: there pd I_v = 0 for
every v while gl.dim is infinite.  `tests/test_cli.py::
test_capped_algebra_is_undecided` checks the 2-cycle's undecided verdict.

The injectives are resolved together, as their sum DA, and the
resolution is split into each I_v's by `split_resolution`, whose
one-module case is `min_proj_resolution`; the slices are kept per algebra
(`injective_resolutions`).  Each later stage of the orbit walk is
resolved the same way, as one sum split by orbit.  Both must equal
`conftest.min_proj_resolution_oracle`, the step-by-step assembly they
replaced, on the corpus, all (2,4) cuts, every 24th (2,5) cut and every
80th (3,4) cut.  Two cyclic quivers of finite global dimension take the
simple-module route, and their orbit walk resolves stage 0 itself."""

import re

import pytest

from conftest import CORPUS, corpus_algebra, min_proj_resolution_oracle
from quivercy import ar, homology
from quivercy.ar import auslander_algebra, decide_nrf, preprojective, presentation_size
from quivercy.constructions import TypeAQuiver, cut_algebra, enumerate_cuts, gamma_algebra
from quivercy.cy import find_twisted_cy
from quivercy.errors import CapExceeded
from quivercy.homology import (
    _match_projective,
    _quiver_is_acyclic,
    _simple_resolution_lengths,
    default_cap,
    global_dimension,
    injective_resolutions,
    min_proj_resolution,
    split_resolution,
)
from quivercy.module import (
    column_sum,
    dual_regular_bimodule,
    injective_module,
    simple_module,
    zero_module,
)
from quivercy.parsing import parse_algebra_file

STEMS = sorted(p.stem for p in CORPUS.glob("*.alg"))
CUTS = ([(2, 4, i) for i in range(65)] + [(2, 5, i) for i in range(0, 480, 10)]
        + [(3, 4, i) for i in range(0, 640, 20)])
CYCLE2 = "vertices: 1 2\narrows:\n  a: 1 -> 2\n  b: 2 -> 1\nrelations:\n  a*b\n  b*a\n"
# cyclic quivers of finite global dimension: the 2-cycle with a*b = 0
# (dim 5) and the 3-cycle with a*b = b*c = 0 (dim 7)
CYCLE2_AB = "vertices: 1 2\narrows:\n  a: 1 -> 2\n  b: 2 -> 1\nrelations:\n  a*b\n"
CYCLE3 = ("vertices: 1 2 3\narrows:\n  a: 1 -> 2\n  b: 2 -> 3\n  c: 3 -> 1\n"
          "relations:\n  a*b\n  b*c\n")


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
        assert injective_resolutions(alg)[v].length <= d


SPLIT_CASES = (STEMS + [(2, 4, i) for i in range(65)] + [(2, 5, i) for i in range(0, 480, 24)]
               + [(3, 4, i) for i in range(0, 640, 80)])


def _assert_same_resolution(res, oracle, what):
    assert res.terms == oracle.terms, what
    assert repr(res.diffs) == repr(oracle.diffs) and res.diffs == oracle.diffs, what
    assert (res.length, res.complete) == (oracle.length, oracle.complete), what


@pytest.mark.parametrize("case", SPLIT_CASES, ids=str)
def test_split_resolutions_equal_fresh_ones(case):
    # the slice of DA's resolution kept for each injective is the oracle's
    # resolution of a fresh I_v on a fresh algebra, byte for byte
    alg, fresh = _build(case), _build(case)
    global_dimension(alg)
    DA = dual_regular_bimodule(fresh)
    for v in alg.vertices:
        oracle = min_proj_resolution_oracle(column_sum(DA, [v], name=f"I[{v}]"))
        _assert_same_resolution(injective_resolutions(alg)[v], oracle, v)


def _parsed(text):
    return parse_algebra_file(text).build()


@pytest.mark.parametrize("case", SPLIT_CASES + ["cycle2", "cycle2_ab", "cycle3"], ids=str)
def test_builder_equals_the_oracle(case):
    # the one-module builder on every simple, every injective, DA and the
    # zero module, and every slice of DA's split, equal the step-by-step
    # oracle, in full and at each max_len 0, 1, 2 that stops it early
    texts = {"cycle2": CYCLE2, "cycle2_ab": CYCLE2_AB, "cycle3": CYCLE3}
    alg = _parsed(texts[case]) if case in texts else _build(case)
    DR = dual_regular_bimodule(alg)
    DA = column_sum(DR, alg.vertices, name="D(reg)")
    injectives = [column_sum(DR, [v], name=f"I[{v}]") for v in alg.vertices]
    mods = [simple_module(alg, v) for v in alg.vertices] + injectives + [DA, zero_module(alg)]
    cap = default_cap(alg)
    for M in mods:
        full = min_proj_resolution_oracle(M)
        _assert_same_resolution(min_proj_resolution(M), full, M.name)
        for max_len in (0, 1, 2):
            if full.length > max_len or not full.complete:
                oracle = min_proj_resolution_oracle(M, max_len=max_len)
                assert not oracle.complete
                _assert_same_resolution(min_proj_resolution(M, max_len), oracle, (M.name, max_len))
    for max_len in (cap, 0, 1, 2):
        slices = split_resolution(injectives, max_len)
        for I, res in zip(injectives, slices):
            oracle = min_proj_resolution_oracle(I, max_len=max_len)
            _assert_same_resolution(res, oracle, (I.name, max_len))


@pytest.mark.parametrize("s", [3, 4])
def test_selfinjective_gamma_exceeds_the_cap(s):
    # every injective of Γ is projective, so the injective rule would give 0
    g = gamma_algebra(TypeAQuiver(s - 2, s))
    assert not _quiver_is_acyclic(g) and _has_cycle_oracle(g)
    # every simple exceeds the cap; the first one resolved is named
    first = f"projective resolution of S[{g.vertices[0]}] exceeds {default_cap(g)}"
    with pytest.raises(CapExceeded, match=re.escape(first) + "$"):
        global_dimension(g)


def test_route_follows_acyclicity(monkeypatch):
    pi = preprojective(corpus_algebra("a3_linear"), 1)
    acyclic = [corpus_algebra("a3_linear"), corpus_algebra("kronecker"), _cut(2, 4, 0),
               _build("auslander_a3_stable")]
    cyclic = [gamma_algebra(TypeAQuiver(1, 3)), parse_algebra_file(CYCLE2).build(), pi]
    routes = {}
    for route in ("injective_resolutions", "_simple_resolution_lengths"):
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
    assert [routes[id(a)] for a in acyclic] == ["injective_resolutions"] * 4
    assert [routes[id(a)] for a in cyclic] == ["_simple_resolution_lengths"] * 3


def test_each_injective_is_resolved_once(monkeypatch):
    # decide_nrf on a fixed (2,5) cut resolves DA, the sum of every
    # injective, once, and then each stage of the orbit walk as one sum,
    # split by orbit; no module is resolved on its own, no injective and
    # no simple module at all, and find_twisted_cy resolves nothing more
    resolved, split = [], []
    real, real_split = homology.min_proj_resolution, homology.split_resolution

    def counting(M, *args, **kwargs):
        resolved.append(M)
        return real(M, *args, **kwargs)

    def splitting(mods, *args, **kwargs):
        split.append(mods)
        return real_split(mods, *args, **kwargs)

    monkeypatch.setattr(homology, "min_proj_resolution", counting)
    for mod in (homology, ar):
        monkeypatch.setattr(mod, "split_resolution", splitting)
    alg = _cut(2, 5, 60)
    rep = decide_nrf(alg, 2)
    assert rep.is_nrf is True and resolved == []
    injectives, *stages = split
    assert [id(M) for M in injectives] == [id(injective_module(alg, v)) for v in alg.vertices]
    # stage s >= 1 of the walk resolves the sum of the orbits whose stage s
    # is not their last, a projective, with one owner per orbit
    longest = max(rep.ell.values())
    assert len(stages) == longest - 2 > 0
    for s, mods in enumerate(stages, start=1):
        walking = [i for i in alg.vertices if rep.ell[i] >= s + 2]
        assert len(mods) == len(walking) > 1
        assert [id(M) for M in mods] == [id(rep.orbit_table[i][s]) for i in walking]
    ids = {id(M) for M in injectives}
    assert not [M for mods in stages for M in mods if M.name.startswith("S[") or id(M) in ids]
    del split[:]
    assert find_twisted_cy(alg) is not None
    assert split == resolved == []
    for v in alg.vertices:
        res = injective_resolutions(alg)[v]
        assert res.complete and res.length == -min(res.terms)


@pytest.mark.parametrize("text,dim,gl_dim,size", [(CYCLE2_AB, 5, 2, (2, 1)),
                                                  (CYCLE3, 7, 3, (3, 2))])
def test_cyclic_quiver_of_finite_global_dimension(text, dim, gl_dim, size):
    # the simple-module route on a cyclic quiver whose simples all finish
    alg = _parsed(text)
    assert alg.dim == dim and not _quiver_is_acyclic(alg) and _has_cycle_oracle(alg)
    assert global_dimension(alg) == gl_dim
    assert presentation_size(alg) == size
    for n in range(1, gl_dim + 2):
        rep = decide_nrf(_parsed(text), n)
        assert rep.is_nrf is False and rep.gl_dim == gl_dim
        if n < gl_dim:
            assert rep.reason == f"gl.dim = {gl_dim} > n"
        else:
            assert rep.reason == "orbit of injective at 1: stage 0 has Ext^0(X, reg) != 0"


@pytest.mark.parametrize("text,gl_dim", [(CYCLE2_AB, 2), (CYCLE3, 3)])
def test_cyclic_quiver_walk_resolves_its_injectives(text, gl_dim, monkeypatch):
    # a cyclic quiver keeps no injective resolution: stage 0 of the walk
    # resolves its injectives as one sum, each slice complete or reaching
    # n + 1, and the walk still fails at stage 0
    real = ar.split_resolution
    for n in (gl_dim, gl_dim + 1):
        alg, split = _parsed(text), []

        def splitting(mods, max_len=None):
            split.append((mods, max_len, real(mods, max_len)))
            return split[-1][2]

        monkeypatch.setattr(ar, "split_resolution", splitting)
        rep = decide_nrf(alg, n)
        assert rep.reason == "orbit of injective at 1: stage 0 has Ext^0(X, reg) != 0"
        assert injective_resolutions(alg) is None
        ((mods, max_len, slices),) = split
        walking = [injective_module(alg, v) for v in alg.vertices
                   if _match_projective(injective_module(alg, v)) is None]
        assert walking and [id(M) for M in mods] == [id(I) for I in walking]
        assert max_len == max(n + 1, default_cap(alg))
        assert all(res.complete or res.length >= n + 1 for res in slices)
