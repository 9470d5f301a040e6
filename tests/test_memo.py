"""The per-algebra memo: its rules, and a guard that it is the only cache
in the package."""

import pathlib
import re

import pytest

import quivercy
from conftest import corpus_algebra
from quivercy.algebra import Algebra, per_algebra

SRC = pathlib.Path(quivercy.__file__).parent


def _counted():
    """A memoized function that records each build as (k, cap) and
    raises for cap 0."""
    builds = []

    @per_algebra
    def derived(alg, k, *, cap=None):
        builds.append((k, cap))
        if cap == 0:
            raise ValueError("cap 0")
        return [alg.name, k]

    return derived, builds


def test_one_build_per_positional_key():
    alg = corpus_algebra("a2")
    derived, builds = _counted()
    first = derived(alg, 1)
    assert derived(alg, 1) is first
    assert derived(alg, 2) is not first
    assert builds == [(1, None), (2, None)]
    # another algebra, even an equal one, keeps its own
    assert derived(corpus_algebra("a2"), 1) is not first
    assert len(builds) == 3


def test_two_functions_do_not_share_a_key():
    alg = corpus_algebra("a2")
    f, f_builds = _counted()
    g, g_builds = _counted()
    assert f(alg, 1) is not g(alg, 1)
    assert f_builds == g_builds == [(1, None)]


def test_keyword_only_arguments_are_not_in_the_key():
    alg = corpus_algebra("a2")
    derived, builds = _counted()
    first = derived(alg, 1, cap=5)
    assert derived(alg, 1, cap=7) is first
    assert derived(alg, 1) is first
    assert builds == [(1, 5)]


def test_a_raising_call_stores_nothing():
    alg = corpus_algebra("a2")
    derived, builds = _counted()
    with pytest.raises(ValueError):
        derived(alg, 1, cap=0)
    out = derived(alg, 1, cap=3)
    # now a hit: the cap of a later call is not consulted
    assert derived(alg, 1, cap=0) is out
    assert builds == [(1, 0), (1, 3)]


def test_the_memo_is_the_only_cache():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert "algebra.py" in sources
    assert [name for name, text in sources.items()
            if "_cache" in text and name != "algebra.py"] == []
    twins = [(name, m.group(1)) for name, text in sources.items()
             for m in re.finditer(r"^\s*def (_?cached_\w*)", text, re.M)]
    assert twins == []
    assert not hasattr(Algebra, "cached")
    # a resolution is kept per algebra, never on a module
    assert [name for name, text in sources.items() if re.search(r"\._resolution\b", text)] == []
