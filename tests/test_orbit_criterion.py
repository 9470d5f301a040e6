"""A positive decide_nrf verdict rests on the orbit criterion alone
(Iyama-Oppermann, Theorem 3.1).  The cluster tilting check that used to
follow it is kept here as an oracle: it must hold on every positive
report, so the reports are those the check would have let through."""

import pytest

from conftest import CORPUS, cluster_tilting_oracle, corpus_algebra
from quivercy import ar
from quivercy.ar import decide_nrf
from quivercy.constructions import TypeAQuiver, cut_algebra, enumerate_cuts
from quivercy.module import is_isomorphic, simple_module

# (stem, n) of the corpus with a positive verdict; every other corpus
# case is negative or undecided
POSITIVE = {(stem, 1) for stem in ["a2", "a3_linear", "a3_stable", "a4_linear",
                                   "a5_stable", "d4"]}
STEMS = sorted(p.stem for p in CORPUS.glob("*.alg"))
# every cut of (2,4), every 80th of the 640 (3,4) cuts and every 60th of
# the 480 (2,5) cuts; all are n-representation-finite
CUTS = ([(2, 4, i) for i in range(65)] + [(3, 4, i) for i in range(0, 640, 80)]
        + [(2, 5, i) for i in range(0, 480, 60)])


def _cut(n, s, idx):
    q = TypeAQuiver(n, s)
    return cut_algebra(q, enumerate_cuts(q)[idx])


@pytest.mark.parametrize("stem", STEMS)
@pytest.mark.parametrize("n", [1, 2])
def test_corpus_verdicts_pass_the_cluster_tilting_oracle(stem, n):
    rep = decide_nrf(corpus_algebra(stem), n)
    assert (rep.is_nrf is True) == ((stem, n) in POSITIVE)
    if rep.is_nrf is True:
        assert cluster_tilting_oracle(rep)


@pytest.mark.parametrize("n,s,idx", CUTS, ids=str)
def test_cut_verdicts_pass_the_cluster_tilting_oracle(n, s, idx):
    rep = decide_nrf(_cut(n, s, idx), n)
    assert rep.is_nrf is True
    assert cluster_tilting_oracle(rep)


def test_the_oracle_rejects_a_repeated_summand(a3_stable):
    rep = decide_nrf(a3_stable, 1)
    rep.ct_summands = rep.ct_summands + rep.ct_summands[:1]
    assert not cluster_tilting_oracle(rep)


def test_the_oracle_rejects_a_summand_with_ext():
    # the simple at the middle vertex of a (2,4) cut is no orbit summand,
    # so only the Ext^1 vanishing can reject it
    alg = _cut(2, 4, 0)
    rep = decide_nrf(alg, 2)
    S = simple_module(alg, (1, 1, 1))
    assert not any(is_isomorphic(S, X) for X in rep.ct_summands)
    rep.ct_summands = rep.ct_summands + [S]
    assert not cluster_tilting_oracle(rep)


def test_the_cluster_tilting_sum_is_built_on_first_read(monkeypatch):
    calls = []
    real = ar.direct_sum

    def counting(mods, **kw):
        calls.append(len(mods))
        return real(mods, **kw)

    monkeypatch.setattr(ar, "direct_sum", counting)
    rep = decide_nrf(_cut(2, 5, 7), 2)
    assert rep.is_nrf is True and calls == []
    M = rep.ct_module
    assert calls == [rep.b]
    assert rep.ct_module is M and calls == [rep.b]
    assert M.total_dim == sum(X.total_dim for X in rep.ct_summands)
