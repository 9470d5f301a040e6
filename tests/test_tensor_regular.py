"""The regular bimodule of a tensor product t = a (x) b is built, like
every algebra's, by one pass over t's product table, and that table is
built with t.  The oracle `tensor_regular_oracle` reads the bimodule off
the regular bimodules of t's factors instead, as krons of their blocks;
the two must agree entry for entry on the enveloping algebras and the
squares of the corpus algebras, on the enveloping algebras of all 65
(2,4) cuts and on the product that `tensor_nrf` builds from two copies
of a3_stable, which checks t's table and the kron order of its basis at
once.  The table itself must equal the loop of `tensor_table_oracle`,
in order.  `preprojective` builds no enveloping algebra."""

import functools

import pytest

from conftest import (
    CORPUS,
    assert_bimodule_store,
    corpus_algebra,
    tensor_regular_oracle,
    tensor_table_oracle,
)
from quivercy.algebra import enveloping, opposite, tensor_product
from quivercy.ar import preprojective, tensor_nrf
from quivercy.constructions import TypeAQuiver, cut_algebra, enumerate_cuts, omega_on_cuts
from quivercy.module import regular_bimodule

STEMS = sorted(p.stem for p in CORPUS.glob("*.alg"))
Q24 = TypeAQuiver(2, 4)


@functools.lru_cache(maxsize=None)
def _cuts():
    return enumerate_cuts(Q24)


def _a3_stable_squared():
    prod, _ = tensor_nrf([(corpus_algebra("a3_stable"), 1) for _ in range(2)], 2)
    return prod


CASES = ([(f"env_{s}", lambda s=s: enveloping(corpus_algebra(s))) for s in STEMS]
         + [(f"{s}(x){s}", lambda s=s: tensor_product(corpus_algebra(s), corpus_algebra(s)))
            for s in STEMS]
         + [(f"env_cut_2_4/{i}", lambda i=i: enveloping(cut_algebra(Q24, _cuts()[i])))
            for i in range(65)]
         + [("tensor_nrf_a3_stable", _a3_stable_squared),
            ("env_tensor_nrf_a3_stable", lambda: enveloping(_a3_stable_squared()))])


@pytest.mark.parametrize("build", [b for _, b in CASES], ids=[n for n, _ in CASES])
def test_factor_route_matches_the_table_loop(build):
    # the factor route is the oracle, the table loop the program
    t = build()
    X = regular_bimodule.__wrapped__(t)  # fresh, not the memoized one
    Y = tensor_regular_oracle(t)
    assert dict(X.dims) == dict(Y.dims)
    assert X.basis_indices == Y.basis_indices
    assert X.basis_pos == Y.basis_pos
    assert X.lact_by_col == Y.lact_by_col
    assert X.ract_by_elt == Y.ract_by_elt
    assert_bimodule_store(X)


@pytest.mark.parametrize("stem", STEMS)
def test_lazy_table_matches_the_eager_one(stem):
    # the table tensor_product builds with t, against the loop oracle
    a = corpus_algebra(stem)
    for b in [opposite(a)] + [corpus_algebra(s) for s in STEMS]:
        t = tensor_product(a, b)
        assert list(t.mult.items()) == list(tensor_table_oracle(t).items())


def test_preprojective_reads_few_columns_and_no_table():
    # Ext^n(DA, A) is computed over the cut algebra itself, so no
    # enveloping algebra, and no table or column of one, is built
    cut = _cuts()[25]
    assert omega_on_cuts(Q24, cut) == cut
    lam = cut_algebra(Q24, cut)
    preprojective(lam, 2)
    assert (enveloping.__wrapped__, ()) not in lam._cache
