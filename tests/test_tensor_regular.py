"""The regular bimodule of a tensor product t = a (x) b is read off the
regular bimodules of its factors, as krons of their blocks, and t's
product table is built only when first read.  The loop over t's table
that built it before is the oracle `regular_bimodule_oracle`, and the
eager table the oracle `tensor_table_oracle`: both must agree entry for
entry on the enveloping algebras and the squares of the corpus algebras,
on the enveloping algebras of all 65 (2,4) cuts and on the product that
`tensor_nrf` builds from two copies of a3_stable.  `preprojective`
builds no enveloping algebra, so it reads neither its table nor its
regular bimodule."""

import functools

import pytest

from conftest import (
    CORPUS,
    assert_bimodule_store,
    corpus_algebra,
    regular_bimodule_oracle,
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
    t = build()
    built = "mult" in vars(t)  # tensor_nrf has read its product's table
    X = regular_bimodule.__wrapped__(t)  # fresh: no column or element read yet
    X.lact_by_col, X.ract_by_elt
    assert ("mult" in vars(t)) == built  # the factor route reads no table
    X = regular_bimodule.__wrapped__(t)
    Y = regular_bimodule_oracle(t)
    assert dict(X.dims) == dict(Y.dims)
    assert X.basis_indices == Y.basis_indices
    assert X.basis_pos == Y.basis_pos
    # one column, one element at a time, as the resolution reads them
    for v in t.vertices:
        blocks = X.lact_col(v)
        assert list(blocks) == sorted(blocks)
        assert blocks == Y.lact_col(v)
    for k in range(t.dim):
        assert X.ract_elt(k) == Y.ract_elt(k)
    # and whole, as the readers that visit everything read them
    assert X.lact_by_col == Y.lact_by_col
    assert X.ract_by_elt == Y.ract_by_elt
    assert_bimodule_store(X)


@pytest.mark.parametrize("stem", STEMS)
def test_lazy_table_matches_the_eager_one(stem):
    a = corpus_algebra(stem)
    for b in [opposite(a)] + [corpus_algebra(s) for s in STEMS]:
        t = tensor_product(a, b)
        assert "mult" not in vars(t)
        assert list(t.mult.items()) == list(tensor_table_oracle(t).items())
        assert t.mult is t.mult  # built once


def test_preprojective_reads_few_columns_and_no_table():
    # Ext^n(DA, A) is computed over the cut algebra itself, so no column
    # and no table of the enveloping algebra is read, as none is built
    cut = _cuts()[25]
    assert omega_on_cuts(Q24, cut) == cut
    lam = cut_algebra(Q24, cut)
    preprojective(lam, 2)
    assert (enveloping.__wrapped__, ()) not in lam._cache

