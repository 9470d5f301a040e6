import pathlib

import pytest

import quivercy
from quivercy.homology import ext_dims_upto
from quivercy.module import is_isomorphic
from quivercy.parsing import load_algebra_file

CORPUS = pathlib.Path(quivercy.__file__).parent / "corpus"


def corpus_algebra(stem):
    return load_algebra_file(str(CORPUS / (stem + ".alg"))).build(name=stem)


def cluster_tilting_oracle(report):
    """The check decide_nrf made on a positive report before the orbit
    criterion alone decided it: the orbit summands are pairwise
    non-isomorphic, and Ext^1..n-1(X, M) = 0 for every summand X and their
    sum M (Ext is additive in M, so this covers every pair).  Summands are
    grouped by dimension vector once and compared only within a group."""
    groups = {}
    for X in report.ct_summands:
        groups.setdefault(X.dim_vector(), []).append(X)
    if any(is_isomorphic(X, Y) for group in groups.values()
           for k, X in enumerate(group) for Y in group[k + 1:]):
        return False
    n = report.n
    return n < 2 or not any(any(ext_dims_upto(X, report.ct_module, n - 1)[1:n])
                            for X in report.ct_summands)


@pytest.fixture(scope="session")
def a2():
    return corpus_algebra("a2")


@pytest.fixture(scope="session")
def a3_linear():
    return corpus_algebra("a3_linear")


@pytest.fixture(scope="session")
def a3_stable():
    return corpus_algebra("a3_stable")


@pytest.fixture(scope="session")
def a4_linear():
    return corpus_algebra("a4_linear")


@pytest.fixture(scope="session")
def a5_stable():
    return corpus_algebra("a5_stable")


@pytest.fixture(scope="session")
def d4():
    return corpus_algebra("d4")


@pytest.fixture(scope="session")
def kronecker():
    return corpus_algebra("kronecker")


@pytest.fixture(scope="session")
def a2sq():
    return corpus_algebra("a2_tensor_a2")
