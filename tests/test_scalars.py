"""Scalars of Q are integer-first: an int while integral, an `_mpq` once a
division leaves Z, and never a float or a bool.  The unit cases pin
`linalg.rational` and `linalg.inv`; the sweep checks the scalars that the
verdicts are built from, on the corpus, the Kronecker tower and a sample
of cuts.  No public callable takes a field: Q is the only one."""

import importlib
import inspect
import pathlib
import pkgutil
from fractions import Fraction

import pytest

from conftest import CORPUS, corpus_algebra, dense_action
import quivercy
from quivercy import ar, cy, linalg
from quivercy.ar import decide_nrf
from quivercy.constructions import TypeAQuiver, cut_algebra, enumerate_cuts
from quivercy.cy import check_twisted_cy, check_untwisted_cy, find_twisted_cy, nakayama_power
from quivercy.homology import PerfComplex, nakayama, stalk_regular
from quivercy.linalg import inv, rational

SCALAR_TYPES = (int, linalg._mpq)
STEMS = sorted(p.stem for p in CORPUS.glob("*.alg"))


def test_of_is_an_int_when_the_division_is_exact():
    assert type(rational(4, 2)) is int and rational(4, 2) == 2
    assert type(rational(-6, 3)) is int and rational(-6, 3) == -2
    assert type(rational(6, -3)) is int and rational(6, -3) == -2
    assert type(rational(7)) is int
    assert rational(1, 2) == Fraction(1, 2)
    assert type(rational(1, 2)) is linalg._mpq
    assert type(rational(0)) is int and type(rational(1)) is int


def test_inv_keeps_the_units_of_z():
    assert inv(-1) == -1 and type(inv(-1)) is int
    assert inv(1) == 1 and type(inv(1)) is int
    assert inv(2) == Fraction(1, 2)
    assert inv(Fraction(2, 3)) == Fraction(3, 2)
    assert inv(-3) == Fraction(-1, 3)
    with pytest.raises(ZeroDivisionError):
        inv(0)


def test_no_public_callable_takes_a_field():
    package = pathlib.Path(quivercy.__file__).parent
    checked = 0
    for info in pkgutil.iter_modules([str(package)]):
        mod = importlib.import_module(f"quivercy.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            funcs = [obj] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                # __func__ unwraps the static and class methods, such as Mat.zero
                funcs = [getattr(f, "__func__", f) for n, f in vars(obj).items()
                         if n == "__init__" or not n.startswith("_")]
                funcs = [f for f in funcs if inspect.isfunction(f)]
            for f in funcs:
                assert "field" not in inspect.signature(f).parameters, (mod.__name__, f)
                checked += 1
    assert checked > 50


class _Scalars:
    """Collects the type of every scalar seen, and how many were seen."""

    def __init__(self):
        self.bad = set()
        self.count = 0

    def add(self, x):
        self.count += 1
        if type(x) not in SCALAR_TYPES:
            self.bad.add(type(x).__name__)

    def mat(self, m):
        for row in m.a:
            for x in row:
                self.add(x)

    def module(self, M):
        for m in dense_action(M).values():
            self.mat(m)

    def eltmat(self, em):
        for row in em:
            for elt in row:
                for c in elt.values():
                    self.add(c)

    def complex(self, P):
        for em in P.diffs.values():
            self.eltmat(em)

    def mod_complex(self, C):
        for f in C.diffs.values():
            for m in f.mats.values():
                self.mat(m)

    def algebra(self, alg):
        for prod in alg.mult.values():
            for c in prod.values():
                self.add(c)
        # the resolutions kept per algebra: the injectives' and the
        # enveloping algebra's
        for out in alg._cache.values():
            for P in out.values() if isinstance(out, dict) else [out]:
                if isinstance(P, PerfComplex):
                    self.complex(P)

    def report(self, rep):
        for orbit in rep.orbit_table.values():
            for X in orbit:
                self.module(X)


@pytest.fixture()
def seen(monkeypatch):
    """A _Scalars that also sees every resolution the orbit walk splits,
    every Nakayama power the CY checks compute, the E-resolution the
    untwisted check starts from and the last tensor power it reads, and
    the modules they compare."""
    s = _Scalars()
    s.powers = 0

    def watch(fn, check):
        def wrapped(*args, **kw):
            out = fn(*args, **kw)
            check(out)
            return out
        return wrapped

    nu = watch(cy.nakayama, s.complex)

    def power(*args, **kw):
        s.powers += 1
        return nu(*args, **kw)

    real_iso = cy.is_isomorphic

    def is_isomorphic(M, N):
        s.module(M)
        s.module(N)
        return real_iso(M, N)

    monkeypatch.setattr(ar, "split_resolution",
                        watch(ar.split_resolution, lambda out: [s.complex(P) for P in out]))
    monkeypatch.setattr(cy, "nakayama", power)
    monkeypatch.setattr(cy, "dual_regular_perf", watch(cy.dual_regular_perf, s.complex))
    monkeypatch.setattr(cy, "tensor_complex", watch(cy.tensor_complex, s.mod_complex))
    monkeypatch.setattr(cy, "is_isomorphic", is_isomorphic)
    return s


@pytest.mark.parametrize("stem", STEMS)
def test_corpus_scalars(stem, seen):
    alg = corpus_algebra(stem)
    for n in (1, 2):
        seen.report(decide_nrf(alg, n))
    find_twisted_cy(alg, ell_max=6 if stem == "kronecker" else 24)
    for m in (0, 1):
        check_twisted_cy(alg, 2, m)
    # the checks answer from the certificate, which builds a power only
    # where the orbits give none; read the tower itself
    nakayama_power(alg, 2)
    seen.algebra(alg)
    assert seen.powers >= 1
    assert seen.count > 0 and not seen.bad


def test_kronecker_tower_scalars(kronecker, seen):
    C = stalk_regular(kronecker)
    for _ in range(4):
        C = nakayama(C)
        seen.complex(C)
    assert seen.count > 0 and not seen.bad


def test_untwisted_tensor_power_scalars(a2sq, seen):
    check_untwisted_cy(a2sq, 3, 2)
    seen.algebra(a2sq)
    assert seen.count > 0 and not seen.bad


@pytest.mark.parametrize("idx", range(0, 65, 5))
def test_cut_scalars(idx, seen):
    q = TypeAQuiver(2, 4)
    alg = cut_algebra(q, enumerate_cuts(q)[idx])
    rep = decide_nrf(alg, 2)
    assert rep.is_nrf is True
    seen.report(rep)
    find_twisted_cy(alg)
    seen.algebra(alg)
    assert seen.count > 0 and not seen.bad
