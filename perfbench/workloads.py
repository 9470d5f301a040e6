"""The four benchmark workloads: their inputs, operations and oracle table.

Every operation starts from a presentation (a parsed corpus file, or a
type-A quiver and a cut) and builds its algebra from scratch, so the
per-algebra caches of one operation never serve another one, just as in
a CLI run.  An operation returns a dict of observed facts; the oracle
table gives the dict it must equal.  The reasons for choosing each
workload are in README.md next to this file.

quivercy functions are called through their modules (`ar.decide_nrf`,
not a name bound at import), so the wrappers that the traced run installs
on those modules see every call made from here.
"""

from __future__ import annotations

import pathlib
import random
from fractions import Fraction

from quivercy import ar, constructions, cy, homology, module, parsing

CORPUS = pathlib.Path(parsing.__file__).parent / "corpus"

# -- oracle table -------------------------------------------------------
#
# corpus_cy, one row per corpus algebra:
#   name: (n, is_nrf, a, b, homogeneous ell or None, CY dimension)
# a is the number of vertices and b the number of indecomposable
# summands of the n-cluster tilting module (b = rank * h / 2 for a Dynkin
# path algebra with Coxeter number h).  The CY dimension is (h - 2) / h
# and equals n (b - a) / b.  The l = 2..6 scan of check_twisted_cy(alg,
# l, n (l - 1)) must hold exactly at the homogeneous l.  The commutative
# square is not 2-representation-finite; its dimension 2/3 is the sum of
# its two A2 factors' 1/3.  The Kronecker algebra has no certificate up
# to l = 24.
CORPUS_CY = {
    "a2": (1, True, 2, 3, None, Fraction(1, 3)),  # A2, h = 3
    "a3_linear": (1, True, 3, 6, None, Fraction(2, 4)),  # A3, h = 4
    "a3_stable": (1, True, 3, 6, 2, Fraction(2, 4)),  # A3, h = 4
    "a4_linear": (1, True, 4, 10, None, Fraction(3, 5)),  # A4, h = 5
    "a5_stable": (1, True, 5, 15, 3, Fraction(4, 6)),  # A5, h = 6
    "d4": (1, True, 4, 12, 3, Fraction(4, 6)),  # D4, h = 6
    "a2_tensor_a2": (2, False, None, None, None, Fraction(2, 3)),
}
KRONECKER_ELL_MAX = 24

# cuts_2_4: every cut of the (2,4) family is 2-representation-finite
# with a = 10, b = 20; it is homogeneous exactly when omega fixes it, and
# then l = 2.  Five cuts are omega-stable.
CUTS_2_4 = {"a": 10, "b": 20, "stable_ell": 2, "stable_count": 5}

# frontier_2_5: every cut of (2,5) is 2-representation-finite with
# a = 15, b = 35 and is never homogeneous (3 does not divide 7); its
# certificate dimension is 8/7 = n (b - a) / b.
FRONTIER_2_5 = {"a": 15, "b": 35, "cy_dim": Fraction(8, 7)}
FRONTIER_PASS = 12

# bimodule: expected facts of the construction checks.
AUSLANDER = {  # name: (Gamma dimension, gl.dim, dom.dim), n = 1
    "a3_stable": (15, 2, 2),
    "a5_stable": (70, 2, 2),
}
DECOMPOSE_A3_LINEAR = [(0, 0, 1), (0, 1, 1), (1, 1, 1)]  # dim vectors of P3, P2, P1
GAMMA_FAMILIES = [(1, 3), (2, 4)]
STABLE_CUT_COUNTS = {(1, 3): 2, (2, 4): 5}


class Op:
    """One operation: `run()` returns the observed facts, which the
    oracle requires to equal `expect`."""

    __slots__ = ("name", "run", "expect")

    def __init__(self, name, run, expect):
        self.name = name
        self.run = run
        self.expect = expect


def corpus_file(stem):
    return parsing.load_algebra_file(str(CORPUS / (stem + ".alg")))


# -- corpus_cy ------------------------------------------------------------


def _corpus_cy_op(stem, af):
    n, is_nrf, a, b, ell, dim = CORPUS_CY[stem]

    def run():
        alg = af.build(name=stem)
        rep = ar.decide_nrf(alg, n)
        cert = cy.find_twisted_cy(alg)
        scan = [l for l in range(2, 7) if cy.check_twisted_cy(alg, l, n * (l - 1))]
        nrf_dim = Fraction(n * (rep.b - rep.a), rep.b) if rep.is_nrf is True else None
        return {
            "is_nrf": rep.is_nrf,
            "a": rep.a if rep.is_nrf is True else None,
            "b": rep.b,
            "cy_dim": cy.cy_dimension(cert) if cert else None,
            "nrf_dim": nrf_dim,
            "scan": scan,
        }

    expect = {"is_nrf": is_nrf, "a": a, "b": b, "cy_dim": dim,
              "nrf_dim": dim if is_nrf else None, "scan": [ell] if ell else []}
    return Op(f"corpus_cy/{stem}", run, expect)


def _kronecker_op(af):
    def run():
        alg = af.build(name="kronecker")
        return {"cert": cy.find_twisted_cy(alg, ell_max=KRONECKER_ELL_MAX)}

    return Op("corpus_cy/kronecker", run, {"cert": None})


def corpus_cy_inputs(rng):
    ops = [_corpus_cy_op(stem, corpus_file(stem)) for stem in CORPUS_CY]
    ops.append(_kronecker_op(corpus_file("kronecker")))
    rng.shuffle(ops)
    return ops


# -- cuts_2_4 and frontier_2_5 ------------------------------------------


def _cut_nrf_op(q, idx, cut, stable):
    def run():
        rep = ar.decide_nrf(constructions.cut_algebra(q, cut), q.n, verify_ct=False)
        return {"is_nrf": rep.is_nrf, "a": rep.a, "b": rep.b,
                "homogeneous": rep.homogeneous, "ell": rep.ell_value()}

    expect = {"is_nrf": True, "a": CUTS_2_4["a"], "b": CUTS_2_4["b"],
              "homogeneous": stable, "ell": CUTS_2_4["stable_ell"] if stable else None}
    return Op(f"cuts_2_4/{idx}", run, expect)


def cuts_2_4_inputs(rng):
    q = constructions.TypeAQuiver(2, 4)
    cuts = constructions.enumerate_cuts(q)
    stable = [constructions.omega_on_cuts(q, c) == c for c in cuts]
    if sum(stable) != CUTS_2_4["stable_count"]:
        raise RuntimeError(f"(2,4) has {sum(stable)} omega-stable cuts, expected 5")
    ops = [_cut_nrf_op(q, i, c, s) for i, (c, s) in enumerate(zip(cuts, stable))]
    rng.shuffle(ops)
    return ops


def _frontier_op(q, idx, cut):
    def run():
        alg = constructions.cut_algebra(q, cut)
        rep = ar.decide_nrf(alg, q.n)
        cert = cy.find_twisted_cy(alg)
        return {"is_nrf": rep.is_nrf, "a": rep.a, "b": rep.b,
                "homogeneous": rep.homogeneous,
                "cy_dim": cy.cy_dimension(cert) if cert else None,
                "nrf_dim": Fraction(q.n * (rep.b - rep.a), rep.b) if rep.b else None}

    f = FRONTIER_2_5
    expect = {"is_nrf": True, "a": f["a"], "b": f["b"], "homogeneous": False,
              "cy_dim": f["cy_dim"], "nrf_dim": f["cy_dim"]}
    return Op(f"frontier_2_5/{idx}", run, expect)


def frontier_2_5_inputs(rng):
    """Every cut of (2,5), as seeded stratified samples: the enumeration
    order is split into FRONTIER_PASS blocks of 40 cuts, and a pass takes
    the next cut of each block in a seeded order.  Passes never repeat a
    cut, and each pass spans the whole family, whose cost changes along
    the enumeration order (its slowest cuts lie near the 300th to 420th)."""
    q = constructions.TypeAQuiver(2, 5)
    cuts = constructions.enumerate_cuts(q)
    size = len(cuts) // FRONTIER_PASS
    blocks = [rng.sample(range(b * size, (b + 1) * size), size)
              for b in range(FRONTIER_PASS)]
    ops = []
    for k in range(size):
        sample = [block[k] for block in blocks]
        rng.shuffle(sample)
        ops += [_frontier_op(q, i, cuts[i]) for i in sample]
    return ops


# -- bimodule -----------------------------------------------------------


def _untwisted_op(af):
    def run():
        alg = af.build(name="a2_tensor_a2")
        return {"untwisted_3_2": cy.check_untwisted_cy(alg, 3, 2),
                "is_nrf": ar.decide_nrf(alg, 2).is_nrf}

    return Op("bimodule/untwisted_a2_tensor_a2", run,
              {"untwisted_3_2": True, "is_nrf": False})


def _tensor_nrf_op(af):
    def run():
        a1, a2 = af.build(name="a3_stable"), af.build(name="a3_stable")
        _, rep = ar.tensor_nrf([(a1, 1), (a2, 1)], 2)
        return {"is_nrf": rep.is_nrf, "ell": rep.ell_value(),
                "summands": len(rep.ct_summands),
                "predicted": module.is_isomorphic(rep.predicted_ct, rep.ct_module)}

    return Op("bimodule/tensor_nrf_a3_stable", run,
              {"is_nrf": True, "ell": 2, "summands": 18, "predicted": True})


def _auslander_op(stem, af):
    def run():
        alg = af.build(name=stem)
        rep = ar.decide_nrf(alg, 1)
        gamma = ar.auslander_algebra(alg, rep.ct_summands)
        ell = rep.ell_value()
        T = ar.ext_bimodule(alg, 1)
        powers = {1: T}
        for k in range(2, ell):
            powers[k] = module.tensor_bimod_bimod(T, powers[k - 1])
        identity = ell * alg.dim + sum(
            (ell - k) * sum(powers[k].dims.values()) for k in range(1, ell))
        return {"dim": gamma.dim, "identity": identity,
                "gl_dim": homology.global_dimension(gamma),
                "dom_dim": homology.dominant_dimension(gamma)}

    dim, gl, dom = AUSLANDER[stem]
    return Op(f"bimodule/auslander_{stem}", run,
              {"dim": dim, "identity": dim, "gl_dim": gl, "dom_dim": dom})


def _decompose_op(af):
    def run():
        alg = af.build(name="a3_linear")
        parts, certified = module.decompose(module.regular_module(alg))
        return {"summands": sorted(p.dim_vector() for p in parts),
                "certified": certified}

    return Op("bimodule/decompose_a3_linear", run,
              {"summands": DECOMPOSE_A3_LINEAR, "certified": True})


def _gamma_op(q):
    def run():
        g = constructions.gamma_algebra(q)
        return {"bijection": constructions.verify_nakayama_bijection(g),
                "selfinjective": homology.is_selfinjective(g)}

    return Op(f"bimodule/gamma_{q.n}_{q.s}", run,
              {"bijection": True, "selfinjective": True})


def _preprojective_op(q, idx, cut):
    def run():
        lam = constructions.cut_algebra(q, cut)
        rep = ar.decide_nrf(lam, q.n, verify_ct=False)
        pi = ar.preprojective(lam, q.n, report=rep)
        return {"permutation_is_sigma": ar.nakayama_permutation(pi) == rep.sigma}

    return Op(f"bimodule/preprojective_{q.n}_{q.s}/{idx}", run,
              {"permutation_is_sigma": True})


def bimodule_inputs(rng):
    a2sq, a3s = corpus_file("a2_tensor_a2"), corpus_file("a3_stable")
    ops = [_untwisted_op(a2sq), _tensor_nrf_op(a3s),
           _decompose_op(corpus_file("a3_linear"))]
    ops += [_auslander_op(stem, corpus_file(stem)) for stem in AUSLANDER]
    for n, s in GAMMA_FAMILIES:
        q = constructions.TypeAQuiver(n, s)
        ops.append(_gamma_op(q))
        stable = [(i, c) for i, c in enumerate(constructions.enumerate_cuts(q))
                  if constructions.omega_on_cuts(q, c) == c]
        if len(stable) != STABLE_CUT_COUNTS[(n, s)]:
            raise RuntimeError(f"({n},{s}) has {len(stable)} omega-stable cuts")
        ops += [_preprojective_op(q, i, c) for i, c in stable]
    rng.shuffle(ops)
    return ops


class Workload:
    """`inputs(rng)` makes the operation list; `pass_size` is how many
    of them one pass runs (None: all)."""

    def __init__(self, inputs, pass_size=None):
        self.inputs = inputs
        self.pass_size = pass_size


WORKLOADS = {
    "corpus_cy": Workload(corpus_cy_inputs),
    "cuts_2_4": Workload(cuts_2_4_inputs),
    "frontier_2_5": Workload(frontier_2_5_inputs, FRONTIER_PASS),
    "bimodule": Workload(bimodule_inputs),
}


def make_inputs(name, seed):
    """The seeded operation list of a workload."""
    return WORKLOADS[name].inputs(random.Random(seed))
