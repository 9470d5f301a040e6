"""End-to-end acceptance checks, one test per criterion.  Each test prints
a single PASS line so the -v output doubles as a checklist."""

import time
from fractions import Fraction

from quivercy.ar import _match_projective, decide_nrf, ext_bimodule, \
    auslander_algebra, nakayama_permutation, preprojective, tau_n, tau_n_minus, \
    tensor_nrf
from quivercy.constructions import (
    DynkinQuiver,
    TypeAQuiver,
    cut_algebra,
    enumerate_cuts,
    gamma_algebra,
    omega_on_cuts,
    verify_nakayama_bijection,
    verify_thm_homogeneous_cuts,
)
from quivercy.cy import check_twisted_cy, check_untwisted_cy, cy_dimension, \
    find_twisted_cy
from quivercy.homology import (
    dominant_dimension,
    ext_dims_upto,
    global_dimension,
    is_selfinjective,
    min_proj_resolution,
    nakayama,
    stalk_regular,
)
from quivercy.module import (
    injective_module,
    is_isomorphic,
    regular_module,
    simple_module,
    tensor_bimod_bimod,
)

from conftest import (
    all_orientations,
    corpus_algebra,
    hom_dim,
    hom_in_D_dim,
    is_omega_stable_orientation,
    projective_module,
    shift,
    socle_permutation_oracle,
)


def timed(budget):
    start = time.monotonic()

    def done(line):
        elapsed = time.monotonic() - start
        assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget}s"
        print(f"PASS ({elapsed:.1f}s): {line}")

    return done


def test_01_point_checks(a3_stable, a3_linear):
    done = timed(1)
    assert check_twisted_cy(a3_stable, 2, 1) is True
    assert check_twisted_cy(a3_linear, 2, 1) is False
    done("twisted (2,1) holds for the stable A3 orientation only")


def test_02_certificate_search(a2, a3_linear, a4_linear, d4, kronecker):
    done = timed(30)
    for alg, h in [(a2, 3), (a3_linear, 4), (a4_linear, 5), (d4, 6)]:
        cert = find_twisted_cy(alg)
        assert cert is not None
        assert cy_dimension(cert) == Fraction(h - 2, h)
    assert find_twisted_cy(kronecker, ell_max=24) is None
    done("Dynkin search finds (h-2)/h; Kronecker finds nothing up to 24")


def test_03_orientation_scan():
    done = timed(30)
    for rank, half_h in [(3, 2), (5, 3)]:
        for dq in all_orientations("A", rank):
            rep = decide_nrf(dq.algebra(), 1)
            assert rep.is_nrf is True
            stable = is_omega_stable_orientation(dq)
            assert rep.homogeneous == stable
            if stable:
                assert rep.ell_value() == half_h
    done("A3/A5 orientations: homogeneous exactly when involution-stable")


def test_04_tensor_square_of_a2(a2sq):
    done = timed(60)
    assert check_untwisted_cy(a2sq, 3, 2) is True
    rep = decide_nrf(a2sq, 2)
    assert rep.is_nrf is False
    done("commutative square is untwisted (3,2) but not 2-representation-finite")


def test_05_cut_family():
    done = timed(180)
    q = TypeAQuiver(2, 4)
    cuts = enumerate_cuts(q)
    stable_count = 0
    for c in cuts:
        rep = decide_nrf(cut_algebra(q, c), 2)
        assert rep.is_nrf is True
        assert rep.a == 10 and rep.b == 20
        stable = omega_on_cuts(q, c) == c
        stable_count += stable
        assert rep.homogeneous == stable
        if stable:
            assert rep.ell_value() == 2
    assert stable_count == 5
    rep = verify_thm_homogeneous_cuts(2, 4)
    assert rep["verified"] and rep["omega_stable_count"] == 5 and rep["ell"] == 2
    done("all 65 cuts of the (2,4) family behave as the symmetry predicts")


def test_06_homogeneity_iff_certificate(
    a2, a3_linear, a3_stable, a4_linear, a5_stable, d4, kronecker, a2sq
):
    done = timed(180)
    cases = [(a2, 1), (a3_linear, 1), (a3_stable, 1), (a4_linear, 1),
             (a5_stable, 1), (d4, 1), (kronecker, 1), (a2sq, 2)]
    for alg, n in cases:
        if global_dimension(alg) > n:
            continue
        rep = decide_nrf(alg, n)
        homog = rep.is_nrf is True and rep.homogeneous
        if homog:
            ell = rep.ell_value()
            assert check_twisted_cy(alg, ell, n * (ell - 1))
        for ell in range(2, 7):
            if check_twisted_cy(alg, ell, n * (ell - 1)):
                assert homog and rep.ell_value() == ell
    done("homogeneous exactly when the Nakayama power certificate exists")


def test_07_fraction_formula(a2, a3_linear, a3_stable, a4_linear, a5_stable, d4):
    done = timed(60)
    for alg, n in [(a2, 1), (a3_linear, 1), (a3_stable, 1), (a4_linear, 1),
                   (a5_stable, 1), (d4, 1)]:
        rep = decide_nrf(alg, n)
        assert rep.is_nrf is True
        cert = find_twisted_cy(alg)
        assert cy_dimension(cert) == Fraction(n * (rep.b - rep.a), rep.b)
    done("minimal certificates match n(b-a)/b on the bundled algebras")


def test_08_tensor_construction(a3_stable):
    done = timed(60)
    prod, rep = tensor_nrf([(a3_stable, 1), (corpus_algebra("a3_stable"), 1)], 2)
    assert rep.is_nrf is True
    assert rep.homogeneous and rep.ell_value() == 2
    assert len(rep.ct_summands) == 18
    assert is_isomorphic(rep.predicted_ct, rep.ct_module)
    done("tensor square: 18 orbit summands match the predicted outer tensors")


def test_09_endomorphism_dimension_identity(a3_stable, a5_stable):
    done = timed(120)
    for alg, n in [(a3_stable, 1), (a5_stable, 1)]:
        rep = decide_nrf(alg, n)
        gamma = auslander_algebra(alg, rep.ct_summands)
        ell = rep.ell_value()
        T = ext_bimodule(alg, n)
        powers = {1: T}
        for k in range(2, ell):
            powers[k] = tensor_bimod_bimod(T, powers[k - 1])
        expected = ell * alg.dim + sum(
            (ell - k) * sum(powers[k].dims.values()) for k in range(1, ell)
        )
        assert gamma.dim == expected
        assert global_dimension(gamma) <= n + 1 <= dominant_dimension(gamma)
    done("endomorphism algebra dimension and gl.dim <= n+1 <= dom.dim hold")


def test_10_mesh_algebras_and_permutations():
    done = timed(120)
    for n, s in [(1, 3), (2, 4)]:
        q = TypeAQuiver(n, s)
        g = gamma_algebra(q)
        assert verify_nakayama_bijection(g)
        assert is_selfinjective(g)
        cuts = [c for c in enumerate_cuts(q) if omega_on_cuts(q, c) == c]
        for c in cuts:
            lam = cut_algebra(q, c)
            rep = decide_nrf(lam, n)
            pi = preprojective(lam, n, report=rep)
            # Pi_{n+1} of an omega-stable cut has the dimension of Gamma
            assert pi.dim == g.dim
            assert nakayama_permutation(pi) == socle_permutation_oracle(pi) == rep.sigma
    done("mesh pairing verified; stable cuts give Gamma's dimension and permutations match sigma")


def test_11_property_suites(a2, a3_stable):
    done = timed(180)

    def perf(M):
        return min_proj_resolution(M)

    # derived duality between Ext groups and maps into the twisted shift
    for alg in (a2, a3_stable):
        mods = [simple_module(alg, v) for v in alg.vertices]
        mods.append(projective_module(alg, alg.vertices[0]))
        for M in mods:
            nuM = nakayama(perf(M))
            for N in mods:
                PN = perf(N)
                for i in range(3):
                    assert ext_dims_upto(M, N, i)[i] == hom_in_D_dim(PN, shift(nuM, -i))
    # translate functors are quasi-inverse on the orbit summands, and
    # non-projective summands admit no map to the algebra
    rep = decide_nrf(a3_stable, 1)
    reg = regular_module(a3_stable)
    injs = [injective_module(a3_stable, v) for v in a3_stable.vertices]
    for X in rep.ct_summands:
        if _match_projective(X) is None:
            assert is_isomorphic(tau_n_minus(tau_n(X, 1), 1), X)
            assert hom_dim(X, reg) == 0
        if not any(X.dim_vector() == I.dim_vector() and is_isomorphic(X, I)
                   for I in injs):
            assert is_isomorphic(tau_n(tau_n_minus(X, 1), 1), X)
    # certificates scale
    for k in (2, 3):
        assert check_twisted_cy(a2, 3 * k, k)
        assert check_twisted_cy(a3_stable, 2 * k, k)
    # every produced complex squares to zero and stays minimal
    C = stalk_regular(a3_stable)
    for _ in range(4):
        C = nakayama(C)
        C.check()
        assert C.is_minimal()
    done("duality, quasi-inverse, vanishing, scaling and minimality all hold")
