import random
from fractions import Fraction

import pytest
import sympy

from conftest import (
    block_diag,
    check_module,
    check_morphism,
    corpus_algebra,
    decompose_oracle,
    dense_module,
    hom_dim,
    projective_module,
    radical_submodule,
    socle_vertices,
    solve_oracle,
)
from quivercy.ar import decide_nrf
from quivercy.homology import tor
from quivercy.linalg import Mat
from quivercy.module import (
    Module,
    Morphism,
    _fitting_pieces,
    _min_poly,
    _rational_roots,
    _trace_rank,
    decompose,
    direct_sum,
    dual_module,
    dual_regular_bimodule,
    hom,
    injective_module,
    is_isomorphic,
    regular_bimodule,
    regular_module,
    simple_module,
    top_of,
    zero_module,
)


def test_projective_injective_dims(a3_linear):
    assert projective_module(a3_linear, 1).dim_vector() == (1, 1, 1)
    assert projective_module(a3_linear, 2).dim_vector() == (0, 1, 1)
    assert projective_module(a3_linear, 3).dim_vector() == (0, 0, 1)
    assert injective_module(a3_linear, 1).dim_vector() == (1, 0, 0)
    assert injective_module(a3_linear, 2).dim_vector() == (1, 1, 0)
    assert injective_module(a3_linear, 3).dim_vector() == (1, 1, 1)


def test_module_axioms_checked(a3_linear):
    for v in a3_linear.vertices:
        check_module(projective_module(a3_linear, v))
        check_module(injective_module(a3_linear, v))


def test_regular_decomposes_into_projectives(a3_linear):
    parts, certified = decompose(regular_module(a3_linear))
    assert certified is True
    assert sorted(p.dim_vector() for p in parts) == [(0, 0, 1), (0, 1, 1), (1, 1, 1)]


@pytest.mark.parametrize("blocks,poly", [
    ([], [1]),
    ([[[2]], [[2, 1], [0, 2]]], [4, -4, 1]),                 # (x - 2)^2
    ([[[1]], [[0, -1], [1, 0]]], [-1, 1, -1, 1]),            # (x - 1)(x^2 + 1)
    ([[[0, 1], [0, 0]], [[Fraction(1, 2)]]], [0, 0, Fraction(-1, 2), 1]),
])
def test_min_poly_spans_every_vertex_block(blocks, poly):
    assert _min_poly([Mat.from_rows(b) for b in blocks] + [Mat.zero(0, 0)]) == poly


@pytest.mark.parametrize("coeffs,roots", [
    ([0, -1, 1], [0, 1]),                                   # x (x - 1)
    ([0, 0, 3, 1], [-3, 0]),                                # x^2 (x + 3)
    ([3, 5, 2], [Fraction(-3, 2), -1]),                     # (2x + 3)(x + 1)
    ([Fraction(-1, 4), 0, 1], [Fraction(-1, 2), Fraction(1, 2)]),
    ([-8, 12, -6, 1], [2]),                                 # (x - 2)^3
    ([-2, 0, -1, 0, 1], []),                                # (x^2 + 1)(x^2 - 2)
    ([-1000003, -1000002, 1], [-1, 1000003]),               # (x - 1000003)(x + 1)
    ([1000003, 0, -7], []),                                 # 7x^2 - 1000003
])
def test_rational_roots(coeffs, roots):
    assert _rational_roots(coeffs) == roots


def _kronecker_modules():
    """X = (1; 0), Y = (1; 1), and Z_i, Z_2 with a = I and b of minimal
    polynomial x^2 + 1 and x^2 - 2, so that End Z_i = Q(i) and
    End Z_2 = Q(sqrt 2): no rational root splits them."""
    alg = corpus_algebra("kronecker")

    def rep(a, b, name):
        # basis elements 2 and 3 are the arrows a and b
        return dense_module(alg, {1: len(a), 2: len(a)},
                            {2: Mat.from_rows(a), 3: Mat.from_rows(b)}, name=name)

    eye = [[1, 0], [0, 1]]
    X, Y = rep([[1]], [[0]], "X"), rep([[1]], [[1]], "Y")
    Zi, Z2 = rep(eye, [[0, -1], [1, 0]], "Zi"), rep(eye, [[0, 2], [1, 0]], "Z2")
    return [X, Y, Zi, Z2, direct_sum([Zi, Z2]), direct_sum([Zi, Zi]),
            direct_sum([X, Zi, Y]), direct_sum([X, X, Y])]


def _decompose_cases():
    """Per corpus algebra: its simples, projectives and injectives, their
    sums of two distinct ones, ten seeded sums of three, the regular
    module and, where the algebra is 1-RF, its cluster tilting module."""
    mods = []
    for stem in ("a2", "a3_linear", "a3_stable", "a4_linear", "d4", "a2_tensor_a2",
                 "kronecker"):
        alg = corpus_algebra(stem)
        basic = ([simple_module(alg, v) for v in alg.vertices]
                 + [projective_module(alg, v) for v in alg.vertices]
                 + [injective_module(alg, v) for v in alg.vertices])
        rng = random.Random(1)
        mods += basic
        mods += [direct_sum([basic[i], basic[j]])
                 for i in range(len(basic)) for j in range(i + 1, len(basic))]
        mods += [direct_sum(rng.sample(basic, 3)) for _ in range(10)]
        mods.append(regular_module(alg))
        report = decide_nrf(alg, 1)
        if report.is_nrf is True:
            mods.append(report.ct_module)
    return mods + _kronecker_modules()


def _split(result):
    parts, certified = result
    return sorted(p.dim_vector() for p in parts), certified


def test_decompose_matches_the_factoring_oracle():
    mods = _decompose_cases()
    assert len(mods) == 456
    for M in mods:
        assert _split(decompose(M)) == _split(decompose_oracle(M)), M.name


def test_fitting_pieces_take_the_complement_and_the_full_eigenspace():
    X, _, Zi, *_ = _kronecker_modules()
    # f = 1 on X and b on Z_i: minimal polynomial (x - 1)(x^2 + 1), so
    # ker (f - 1) = X and Z_i is the quotient by it
    f = Mat.from_rows([[1, 0, 0], [0, 0, -1], [0, 1, 0]])
    XZ = direct_sum([X, Zi])
    pieces = _fitting_pieces(XZ, Morphism(XZ, XZ, {1: f, 2: f}))
    assert [P.dim_vector() for P in pieces] == [(1, 1), (2, 2)]
    assert is_isomorphic(pieces[1], Zi)
    # f = 1 + a shift of index 3 on S^3: one generalized eigenspace, all of it
    S = simple_module(X.alg, 1)
    S3 = direct_sum([S, S, S])
    f = Mat.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    pieces = _fitting_pieces(S3, Morphism(S3, S3, {1: f, 2: Mat.zero(0, 0)}))
    assert [P.dim_vector() for P in pieces] == [(3, 0)]


def test_hom_dims(a3_linear):
    P1 = projective_module(a3_linear, 1)
    P3 = projective_module(a3_linear, 3)
    # maps P1 -> P3 would need an algebra element from 3 back to 1
    assert hom_dim(P1, P3) == 0
    assert hom_dim(P3, P1) == 1
    assert hom_dim(P1, P1) == 1
    for f in hom(P3, P1):
        check_morphism(f)


def test_top_radical_socle(a3_linear):
    P1 = projective_module(a3_linear, 1)
    T, _ = top_of(P1)
    assert T.dim_vector() == (1, 0, 0)
    R, inc = radical_submodule(P1)
    assert R.dim_vector() == (0, 1, 1)
    check_morphism(inc)
    assert socle_vertices(P1) == {1: 0, 2: 0, 3: 1}


def test_simple_and_zero(a3_linear):
    assert simple_module(a3_linear, 2).dim_vector() == (0, 1, 0)
    assert zero_module(a3_linear).is_zero()


def test_dual_module(a3_linear):
    # the dual of an injective is the projective over the opposite algebra
    D = dual_module(injective_module(a3_linear, 3))
    assert D.dim_vector() == (1, 1, 1)
    check_module(D)


def test_direct_sum(a3_linear):
    P1 = projective_module(a3_linear, 1)
    S2 = simple_module(a3_linear, 2)
    M = direct_sum([P1, S2])
    assert M.dim_vector() == (1, 2, 1)
    check_module(M)
    assert is_isomorphic(M, direct_sum([S2, P1]))


def test_is_isomorphic(a3_linear):
    P1 = projective_module(a3_linear, 1)
    assert is_isomorphic(P1, projective_module(a3_linear, 1))
    # the sincere indecomposable is both P1 and I3
    assert is_isomorphic(P1, injective_module(a3_linear, 3))
    # same dimension vector, different module
    M = direct_sum([projective_module(a3_linear, 2), simple_module(a3_linear, 1)])
    assert M.dim_vector() == P1.dim_vector()
    assert not is_isomorphic(P1, M)


def test_regular_bimodule_tensor_is_identity(a2, a3_linear):
    # Tor_0(A, P) = A (x) P = P
    for alg in (a2, a3_linear):
        X = regular_bimodule(alg)
        for v in alg.vertices:
            P = projective_module(alg, v)
            T = tor(0, X, P)
            assert T.dim_vector() == P.dim_vector()
            assert is_isomorphic(T, P)


def test_dual_regular_sends_projectives_to_injectives(a3_linear, d4):
    # Tor_0(DA, P_v) = DA e_v = I_v
    for alg in (a3_linear, d4):
        DA = dual_regular_bimodule(alg)
        for v in alg.vertices:
            assert is_isomorphic(tor(0, DA, projective_module(alg, v)), injective_module(alg, v))


# -- the exact isomorphism test ------------------------------------------


def _kronecker_module(kronecker, a_rows, b_rows):
    """The Kronecker representation with arrows a, b acting by the given
    square matrices."""
    d = len(a_rows)
    act = {2: Mat.from_rows(a_rows), 3: Mat.from_rows(b_rows)}
    M = dense_module(kronecker, {1: d, 2: d}, act)
    check_module(M)
    return M


def _q(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_check_holds_modules_to_the_block_rule(kronecker):
    # two 1x1 blocks of a on the diagonal pass; a zero block, two blocks
    # sharing a row or a column, and a block past the shape do not
    one = Mat.from_rows([[1]])
    check_module(Module(kronecker, {1: 2, 2: 2}, {2: [(0, 0, one), (1, 1, one)]}))
    for blocks in ([(0, 0, Mat.from_rows([[0]]))], [(0, 0, one), (0, 1, one)],
                   [(0, 0, one), (1, 0, one)], [(2, 0, one)]):
        with pytest.raises(ValueError, match="block-diagonal"):
            check_module(Module(kronecker, {1: 2, 2: 2}, {2: blocks}))


def test_kronecker_with_field_endomorphisms(kronecker):
    # a = 1, b = companion of x^2 + 1: End is Q(i), so trace rank 2
    M = _kronecker_module(kronecker, _q([[1, 0], [0, 1]]), _q([[0, -1], [1, 0]]))
    E = hom(M, M)
    assert len(E) == 2 and _trace_rank(E, E) == 2
    # a second presentation: a = S, b = S P C P^-1
    S, P, C, Pinv = (Mat.from_rows(_q(r)) for r in (
        [[2, 1], [1, 1]], [[1, 1], [0, 1]], [[0, -1], [1, 0]], [[1, -1], [0, 1]]))
    assert P * Pinv == Mat.identity(2)
    N = _kronecker_module(kronecker, S.a, (S * P * C * Pinv).a)
    assert is_isomorphic(M, N)
    R = _kronecker_module(kronecker, _q([[1, 0], [0, 1]]), _q([[0, -2], [1, 0]]))
    assert not is_isomorphic(M, R)
    # equal dimension vectors, a common summand, not isomorphic: only the
    # trace ranks can say no
    MR = direct_sum([M, R])
    MM = direct_sum([M, N])
    assert hom(MR, MM)
    assert not is_isomorphic(MR, MM)
    assert is_isomorphic(MM, direct_sum([N, M]))


def test_reordered_sums(kronecker):
    X = _kronecker_module(kronecker, _q([[1]]), _q([[0]]))
    Y = _kronecker_module(kronecker, _q([[1]]), _q([[1]]))
    Z = _kronecker_module(kronecker, _q([[1, 0], [0, 1]]), _q([[0, -1], [1, 0]]))
    XYZ = direct_sum([X, Y, Z])
    assert is_isomorphic(XYZ, direct_sum([Z, X, Y]))
    assert not is_isomorphic(XYZ, direct_sum([X, X, Z]))


def _iso_by_generic_det(M, N):
    """Oracle: an isomorphism M -> N exists iff the generic element
    sum t_k h_k of Hom(M, N) has, at every vertex, a determinant that is
    not the zero polynomial in the t_k; any point off their zero sets is
    an explicit isomorphism."""
    if M.dim_vector() != N.dim_vector():
        return False
    H = hom(M, N)
    if not H:
        return M.total_dim == 0
    t = sympy.symbols(f"t0:{len(H)}")
    for v in M.alg.vertices:
        d = M.dims[v]
        if not d:
            continue
        generic = sympy.Matrix(d, d, lambda r, c: sum(
            tk * sympy.Rational(h.mats[v].a[r][c].numerator, h.mats[v].a[r][c].denominator)
            for tk, h in zip(t, H)))
        if sympy.expand(generic.det(method="berkowitz")) == 0:
            return False
    return True


def _small_modules(alg):
    basic = ([simple_module(alg, v) for v in alg.vertices]
             + [projective_module(alg, v) for v in alg.vertices]
             + [injective_module(alg, v) for v in alg.vertices])
    sums = [direct_sum([basic[i], basic[j]])
            for i in range(len(basic)) for j in range(i, len(basic))]
    return basic + sums


@pytest.mark.parametrize("stem", ["a2", "a3_linear", "a3_stable", "d4", "kronecker"])
def test_trace_criterion_matches_explicit_search(stem):
    alg = corpus_algebra(stem)
    mods = _small_modules(alg)
    pairs = [(M, N) for i, M in enumerate(mods) for N in mods[i + 1:]
             if M.dim_vector() == N.dim_vector()]
    assert pairs
    seen = set()
    for M, N in pairs:
        expected = _iso_by_generic_det(M, N)
        EM, EN = hom(M, M), hom(N, N)
        criterion = (_trace_rank(EM, EM) + _trace_rank(EN, EN)
                     == 2 * _trace_rank(hom(M, N), hom(N, M)))
        assert criterion == expected == is_isomorphic(M, N), (M, N)
        seen.add(expected)
    assert seen == {True, False}


def _end_is_local(M, E):
    """Oracle, the regular-representation test: End(M)/rad is one
    dimensional, with rad End(M) the kernel of the trace form of left
    multiplication on End(M) (characteristic 0)."""
    n = len(E)
    big = [block_diag([e.mats[v] for v in M.alg.vertices if M.dims[v]]) for e in E]
    B = Mat.from_rows([[x for row in b.a for x in row] for b in big]).transpose()
    table = {}
    for i in range(n):
        for j in range(n):
            table[(i, j)] = solve_oracle(B, [x for row in (big[i] * big[j]).a for x in row])
    gram = Mat.zero(n, n)
    for i in range(n):
        for j in range(n):
            xy = table[(i, j)]
            gram.a[i][j] = sum(xy[l] * table[(l, k)][k] for k in range(n) for l in range(n))
    return n - len(gram.kernel_basis()) == 1


@pytest.mark.parametrize("stem", ["a3_linear", "a3_stable", "d4", "kronecker"])
def test_trace_rank_one_matches_regular_representation(stem):
    alg = corpus_algebra(stem)
    seen = set()
    for M in _small_modules(alg):
        if M.total_dim:
            E = hom(M, M)
            local = _end_is_local(M, E)
            assert (_trace_rank(E, E) == 1) == local, M
            seen.add(local)
    assert seen == {True, False}
