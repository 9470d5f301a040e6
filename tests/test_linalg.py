import random
from fractions import Fraction

import pytest

from conftest import block_diag, solve_oracle
from quivercy.linalg import Mat, independent_subset, kernel_units, span_basis


def mat(rows):
    return Mat.from_rows(rows)


def test_rref_and_rank():
    m = mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert m.rank() == 2
    R, pivots = m.rref()
    assert pivots == [0, 1]
    assert R.a[2] == [0] * 3


def _textbook_rref(rows):
    """Gauss-Jordan elimination with the first nonzero entry as pivot."""
    a = [list(r) for r in rows]
    m, n = len(a), len(a[0])
    pivots = []
    for c in range(n):
        r = len(pivots)
        p = next((i for i in range(r, m) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(m):
            if i != r:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


@pytest.mark.parametrize("density", [0.15, 0.5, 1.0])
def test_rref_matches_textbook_reference(density):
    rng = random.Random(7)
    for _ in range(40):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < density
                 else Fraction(0) for _ in range(n)] for _ in range(m)]
        R, pivots = Mat.from_rows(rows).rref()
        assert (R.a, pivots) == _textbook_rref(rows)
    # int entries with non-unit pivots: the integer-first path gives what
    # the same calls give on the Fraction-converted matrix
    for _ in range(40):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        ints = [[rng.choice([1, -1, 2, -3, 6, 4]) if rng.random() < density else 0
                 for _ in range(n)] for _ in range(m)]
        fracs = [[Fraction(x) for x in r] for r in ints]
        R, pivots = Mat.from_rows(ints).rref()
        assert (R.a, pivots) == _textbook_rref(fracs)
        assert Mat.from_rows(ints).kernel_basis() == Mat.from_rows(fracs).kernel_basis()
        assert span_basis(ints) == span_basis(fracs)
        k = rng.randint(0, m)
        assert (independent_subset(ints[:k], ints[k:])
                == independent_subset(fracs[:k], fracs[k:]))


@pytest.mark.parametrize("m,n", [(0, 0), (0, 1), (0, 4), (1, 0), (3, 0), (1, 1), (2, 3), (4, 2)])
def test_rref_of_empty_and_zero_matrices(m, n):
    # no rows, no columns, or every entry zero: no pivots, the whole
    # identity as kernel basis, each vector its own unit coordinate, and
    # nothing to span
    rows = [[0] * n for _ in range(m)]
    M = Mat(m, n, rows)
    R, pivots = M.rref()
    assert (R.rows, R.cols, R.a, pivots) == (m, n, rows, [])
    if m:  # the textbook oracle reads the width off the first row
        assert (R.a, pivots) == _textbook_rref([[Fraction(x) for x in r] for r in rows])
    assert M.rank() == 0
    assert M.kernel_basis() == [[int(i == j) for i in range(n)] for j in range(n)]
    assert kernel_units(M.kernel_basis()) == list(range(n))
    assert span_basis(rows) == []
    assert Mat.from_rows(rows, ncols=n).rref()[1] == []


def test_kernel_basis():
    m = mat([[1, 2], [2, 4]])
    kb = m.kernel_basis()
    assert len(kb) == 1
    assert m.apply(kb[0]) == [0, 0]
    assert mat([[1, 0], [0, 1]]).kernel_basis() == []


def test_solve():
    m = mat([[2, 1], [1, 1]])
    x = solve_oracle(m, [3, 2])
    assert m.apply(x) == [3, 2]
    assert solve_oracle(mat([[1, 1], [1, 1]]), [0, 1]) is None


def test_transpose_and_stacks():
    m = mat([[1, 2, 3], [4, 5, 6]])
    t = m.transpose()
    assert (t.rows, t.cols) == (3, 2)
    one = mat([[7]])
    assert one.transpose() is one  # never changed after build, so shared
    d = block_diag([mat([[1]]), mat([[2, 0], [0, 3]])])
    assert (d.rows, d.cols) == (3, 3)
    assert d.a[0][1] == 0


def test_kron():
    a = mat([[1, 2]])
    b = mat([[1], [3]])
    k = a.kron(b)
    assert (k.rows, k.cols) == (2, 2)
    assert [[int(x) for x in r] for r in k.a] == [[1, 2], [3, 6]]


def test_span_and_membership():
    rows = [[1, 1], [2, 2], [1, 0]]
    basis = span_basis(rows)
    assert len(basis) == 2
    # a candidate is kept exactly when it lies outside the span
    assert independent_subset(basis, [[5, 3]]) == []
    assert independent_subset([], [[0, 0]]) == []
    assert independent_subset([[1, 1]], [[1, 2]]) == [0]


def _greedy_subset(span, candidates):
    """The scan independent_subset replaces: keep a candidate when it is
    not in the span so far (solved for, as the old membership test did)."""
    sel = []
    rows = span_basis(span)
    for i, c in enumerate(candidates):
        if not any(c):
            continue
        if rows and solve_oracle(Mat.from_rows(rows).transpose(), list(c)) is not None:
            continue
        sel.append(i)
        rows = span_basis(rows + [c])
    return sel


def test_independent_subset_matches_the_greedy_scan():
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randint(1, 6)
        # few distinct small entries and many zeros make dependencies common
        vec = lambda: [rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(n)]
        span = [vec() for _ in range(rng.randint(0, 3))]
        cands = [vec() for _ in range(rng.randint(0, 7))]
        assert independent_subset(span, cands) == _greedy_subset(span, cands)


def test_kernel_units_read_coordinates_in_the_kernel():
    # vector k is 1 at units[k] and every other vector is 0 there, so the
    # coordinates of a kernel vector are its entries at the units
    rng = random.Random(11)
    for _ in range(200):
        rows, cols = rng.randint(0, 4), rng.randint(1, 6)
        entries = [[rng.choice([0, 0, 1, -1, 2]) for _ in range(cols)] for _ in range(rows)]
        m = Mat.from_rows(entries, ncols=cols)
        kb = m.kernel_basis()
        units = kernel_units(kb)
        assert len(kb) == cols - m.rank()
        for k, u in enumerate(units):
            assert [v[u] for v in kb] == [1 if j == k else 0 for j in range(len(kb))]
        coeffs = [rng.randint(-3, 3) for _ in kb]
        x = [sum((c * v[j] for c, v in zip(coeffs, kb)), 0) for j in range(cols)]
        assert [x[u] for u in units] == coeffs



def _kron_oracle(x, y):
    """Entry (i, j) of x kron y, read off the definition."""
    return [[x.a[i // y.rows][j // y.cols] * y.a[i % y.rows][j % y.cols]
             for j in range(x.cols * y.cols)] for i in range(x.rows * y.rows)]


@pytest.mark.parametrize("seed", range(8))
def test_kron_matches_the_entrywise_definition(seed):
    rng = random.Random(seed)
    # odd seeds draw Fraction entries, a Fraction zero among them
    values = ([0, 0, 1, -1, Fraction(1, 2), Fraction(-3, 4), Fraction(0)] if seed % 2
              else [0, 0, 1, -1, 2, 3])

    def draw():
        r, c = rng.randint(0, 3), rng.randint(0, 3)
        return Mat(r, c, [[rng.choice(values) for _ in range(c)] for _ in range(r)])

    for _ in range(25):
        x, y = draw(), draw()
        k = x.kron(y)
        assert (k.rows, k.cols) == (x.rows * y.rows, x.cols * y.cols)
        assert len(k.a) == k.rows and all(len(row) == k.cols for row in k.a)
        assert k.a == _kron_oracle(x, y)
        # a zero factor leaves an int 0, never a Fraction zero
        assert all(type(e) is int for row in k.a for e in row if not e)


def test_kernel_units_scan_from_the_end_as_the_forward_scan_finds():
    # the unit is the last nonzero entry, found from the end; on seeded
    # kernels, and on vectors that no kernel basis gives (auslander_algebra
    # passes some), it equals the last one a forward scan finds
    def forward(basis):
        return [max(j for j, x in enumerate(v) if x) for v in basis]

    rng = random.Random(17)
    for _ in range(300):
        rows, cols = rng.randint(0, 5), rng.randint(1, 9)
        m = Mat.from_rows([[rng.choice([0, 0, 0, 1, -1, 2, Fraction(1, 2)]) for _ in range(cols)]
                           for _ in range(rows)], ncols=cols)
        kb = m.kernel_basis()
        assert kernel_units(kb) == forward(kb)
        vecs = [[rng.choice([0, 0, 1, -3]) for _ in range(cols)] for _ in range(4)]
        vecs = [v for v in vecs if any(v)]
        assert kernel_units(vecs) == forward(vecs)
