"""Exact linear algebra over the rationals.

Everything downstream (algebra bases, Hom spaces, resolutions) reduces to
rank and kernel on dense matrices.  Kernel and span bases are rref
bases, so each vector has a unit coordinate where the others are zero,
and coordinates in them are read off there instead of solved for.
Q is the only ground field, so scalars are plain numbers and no field
object is stored or passed.  They are integer-first: an integral value
is a Python int, and a rational `_mpq` (gmpy2 `mpq` when available, else
`fractions.Fraction`) is built only when a division leaves Z, by
`rational` or `inv`.  Python mixes int and Fraction exactly (sums,
products, `==` and `hash` agree), so only division needs care: it goes
through `inv`, because int / int would be a float.  No floating point
anywhere.
"""

from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as _mpq
except ImportError:  # pragma: no cover
    _mpq = Fraction

_ONE = _mpq(1)


def rational(num, den=1):
    """num / den as a scalar: an int when den divides num, else an `_mpq`.
    An `_mpq` is never turned back into an int, so an integral value may
    be either; both compare and hash alike."""
    if num % den == 0:
        return num // den
    return _mpq(num, den)


def inv(x):
    """1 / x, which stays an int for the units +-1 of Z."""
    if x == 1 or x == -1:
        return x
    return _ONE / x


class Mat:
    """Dense matrix over Q.  Treated as immutable after build."""

    __slots__ = ("rows", "cols", "a")

    def __init__(self, rows, cols, a):
        self.rows = rows
        self.cols = cols
        self.a = a  # list of row lists

    @staticmethod
    def zero(rows, cols):
        if rows and cols:
            return Mat(rows, cols, [[0] * cols for _ in range(rows)])
        # no entry to fill in: the rows, if any, share one empty list
        return Mat(rows, cols, [[]] * rows)

    @staticmethod
    def identity(n):
        return Mat(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def from_rows(rows, ncols=None):
        rows = [list(r) for r in rows]
        if rows:
            ncols = len(rows[0])
        elif ncols is None:
            ncols = 0
        return Mat(len(rows), ncols, rows)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.a == other.a
        )

    def __hash__(self):
        raise TypeError("Mat is not hashable")

    def is_zero(self):
        return all(not x for row in self.a for x in row)

    def __add__(self, other):
        return Mat(
            self.rows,
            self.cols,
            [[x + y for x, y in zip(r, s)] for r, s in zip(self.a, other.a)],
        )

    def scale(self, c):
        return Mat(self.rows, self.cols, [[c * x for x in r] for r in self.a])

    def __mul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        out = []
        for r in self.a:
            nz = [(j, x) for j, x in enumerate(r) if x]
            row = [0] * other.cols
            for j, x in nz:
                br = other.a[j]
                for k, y in enumerate(br):
                    if y:
                        row[k] = row[k] + x * y
            out.append(row)
        return Mat(self.rows, other.cols, out)

    def apply(self, vec):
        """Matrix times column vector (list)."""
        nz = [(j, y) for j, y in enumerate(vec) if y]
        out = []
        for r in self.a:
            s = 0
            for j, y in nz:
                x = r[j]
                if x:
                    s = s + x * y
            out.append(s)
        return out

    def transpose(self):
        if self.rows == 1 == self.cols:
            return self  # its own transpose, and never changed after build
        if self.rows == 0:
            return Mat(self.cols, 0, [[] for _ in range(self.cols)])
        return Mat(self.cols, self.rows, [list(r) for r in zip(*self.a)])

    def kron(self, other):
        """Kronecker product: entry (i * other.rows + k, j * other.cols + l)
        is self[i][j] * other[k][l], an int 0 where either factor is 0."""
        return Mat(self.rows * other.rows, self.cols * other.cols,
                   [[x * y if x and y else 0 for x in srow for y in orow]
                    for srow in self.a for orow in other.a])

    def column(self, j):
        return [r[j] for r in self.a]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    # -- elimination --------------------------------------------------

    def rref(self):
        """Reduced row echelon form.  Returns (R, pivot_columns).  A matrix
        without rows or columns is its own rref."""
        m, n = self.rows, self.cols
        if not m or not n:
            return self, []
        a = [row[:] for row in self.a]
        pivots = []
        r = 0
        for c in range(n):
            if r >= m:
                break
            # prefer +-1 pivots to keep entries small
            piv = -1
            for i in range(r, m):
                x = a[i][c]
                if x:
                    if piv < 0:
                        piv = i
                    if x == 1 or x == -1:
                        piv = i
                        break
            if piv < 0:
                continue
            a[r], a[piv] = a[piv], a[r]
            prow = a[r]
            pinv = inv(prow[c])
            # the pivot row is zero left of c; its nonzeros are found once,
            # and only when it is scaled or clears another row
            nz = None
            if pinv != 1:
                nz = [j for j in range(c, n) if prow[j]]
                for j in nz:
                    prow[j] = pinv * prow[j]
            for i in range(m):
                if i != r and a[i][c]:
                    if nz is None:
                        nz = [j for j in range(c, n) if prow[j]]
                    arow = a[i]
                    f = arow[c]
                    for j in nz:
                        arow[j] = arow[j] - f * prow[j]
            pivots.append(c)
            r += 1
        return Mat(m, n, a), pivots

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Basis of the right null space, as a list of column vectors.
        Vector k stands for the k-th free column of the rref: it is 1 there
        and every other vector is 0 there (see `kernel_units`)."""
        R, pivots = self.rref()
        pivset = set(pivots)
        free = [j for j in range(self.cols) if j not in pivset]
        basis = []
        for j in free:
            v = [0] * self.cols
            v[j] = 1
            for i, pc in enumerate(pivots):
                v[pc] = -R.a[i][j]
            basis.append(v)
        return basis

    def is_invertible(self):
        return self.rows == self.cols and self.rank() == self.rows

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols})"


def span_basis(vectors):
    """Reduce a list of coordinate vectors to an rref basis of their span."""
    R, pivots = Mat.from_rows([v for v in vectors if any(v)]).rref()
    return [R.a[i] for i in range(len(pivots))]


def kernel_units(basis):
    """The coordinate at which each vector of a `Mat.kernel_basis` is 1
    and every other vector is 0.  It is the vector's last nonzero entry,
    since a pivot row of the rref is zero left of its pivot; the scan for
    it starts from the end."""
    return [next(j for j in range(len(v) - 1, -1, -1) if v[j]) for v in basis]


def independent_subset(span, candidates):
    """Indices of the candidates that a greedy scan keeps: those outside
    the row span of `span` and of the candidates kept before them.  They
    are the pivot columns past `span` of the rref of the matrix whose
    columns are the rows of span followed by the candidates."""
    _, pivots = Mat.from_rows(list(span) + list(candidates)).transpose().rref()
    k = len(span)
    return [p - k for p in pivots if p >= k]

