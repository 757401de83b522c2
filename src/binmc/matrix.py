"""Exact matrices over the package's rings, with Smith normal form and friends.

A Matrix is an immutable flat tuple of ring elements plus a ring reference.
The decomposition routines are deterministic: pivot selection always takes the
nonzero entry of smallest Euclidean size, ties broken by lowest row then column
index, and diagonal entries are normalized to canonical associates.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ShapeError
from .rings import Ring, ZZ


class Matrix:
    __slots__ = ("ring", "rows", "cols", "entries", "_snf")

    def __init__(self, ring: Ring, rows: int, cols: int, entries):
        if ring.kind == "prime-field":
            # one spelling per element, so equal matrices compare and hash equal
            p = ring.p
            entries = tuple([x % p for x in entries])
        else:
            entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ShapeError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self._snf = None  # cached (U, S, V) from _smith_ext; instances are immutable

    @staticmethod
    def from_rows(ring: Ring, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != nc:
                raise ShapeError("ragged rows")
        flat = [x for r in rows for x in r]
        return Matrix(ring, nr, nc, flat)

    @staticmethod
    def from_int_rows(ring: Ring, rows) -> "Matrix":
        conv = ring.from_int
        return Matrix.from_rows(ring, [[conv(x) for x in r] for r in rows])

    @staticmethod
    def identity(ring: Ring, n: int) -> "Matrix":
        z, o = ring.zero, ring.one
        return Matrix(ring, n, n, [o if i == j else z for i in range(n) for j in range(n)])

    @staticmethod
    def zeros(ring: Ring, rows: int, cols: int) -> "Matrix":
        return Matrix(ring, rows, cols, [ring.zero] * (rows * cols))

    def get(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row_list(self):
        c = self.cols
        return [list(self.entries[i * c:(i + 1) * c]) for i in range(self.rows)]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.ring == self.ring
                and other.rows == self.rows and other.cols == self.cols
                and other.entries == self.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Matrix({self.ring.kind} {self.rows}x{self.cols} {list(self.entries)})"

    def is_zero(self) -> bool:
        z = self.ring.is_zero
        return all(z(x) for x in self.entries)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        add = self.ring.add
        return Matrix(self.ring, self.rows, self.cols,
                      [add(a, b) for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        sub = self.ring.sub
        return Matrix(self.ring, self.rows, self.cols,
                      [sub(a, b) for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "Matrix":
        neg = self.ring.neg
        return Matrix(self.ring, self.rows, self.cols, [neg(a) for a in self.entries])

    def scale(self, c) -> "Matrix":
        mul = self.ring.mul
        return Matrix(self.ring, self.rows, self.cols, [mul(c, a) for a in self.entries])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ring != other.ring:
            raise ShapeError("ring mismatch in product")
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        ring = self.ring
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        kind = ring.kind
        if kind == "integers" or kind == "prime-field":
            # raw int accumulation; the constructor reduces prime-field entries
            out = [0] * (n * m)
            for i in range(n):
                arow = a[i * k:(i + 1) * k]
                orow = i * m
                for t in range(k):
                    c = arow[t]
                    if c:
                        brow = b[t * m:(t + 1) * m]
                        for j in range(m):
                            v = brow[j]
                            if v:
                                out[orow + j] += c * v
            return Matrix(ring, n, m, out)
        add, mul, zero = ring.add, ring.mul, ring.zero
        is_zero = ring.is_zero
        out = [zero] * (n * m)
        for i in range(n):
            arow = a[i * k:(i + 1) * k]
            orow = i * m
            for t in range(k):
                c = arow[t]
                if is_zero(c):
                    continue
                brow = b[t * m:(t + 1) * m]
                for j in range(m):
                    out[orow + j] = add(out[orow + j], mul(c, brow[j]))
        return Matrix(ring, n, m, out)

    def transpose(self) -> "Matrix":
        e = self.entries
        c = self.cols
        return Matrix(self.ring, c, self.rows,
                      [e[i * c + j] for j in range(c) for i in range(self.rows)])

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        out = []
        for i in range(r0, r1):
            out.extend(self.entries[i * self.cols + c0:i * self.cols + c1])
        return Matrix(self.ring, r1 - r0, c1 - c0, out)

    def _same_shape(self, other: "Matrix"):
        if self.ring != other.ring or self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("shape or ring mismatch")


def kron(A: "Matrix", B: "Matrix") -> "Matrix":
    """Kronecker product; basis of the product ordered with A's index outer."""
    if A.ring != B.ring:
        raise ShapeError("kron over mixed rings")
    ring = A.ring
    rows, cols = A.rows * B.rows, A.cols * B.cols
    out = [ring.zero] * (rows * cols)
    for i1 in range(A.rows):
        for j1 in range(A.cols):
            a = A.get(i1, j1)
            if ring.is_zero(a):
                continue
            for i2 in range(B.rows):
                base = (i1 * B.rows + i2) * cols + j1 * B.cols
                for j2 in range(B.cols):
                    out[base + j2] = ring.mul(a, B.get(i2, j2))
    return Matrix(ring, rows, cols, out)


def hstack(mats) -> Matrix:
    mats = list(mats)
    if not mats:
        raise ShapeError("hstack of nothing")
    ring, rows = mats[0].ring, mats[0].rows
    for m in mats:
        if m.rows != rows or m.ring != ring:
            raise ShapeError("hstack mismatch")
    out = []
    for i in range(rows):
        for m in mats:
            out.extend(m.entries[i * m.cols:(i + 1) * m.cols])
    return Matrix(ring, rows, sum(m.cols for m in mats), out)


def vstack(mats) -> Matrix:
    mats = list(mats)
    if not mats:
        raise ShapeError("vstack of nothing")
    ring, cols = mats[0].ring, mats[0].cols
    out = []
    for m in mats:
        if m.cols != cols or m.ring != ring:
            raise ShapeError("vstack mismatch")
        out.extend(m.entries)
    return Matrix(ring, sum(m.rows for m in mats), cols, out)


def block_diag(ring: Ring, mats) -> Matrix:
    mats = list(mats)
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = [[ring.zero] * cols for _ in range(rows)]
    r0 = c0 = 0
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                out[r0 + i][c0 + j] = m.get(i, j)
        r0 += m.rows
        c0 += m.cols
    return Matrix.from_rows(ring, out) if rows else Matrix(ring, 0, cols, [])


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == S with S diagonal, divisibility chain, canonical associates."""

    ring: Ring
    U: Matrix
    S: Matrix
    V: Matrix

    @property
    def rank(self) -> int:
        return _rank_of(self.ring, self.S)

    def diagonal(self):
        return [self.S.get(i, i) for i in range(min(self.S.rows, self.S.cols))]

    def verify(self, A: Matrix) -> bool:
        ring = self.ring
        if self.U @ A @ self.V != self.S:
            return False
        if not ring.is_unit(det(self.U)) or not ring.is_unit(det(self.V)):
            return False
        d = self.diagonal()
        for i in range(len(d) - 1):
            if ring.is_zero(d[i]) and not ring.is_zero(d[i + 1]):
                return False
            if not ring.is_zero(d[i]) and not ring.is_zero(d[i + 1]):
                if ring.try_divide(d[i + 1], d[i]) is None:
                    return False
        for i in range(self.S.rows):
            for j in range(self.S.cols):
                if i != j and not ring.is_zero(self.S.get(i, j)):
                    return False
        return True


def _kernels(ring: Ring):
    """(axpy, col_axpy) for the ring: row dst += c*src, and column j += c*column i.

    Zero entries are skipped by truthiness: 0, Fraction(0) and () are the only
    falsy ring elements, and adding c*0 changes nothing.
    """
    if ring.kind == "prime-field":
        p = ring.p

        def axpy(dst, src, c):
            for k in range(len(src)):
                v = src[k]
                if v:
                    dst[k] = (dst[k] + c * v) % p

        def col_axpy(rows, j, i, c):
            for r in rows:
                v = r[i]
                if v:
                    r[j] = (r[j] + c * v) % p
    elif ring.kind in ("integers", "rationals"):
        def axpy(dst, src, c):
            for k in range(len(src)):
                v = src[k]
                if v:
                    dst[k] += c * v

        def col_axpy(rows, j, i, c):
            for r in rows:
                v = r[i]
                if v:
                    r[j] += c * v
    else:
        add, mul = ring.add, ring.mul

        def axpy(dst, src, c):
            for k in range(len(src)):
                v = src[k]
                if v:
                    dst[k] = add(dst[k], mul(c, v))

        def col_axpy(rows, j, i, c):
            for r in rows:
                v = r[i]
                if v:
                    r[j] = add(r[j], mul(c, v))
    return axpy, col_axpy


def _smith_ext(A: Matrix):
    """(U, S, V) with U A V = S.  See SmithDecomposition for the S contract.

    One elimination for every ring, on the augmented rows [S | U] over [V],
    starting from [A | I_n] over [I_m]: a row op on the first n rows moves S
    and U together, a column op on the first m columns moves S and V together.
    The decomposition is cached on the matrix, so repeated rank / solve /
    kernel questions about one matrix only eliminate once.
    """
    if A._snf is not None:
        return A._snf
    ring = A.ring
    n, m = A.rows, A.cols
    one, zero = ring.one, ring.zero
    neg, size, euclid_div = ring.neg, ring.size, ring.euclid_div
    axpy, col_axpy = _kernels(ring)
    rows = A.row_list()
    for i, r in enumerate(rows):
        r.extend(one if k == i else zero for k in range(n))
    rows.extend([one if k == j else zero for k in range(m)] for j in range(m))

    def col_swap(i, j):
        for r in rows:
            r[i], r[j] = r[j], r[i]

    def reduce_at(t):
        """Clear row t and column t off the pivot at (t, t).

        A nonzero remainder becomes the new pivot, by swap, and the sweep
        restarts; a sweep with no remainder leaves both lines clear.
        """
        while True:
            for i in range(n):
                x = rows[i][t]
                if i == t or not x:
                    continue
                q, r = euclid_div(x, rows[t][t])
                if q:
                    axpy(rows[i], rows[t], neg(q))
                if r:
                    rows[i], rows[t] = rows[t], rows[i]
                    break
            else:
                row_t = rows[t]
                for j in range(m):
                    x = row_t[j]
                    if j == t or not x:
                        continue
                    q, r = euclid_div(x, row_t[t])
                    if q:
                        col_axpy(rows, j, t, neg(q))
                    if r:
                        col_swap(j, t)
                        break
                else:
                    return

    def pivot(t):
        """(row, col) of the smallest nonzero entry of S[t:, t:], ties to lowest (row, col).

        Size 1 is the smallest a nonzero entry can have, so the scan stops at
        the first such entry; this keeps the same choice the full scan makes.
        """
        best = None
        for i in range(t, n):
            row = rows[i]
            for j in range(t, m):
                x = row[j]
                if x:
                    sz = size(x)
                    if sz == 1:
                        return i, j
                    if best is None or sz < best[0]:
                        best = (sz, i, j)
        return None if best is None else best[1:]

    t = 0
    while t < min(n, m):
        found = pivot(t)
        if found is None:
            break
        i, j = found
        if i != t:
            rows[i], rows[t] = rows[t], rows[i]
        if j != t:
            col_swap(j, t)
        reduce_at(t)
        t += 1
    rank = t
    # enforce the divisibility chain d1 | d2 | ... (vacuous over a field)
    done = ring.is_field
    while not done:
        done = True
        for i in range(rank):
            for j in range(i + 1, rank):
                if ring.try_divide(rows[j][j], rows[i][i]) is None:
                    col_axpy(rows, i, j, one)
                    reduce_at(i)
                    done = False
    # canonical associates on the diagonal
    mul = ring.mul
    for i in range(rank):
        u, _ = ring.canonical_factor(rows[i][i])
        if u != one:
            v = ring.unit_inverse(u)
            rows[i] = [mul(v, x) for x in rows[i]]
    U = Matrix(ring, n, n, [x for r in rows[:n] for x in r[m:]])
    S = Matrix(ring, n, m, [x for r in rows[:n] for x in r[:m]])
    V = Matrix(ring, m, m, [x for r in rows[n:] for x in r])
    A._snf = (U, S, V)
    return A._snf


def _rank_of(ring: Ring, S: Matrix) -> int:
    """Number of nonzero diagonal entries of S."""
    return sum(not ring.is_zero(S.get(i, i)) for i in range(min(S.rows, S.cols)))


def smith(A: Matrix) -> SmithDecomposition:
    return SmithDecomposition(A.ring, *_smith_ext(A))


def rank(A: Matrix) -> int:
    return smith(A).rank


def solve(A: Matrix, B: Matrix):
    """X with A @ X == B, or None.  Deterministic: free coordinates are zero."""
    if A.rows != B.rows:
        raise ShapeError("solve: row mismatch")
    return _solve_prepared(A.ring, *_smith_ext(A), B)


def _solve_prepared(ring, U, S, V, B):
    C = U @ B
    k = B.cols
    m = V.rows
    Y = [[ring.zero] * k for _ in range(m)]
    r = _rank_of(ring, S)
    for i in range(r):
        d = S.get(i, i)
        for j in range(k):
            q = ring.try_divide(C.get(i, j), d)
            if q is None:
                return None
            Y[i][j] = q
    for i in range(r, S.rows):
        for j in range(k):
            if not ring.is_zero(C.get(i, j)):
                return None
    Ymat = Matrix.from_rows(ring, Y) if m else Matrix(ring, 0, k, [])
    return V @ Ymat


def kernel_basis(A: Matrix) -> Matrix:
    """Columns form a basis of {x : A x = 0} (the full kernel, saturated over a PID)."""
    _, S, V = _smith_ext(A)
    return V.submatrix(0, V.rows, _rank_of(A.ring, S), V.cols)


def column_space_basis(A: Matrix) -> Matrix:
    """Columns form a basis of the column span (image lattice) of A.

    They are the first rank columns of A V = U^-1 S, that is U^-1's columns
    scaled by the invariant factors, so U^-1 itself is never needed.
    """
    _, S, V = _smith_ext(A)
    return A @ V.submatrix(0, V.rows, 0, _rank_of(A.ring, S))


def det(A: Matrix):
    """Fraction-free Bareiss determinant; exact over every shipped ring."""
    if A.rows != A.cols:
        raise ShapeError("determinant of a non-square matrix")
    ring = A.ring
    n = A.rows
    if n == 0:
        return ring.one
    M = A.row_list()
    sign = False
    prev = ring.one
    for k in range(n - 1):
        piv = None
        for i in range(k, n):
            if not ring.is_zero(M[i][k]):
                piv = i
                break
        if piv is None:
            return ring.zero
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            sign = not sign
        sub, mul = ring.sub, ring.mul
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = sub(mul(M[i][j], M[k][k]), mul(M[i][k], M[k][j]))
                q = ring.try_divide(num, prev)
                if q is None:
                    raise ArithmeticError("Bareiss exact division failed")
                M[i][j] = q
        prev = M[k][k]
    d = M[n - 1][n - 1]
    return ring.neg(d) if sign else d


def rank_over_fractions(A: Matrix) -> int:
    """Rank by Gaussian elimination in the fraction field.

    Independent of the Smith route: works on Fractions (for integer input) or
    directly in the field; shares nothing with _smith_ext.
    """
    ring = A.ring
    if ring == ZZ:
        rows = [[Fraction(x) for x in A.entries[i * A.cols:(i + 1) * A.cols]]
                for i in range(A.rows)]
        is_zero = lambda x: x == 0
        div = lambda a, b: a / b
        sub = lambda a, b: a - b
        mul = lambda a, b: a * b
    elif ring.is_field:
        rows = A.row_list()
        is_zero = ring.is_zero
        div = lambda a, b: ring.mul(a, ring.unit_inverse(b))
        sub = ring.sub
        mul = ring.mul
    else:
        raise ShapeError("fraction-field rank needs the integers or a field")
    r = 0
    ncols = A.cols
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if not is_zero(rows[i][c]):
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        for i in range(r + 1, len(rows)):
            if not is_zero(rows[i][c]):
                f = div(rows[i][c], prow[c])
                rows[i] = [sub(x, mul(f, p)) for x, p in zip(rows[i], prow)]
        r += 1
        if r == len(rows):
            break
    return r
