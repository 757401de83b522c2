"""Exact matrices over the package's rings, with Smith normal form and friends.

A Matrix is immutable: a ring reference plus one tuple per row that holds the
row's nonzero entries only, as (column, entry, column, entry, ...) with the
columns ascending.  Products, solves and eliminations therefore walk nonzeros
only; ``entries``, ``row_list`` and ``get`` give the dense view, and
``from_row_pairs`` and ``row_pairs`` the sparse one to other modules.  Rows are
shared freely between matrices.  A block matrix comes from ``block_matrix``,
which holds only its nonzero blocks and writes their rows side by side.  A ring
element is zero exactly when it is falsy (0, Fraction(0) and the empty
polynomial ()), given that GF(p) entries are reduced, which the public
constructors do.

The decomposition routines are deterministic: pivot selection always takes the
nonzero entry of smallest Euclidean size, ties broken by lowest row then column
index, and diagonal entries are normalized to canonical associates.  One
elimination serves both the full decomposition (smith, solve, kernels) and
invariant_factors, which needs no U or V and so builds neither, and which
first peels off the unit entries alone in their row or column.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress

from .errors import ShapeError
from .rings import Ring, ZZ


def _pairs(row):
    """The (column, entry) pairs of a stored row."""
    it = iter(row)
    return zip(it, it)


def _flat(pairs) -> tuple:
    """The stored row of (column, entry) pairs given in column order."""
    return tuple(chain.from_iterable(pairs))


def _packed(d: dict) -> tuple:
    """The stored row of a {column: nonzero entry} dict."""
    if len(d) < 2:
        return next(iter(d.items()), ())  # (column, entry) is already the row
    return _flat(sorted(d.items()))


def _with_entries(row, values) -> tuple:
    """row's columns with new nonzero entries, in the same order."""
    out = list(row)
    out[1::2] = values
    return tuple(out)


def _nonzeros(ring: Ring, values) -> tuple:
    """The stored row of one dense row.

    GF(p) entries are reduced, so equal matrices store equal rows and hash equal.
    """
    if ring.kind == "prime-field":
        p = ring.p
        values = [x % p for x in values]
    return _flat(compress(enumerate(values), values))


class Matrix:
    __slots__ = ("ring", "rows", "cols", "_nz", "_snf", "_factors")

    def __init__(self, ring: Ring, rows: int, cols: int, entries):
        entries = list(entries)
        if len(entries) != rows * cols:
            raise ShapeError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self._nz = [_nonzeros(ring, entries[i * cols:(i + 1) * cols]) for i in range(rows)]
        self._snf = None  # cached (U, S, V) from _smith_ext; instances are immutable
        self._factors = None  # cached invariant_factors when _snf was not needed

    @staticmethod
    def _of(ring: Ring, rows: int, cols: int, nz: list) -> "Matrix":
        """The matrix whose row i is the stored row nz[i]; nothing is checked or reduced."""
        A = Matrix.__new__(Matrix)
        A.ring = ring
        A.rows = rows
        A.cols = cols
        A._nz = nz
        A._snf = None
        A._factors = None
        return A

    @staticmethod
    def from_rows(ring: Ring, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        nc = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != nc:
                raise ShapeError("ragged rows")
        return Matrix._of(ring, len(rows), nc, [_nonzeros(ring, r) for r in rows])

    @staticmethod
    def from_row_pairs(ring: Ring, cols: int, rows) -> "Matrix":
        """The matrix whose row i holds the (column, entry) pairs of rows[i].

        The pairs come in ascending column order and their entries are
        nonzero and, over GF(p), reduced; nothing is checked.
        """
        return Matrix._of(ring, len(rows), cols, [_flat(r) for r in rows])

    @staticmethod
    def from_int_rows(ring: Ring, rows) -> "Matrix":
        conv = ring.from_int
        return Matrix.from_rows(ring, [[conv(x) for x in r] for r in rows])

    @staticmethod
    def identity(ring: Ring, n: int) -> "Matrix":
        one = ring.one
        return Matrix._of(ring, n, n, [(i, one) for i in range(n)])

    @staticmethod
    def zeros(ring: Ring, rows: int, cols: int) -> "Matrix":
        return Matrix._of(ring, rows, cols, [()] * rows)

    def get(self, i: int, j: int):
        row = self._nz[i]
        columns = row[::2]
        return row[2 * columns.index(j) + 1] if j in columns else self.ring.zero

    def row_pairs(self):
        """Row by row, the (column, nonzero entry) pairs in column order."""
        return [_pairs(row) for row in self._nz]

    def row_list(self):
        z, c = self.ring.zero, self.cols
        out = []
        for row in self._nz:
            dense = [z] * c
            for j, x in _pairs(row):
                dense[j] = x
            out.append(dense)
        return out

    @property
    def entries(self) -> tuple:
        """Every entry, row by row, as one flat tuple."""
        return tuple(chain.from_iterable(self.row_list()))

    def __eq__(self, other):
        return other is self or (isinstance(other, Matrix) and other.ring == self.ring
                                 and other.rows == self.rows and other.cols == self.cols
                                 and other._nz == self._nz)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self._nz)))

    def __lt__(self, other: "Matrix") -> bool:
        """Ordered as the dense entry tuples, for two matrices of one shape
        over one ring; the first stored rows that differ decide."""
        zero = self.ring.zero
        for a, b in zip(self._nz, other._nz):
            if a != b:
                x, y = dict(_pairs(a)), dict(_pairs(b))
                j = min(j for j in x.keys() | y.keys() if x.get(j, zero) != y.get(j, zero))
                return x.get(j, zero) < y.get(j, zero)
        return False

    def __repr__(self):
        return f"Matrix({self.ring.kind} {self.rows}x{self.cols} {list(self.entries)})"

    def is_zero(self) -> bool:
        return not any(self._nz)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, self.ring.add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, self.ring.sub)

    def _combine(self, other: "Matrix", op) -> "Matrix":
        """Entrywise op(self, other), for op the ring's add or sub."""
        self._same_shape(other)
        zero = self.ring.zero
        out = []
        for a, b in zip(self._nz, other._nz):
            row = dict(_pairs(a))
            for j, y in _pairs(b):
                x = op(row.get(j, zero), y)
                if x:
                    row[j] = x
                else:
                    del row[j]
            out.append(_packed(row))
        return Matrix._of(self.ring, self.rows, self.cols, out)

    def __neg__(self) -> "Matrix":
        neg = self.ring.neg
        return Matrix._of(self.ring, self.rows, self.cols,
                          [_with_entries(row, map(neg, row[1::2])) for row in self._nz])

    def scale(self, c) -> "Matrix":
        mul = self.ring.mul
        out = []
        for row in self._nz:
            values = [mul(c, x) for x in row[1::2]]
            out.append(_with_entries(row, values) if all(values)
                       else _flat((j, x) for j, x in zip(row[::2], values) if x))
        return Matrix._of(self.ring, self.rows, self.cols, out)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ring != other.ring:
            raise ShapeError("ring mismatch in product")
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        ring = self.ring
        b = other._nz
        one, mul = ring.one, ring.mul
        raw = ring.kind == "integers" or ring.kind == "prime-field"
        p = ring.p if ring.kind == "prime-field" else None
        add, zero = ring.add, ring.zero
        out = []
        for arow in self._nz:
            if len(arow) == 2:
                # one term c at column t: row t of the right factor times c, which
                # has no zero entries because no ring here has zero divisors
                t, c = arow
                row = b[t]
                out.append(row if c == one else _with_entries(row, [mul(c, v) for v in row[1::2]]))
                continue
            if not arow:
                out.append(())
                continue
            acc = {}
            if raw:
                # raw int accumulation, reduced once per entry over GF(p)
                for t, c in _pairs(arow):
                    bt = iter(b[t])
                    for j, v in zip(bt, bt):
                        acc[j] = acc.get(j, 0) + c * v
                if p is not None:
                    acc = {j: y for j, x in acc.items() if (y := x % p)}
                elif 0 in acc.values():
                    acc = {j: x for j, x in acc.items() if x}
            else:
                for t, c in _pairs(arow):
                    bt = iter(b[t])
                    for j, v in zip(bt, bt):
                        acc[j] = add(acc.get(j, zero), mul(c, v))
                acc = {j: x for j, x in acc.items() if x}
            out.append(_packed(acc))
        return Matrix._of(ring, self.rows, other.cols, out)

    def transpose(self) -> "Matrix":
        out = [[] for _ in range(self.cols)]
        for i, row in enumerate(self._nz):
            for j, x in _pairs(row):
                out[j] += (i, x)
        return Matrix._of(self.ring, self.cols, self.rows, [tuple(r) for r in out])

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        rows = self._nz[r0:r1]
        if c0 != 0 or c1 != self.cols:
            rows = [_flat((j - c0, x) for j, x in _pairs(row) if c0 <= j < c1) for row in rows]
        return Matrix._of(self.ring, r1 - r0, c1 - c0, rows)

    def _same_shape(self, other: "Matrix"):
        if self.ring != other.ring or self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("shape or ring mismatch")


def kron(A: "Matrix", B: "Matrix") -> "Matrix":
    """Kronecker product; basis of the product ordered with A's index outer."""
    if A.ring != B.ring:
        raise ShapeError("kron over mixed rings")
    mul, w = A.ring.mul, B.cols
    out = [_flat((j1 * w + j2, mul(a, b)) for j1, a in _pairs(arow) for j2, b in _pairs(brow))
           for arow in A._nz for brow in B._nz]
    return Matrix._of(A.ring, A.rows * B.rows, A.cols * B.cols, out)


def _shifted(row: tuple, c0: int) -> tuple:
    """row with every column moved c0 to the right."""
    if not c0 or not row:
        return row
    if len(row) == 2:
        return (row[0] + c0, row[1])
    out = list(row)
    out[::2] = [j + c0 for j in row[::2]]
    return tuple(out)


def hstack(mats) -> Matrix:
    mats = list(mats)
    if not mats:
        raise ShapeError("hstack of nothing")
    ring, rows = mats[0].ring, mats[0].rows
    for m in mats:
        if m.rows != rows or m.ring != ring:
            raise ShapeError("hstack mismatch")
    out = [()] * rows
    c0 = 0
    for m in mats:
        out = [row + _shifted(part, c0) for row, part in zip(out, m._nz)]
        c0 += m.cols
    return Matrix._of(ring, rows, c0, out)


def vstack(mats) -> Matrix:
    mats = list(mats)
    if not mats:
        raise ShapeError("vstack of nothing")
    ring, cols = mats[0].ring, mats[0].cols
    out = []
    for m in mats:
        if m.cols != cols or m.ring != ring:
            raise ShapeError("vstack mismatch")
        out.extend(m._nz)
    return Matrix._of(ring, len(out), cols, out)


def block_diag(ring: Ring, mats) -> Matrix:
    out = []
    c0 = 0
    for m in mats:
        out.extend(_shifted(row, c0) for row in m._nz)
        c0 += m.cols
    return Matrix._of(ring, len(out), c0, out)


def block_matrix(ring: Ring, heights, widths, blocks) -> Matrix:
    """The matrix cut into heights[r] x widths[s] blocks that holds
    blocks[(r, s)] where one is given and zero everywhere else."""
    starts = [0, *accumulate(widths)]
    bands = [[()] * h for h in heights]
    for (r, s), B in sorted(blocks.items()):
        if B.ring != ring or B.rows != heights[r] or B.cols != widths[s]:
            raise ShapeError(f"block ({r}, {s}) is {B.rows}x{B.cols} over {B.ring.kind}, "
                             f"not {heights[r]}x{widths[s]} over {ring.kind}")
        bands[r] = [row + _shifted(part, starts[s]) for row, part in zip(bands[r], B._nz)]
    out = list(chain.from_iterable(bands))
    return Matrix._of(ring, len(out), starts[-1], out)


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == S with S diagonal, divisibility chain, canonical associates."""

    ring: Ring
    U: Matrix
    S: Matrix
    V: Matrix

    @property
    def rank(self) -> int:
        return _rank_of(self.S)

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
        for i, row in enumerate(self.S._nz):
            if any(j != i for j in row[::2]):
                return False
        return True


def _axpy(ring: Ring):
    """axpy(dst, src, c): dst += c * src on {column: entry} rows, dropping zeros.

    c is never zero, so a column absent from dst gets the nonzero c * src[k].
    """
    if ring.kind == "prime-field":
        p = ring.p

        def axpy(dst, src, c):
            for k, v in src.items():
                x = (dst.get(k, 0) + c * v) % p
                if x:
                    dst[k] = x
                else:
                    del dst[k]
    elif ring.kind in ("integers", "rationals"):
        def axpy(dst, src, c):
            for k, v in src.items():
                x = dst.get(k, 0) + c * v
                if x:
                    dst[k] = x
                else:
                    del dst[k]
    else:
        add, mul, zero = ring.add, ring.mul, ring.zero

        def axpy(dst, src, c):
            for k, v in src.items():
                x = add(dst.get(k, zero), mul(c, v))
                if x:
                    dst[k] = x
                else:
                    del dst[k]
    return axpy


def _smith_ext(A: Matrix):
    """(U, S, V) with U A V = S.  See SmithDecomposition for the S contract.

    The decomposition is cached on the matrix, so repeated rank / solve /
    kernel questions about one matrix only eliminate once.
    """
    if A._snf is None:
        A._snf = _eliminate(A, True)
    return A._snf


def invariant_factors(A: Matrix) -> tuple:
    """The nonzero diagonal of smith(A).S: d1 | d2 | ..., canonical associates.

    Read from a cached decomposition when there is one; otherwise computed by
    an elimination that keeps no U or V, after the lone unit pivots are peeled
    off, and cached on the matrix.
    """
    if A._snf is not None:
        return tuple(row[1] for row in A._snf[1]._nz if row)
    if A._factors is None:
        peeled, rest = _peel(A)
        A._factors = (A.ring.one,) * peeled + _eliminate(rest, False)
    return A._factors


def _peel(A: Matrix):
    """(k, rest): k unit entries peeled off A, each alone in its row or column.

    A unit alone in its row clears its column by row operations that change
    nothing else (and alone in its column, its row by column operations), so
    it gives the invariant factor one and leaves the factors of the matrix
    without its row and column; S is unique, so the rest may be eliminated
    apart.  Dropping a row and a column can leave new lone entries, found
    through a column index, so the pass costs O(nonzeros).  rest keeps the
    other nonzero rows and columns, renumbered.  A signed partial permutation
    (each row at most one unit, no column used twice) peels whole, so it is
    settled in one pass with no index and an empty rest.
    """
    nz = A._nz
    if all(len(row) <= 2 for row in nz):
        lone = [row for row in nz if row]
        if len({row[0] for row in lone}) == len(lone) and all(
                A.ring.is_unit(row[1]) for row in lone):
            return len(lone), Matrix.zeros(A.ring, 0, 0)
    col_count = Counter(chain.from_iterable(row[::2] for row in nz))
    if not any(len(row) == 2 for row in nz) and 1 not in col_count.values():
        return 0, A
    is_unit = A.ring.is_unit
    rows = [dict(_pairs(row)) for row in nz]
    cols = {j: set() for j in col_count}  # column -> rows holding it
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    lone_rows = [i for i, row in enumerate(rows) if len(row) == 1]
    lone_cols = [j for j, c in cols.items() if len(c) == 1]
    peeled = 0
    while lone_rows or lone_cols:
        if lone_rows:
            i = lone_rows.pop()
            if len(rows[i]) != 1:
                continue
            (j, x), = rows[i].items()
        else:
            j = lone_cols.pop()
            if len(cols.get(j, ())) != 1:
                continue
            i, = cols[j]
            x = rows[i][j]
        if not is_unit(x):
            continue
        peeled += 1
        for k in rows[i]:
            c = cols[k]
            c.discard(i)
            if len(c) == 1:
                lone_cols.append(k)
        rows[i] = {}
        for r in cols.pop(j):
            row = rows[r]
            del row[j]
            if len(row) == 1:
                lone_rows.append(r)
    if not peeled:
        return 0, A
    kept = {j: new for new, j in enumerate(sorted(j for j, c in cols.items() if c))}
    rest = [_flat((kept[j], row[j]) for j in sorted(row)) for row in rows if row]
    return peeled, Matrix._of(A.ring, len(rest), len(kept), rest)


def _eliminate(A: Matrix, full: bool):
    """The one Smith elimination; (U, S, V) when full, else the nonzero diagonal of S.

    It runs for every ring on sparse rows of S and U over sparse columns of V,
    starting from A, I_n and I_m: a row op moves S and U together, a column op
    moves S and V together.  Without full, U and V are never built or moved;
    S goes through the same operations, so its diagonal is the same.
    """
    ring = A.ring
    n, m = A.rows, A.cols
    if n == 0 or m == 0:
        if not full:
            return ()
        return (Matrix.identity(ring, n), Matrix.zeros(ring, n, m), Matrix.identity(ring, m))
    one = ring.one
    neg, size, euclid_div = ring.neg, ring.size, ring.euclid_div
    axpy = _axpy(ring)
    # rows of S and U and columns of V, as {index: nonzero entry} while they change
    S = [dict(_pairs(r)) for r in A._nz]
    if full:
        U = [{i: one} for i in range(n)]
        V = [{j: one} for j in range(m)]

    def row_swap(i, j):
        S[i], S[j] = S[j], S[i]
        if full:
            U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        # rows above min(i, j) hold only their pivots, left of both columns
        for r in S[min(i, j):]:
            if i in r or j in r:
                a = r.pop(i, None)
                b = r.pop(j, None)
                if a is not None:
                    r[j] = a
                if b is not None:
                    r[i] = b
        if full:
            V[i], V[j] = V[j], V[i]

    def reduce_at(t):
        """Clear row t and column t off the pivot at (t, t).

        A nonzero remainder becomes the new pivot, by swap, and the sweep
        restarts; a sweep with no remainder leaves both lines clear.
        """
        while True:
            piv = S[t][t]
            for i in range(t + 1, n):  # rows above t hold only their pivots
                x = S[i].get(t)
                if x is None:
                    continue
                q, r = euclid_div(x, piv)
                if q:
                    c = neg(q)
                    axpy(S[i], S[t], c)
                    if full:
                        axpy(U[i], U[t], c)
                if r:
                    row_swap(i, t)
                    break
            else:
                # the row sweep left column t of S zero off the pivot, so
                # column j -= q * column t changes S only at (t, j), to r
                row_t = S[t]
                for j in sorted(row_t):
                    if j == t:
                        continue
                    q, r = euclid_div(row_t[j], piv)
                    if q and full:
                        axpy(V[j], V[t], neg(q))
                    if r:
                        row_t[j] = r
                        col_swap(j, t)
                        break
                    del row_t[j]
                else:
                    return

    def pivot(t):
        """(row, col) of the smallest nonzero entry of S[t:, t:], ties to lowest (row, col).

        Rows t and below are zero left of column t, so every entry they hold
        is a candidate.  Size 1 is the smallest a nonzero entry can have, so
        the scan stops at the first row holding one; this keeps the same
        choice the full scan makes.
        """
        best = None
        for i in range(t, n):
            if S[i]:
                sz, j = min((size(x), j) for j, x in S[i].items())
                if best is None or sz < best[0]:
                    best = (sz, i, j)
                    if sz == 1:
                        break
        return None if best is None else best[1:]

    t = 0
    while t < min(n, m):
        found = pivot(t)
        if found is None:
            break
        i, j = found
        if i != t:
            row_swap(i, t)
        if j != t:
            col_swap(j, t)
        reduce_at(t)
        t += 1
    rank = t
    # enforce the divisibility chain d1 | d2 | ... (vacuous over a field).  By
    # transitivity the chain holds once every adjacent pair divides, and then
    # the full scan would make no operation, so it runs only when one fails.
    try_divide = ring.try_divide
    done = ring.is_field or all(try_divide(S[i + 1][i + 1], S[i][i]) is not None
                                for i in range(rank - 1))
    while not done:
        done = True
        for i in range(rank):
            for j in range(i + 1, rank):
                if try_divide(S[j][j], S[i][i]) is None:
                    # column i += column j; S is diagonal here, so only (j, i) changes
                    S[j][i] = S[j][j]
                    if full:
                        axpy(V[i], V[j], one)
                    reduce_at(i)
                    done = False
    # canonical associates on the diagonal; S's rows hold only their pivots now
    mul = ring.mul
    for i in range(rank):
        u, _ = ring.canonical_factor(S[i][i])
        if u != one:
            v = ring.unit_inverse(u)
            S[i] = {i: mul(v, S[i][i])}
            if full:
                U[i] = {k: mul(v, x) for k, x in U[i].items()}
    if not full:
        return tuple(S[i][i] for i in range(rank))
    V_rows = [[] for _ in range(m)]
    for j, col in enumerate(V):
        for i, x in col.items():
            V_rows[i] += (j, x)
    return (Matrix._of(ring, n, n, [_packed(r) for r in U]),
            Matrix._of(ring, n, m, [(i, S[i][i]) for i in range(rank)] + [()] * (n - rank)),
            Matrix._of(ring, m, m, [tuple(r) for r in V_rows]))


def _rank_of(S: Matrix) -> int:
    """Number of nonzero diagonal entries of S."""
    return sum(i in row[::2] for i, row in enumerate(S._nz))


def smith(A: Matrix) -> SmithDecomposition:
    return SmithDecomposition(A.ring, *_smith_ext(A))


def rank(A: Matrix) -> int:
    return len(invariant_factors(A))


def solve(A: Matrix, B: Matrix):
    """X with A @ X == B, or None.  Deterministic: free coordinates are zero."""
    if A.rows != B.rows:
        raise ShapeError("solve: row mismatch")
    return _solve_prepared(A.ring, *_smith_ext(A), B)


def _solve_prepared(ring, U, S, V, B):
    C = (U @ B)._nz
    r = _rank_of(S)
    if any(C[r:]):
        return None
    try_divide = ring.try_divide
    Y = []
    for i in range(r):
        d = S.get(i, i)
        quotients = [try_divide(x, d) for x in C[i][1::2]]
        if None in quotients:
            return None
        Y.append(_with_entries(C[i], quotients))
    Y.extend([()] * (V.rows - r))
    return V @ Matrix._of(ring, V.rows, B.cols, Y)


def kernel_basis(A: Matrix) -> Matrix:
    """Columns form a basis of {x : A x = 0} (the full kernel, saturated over a PID)."""
    _, S, V = _smith_ext(A)
    return V.submatrix(0, V.rows, _rank_of(S), V.cols)


def column_space_basis(A: Matrix) -> Matrix:
    """Columns form a basis of the column span (image lattice) of A.

    They are the first rank columns of A V = U^-1 S, that is U^-1's columns
    scaled by the invariant factors, so U^-1 itself is never needed.
    """
    _, S, V = _smith_ext(A)
    return A @ V.submatrix(0, V.rows, 0, _rank_of(S))


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
        rows = [[Fraction(x) for x in r] for r in A.row_list()]
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
