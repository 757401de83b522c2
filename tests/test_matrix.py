"""Smith form, solve, determinant: frozen hand-derived values plus structural checks."""
import random
from fractions import Fraction

import pytest

from binmc import matrix
from binmc.errors import ShapeError
from binmc.gen import random_unimodular
from binmc.matrix import (Matrix, SmithDecomposition, block_diag, block_matrix,
                          column_space_basis, det, hstack, invariant_factors, kernel_basis,
                          kron, rank, rank_over_fractions, smith, solve, vstack)
from binmc.rings import GF, QQ, ZZ, polynomial_ring


def M(rows, ring=ZZ):
    return Matrix.from_int_rows(ring, rows)


def test_smith_identity():
    d = smith(Matrix.identity(ZZ, 3))
    assert d.S == Matrix.identity(ZZ, 3)
    assert d.verify(Matrix.identity(ZZ, 3))


def test_smith_zero_matrix():
    a = Matrix.zeros(ZZ, 2, 3)
    d = smith(a)
    assert d.S == a
    assert d.rank == 0
    assert d.verify(a)


def test_smith_hand_example():
    # gcd of entries is 2 and the determinant is 12, so the factors are 2, 6
    a = M([[2, 4], [0, 6]])
    d = smith(a)
    assert d.diagonal() == [2, 6]
    assert d.verify(a)


def test_smith_divisibility_fixup():
    # diag(4, 6) is not a valid Smith form; gcd 2 and lcm 12 are
    a = M([[4, 0], [0, 6]])
    d = smith(a)
    assert d.diagonal() == [2, 12]
    assert d.verify(a)


def test_smith_negative_entries_normalized():
    a = M([[-3]])
    d = smith(a)
    assert d.diagonal() == [3]
    assert d.verify(a)


def test_smith_rationals_rank_form():
    a = Matrix.from_rows(QQ, [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]])
    d = smith(a)
    assert d.diagonal() == [Fraction(1), Fraction(0)]
    assert d.verify(a)


def test_smith_prime_field():
    a = M([[2, 0], [0, 3]], GF(7))
    d = smith(a)
    assert d.diagonal() == [1, 1]
    assert d.verify(a)


def test_prime_field_entries_are_reduced_on_construction():
    F7 = GF(7)
    for entries in ([7], [-7], [14]):
        a = Matrix(F7, 1, 1, entries)
        assert a == Matrix.zeros(F7, 1, 1)
        assert hash(a) == hash(Matrix.zeros(F7, 1, 1))
    assert Matrix(F7, 1, 2, [-1, 10]).entries == (6, 3)
    assert (M([[3]], F7) @ M([[5]], F7)).entries == (1,)


def test_smith_polynomials():
    R = polynomial_ring(QQ)
    x = (QQ.zero, QQ.one)
    one = R.one
    a = Matrix.from_rows(R, [[x, one], [R.zero, x]])
    d = smith(a)
    # unimodular row/col moves peel off a unit, leaving 1 and x^2
    assert d.diagonal() == [one, R.mul(x, x)]
    assert d.verify(a)


def test_smith_polynomial_monic_normalization():
    R = polynomial_ring(GF(5))
    a = Matrix.from_rows(R, [[(0, 2)]])  # the 1x1 matrix (2x)
    d = smith(a)
    assert d.diagonal() == [(0, 1)]  # monic x
    assert d.verify(a)


def test_solve_integer_divisibility():
    assert solve(M([[2]]), M([[3]])) is None
    x = solve(M([[2]]), M([[6]]))
    assert x == M([[3]])


def test_solve_rational():
    a = Matrix.from_rows(QQ, [[Fraction(2)]])
    b = Matrix.from_rows(QQ, [[Fraction(3)]])
    assert solve(a, b) == Matrix.from_rows(QQ, [[Fraction(3, 2)]])


def test_solve_inconsistent():
    a = M([[1, 0], [1, 0]])
    b = M([[1], [2]])
    assert solve(a, b) is None


def test_solve_underdetermined_reproducible():
    a = M([[1, 1]])
    b = M([[5]])
    x1 = solve(a, b)
    x2 = solve(a, b)
    assert x1 == x2
    assert a @ x1 == b


def test_solve_zero_width_cases():
    # A with no columns: solvable iff B == 0
    a = Matrix.zeros(ZZ, 2, 0)
    assert solve(a, Matrix.zeros(ZZ, 2, 1)) == Matrix.zeros(ZZ, 0, 1)
    assert solve(a, M([[1], [0]])) is None
    # A with no rows: anything with matching shape solves, canonical answer is 0
    b = Matrix.zeros(ZZ, 0, 2)
    x = solve(Matrix.zeros(ZZ, 0, 3), b)
    assert x == Matrix.zeros(ZZ, 3, 2)


def test_kernel_basis_line():
    k = kernel_basis(M([[1, 1, 1]]))
    assert k.cols == 2
    assert (M([[1, 1, 1]]) @ k).is_zero()


def test_kernel_saturated():
    # kernel of [2 2] is spanned by (1, -1), not (2, -2)
    k = kernel_basis(M([[2, 2]]))
    assert k.cols == 1
    a, b = k.get(0, 0), k.get(1, 0)
    assert abs(a) == 1 and a == -b


def test_column_space_basis_scaling():
    b = column_space_basis(M([[2, 4], [0, 0]]))
    assert b.cols == 1
    assert abs(b.get(0, 0)) == 2 and b.get(1, 0) == 0


def test_det_hand_values():
    assert det(M([[1, 2], [3, 4]])) == -2
    assert det(M([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 0
    assert det(Matrix.identity(ZZ, 4)) == 1
    assert det(Matrix(ZZ, 0, 0, [])) == 1


def test_det_matches_cofactor_expansion():
    rng = random.Random(7)

    def cofactor(rows):
        n = len(rows)
        if n == 0:
            return 1
        total = 0
        for j in range(n):
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = rows[0][j] * cofactor(minor)
            total += term if j % 2 == 0 else -term
        return total

    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert det(M(rows)) == cofactor(rows)


def test_rank_two_ways_agree():
    rng = random.Random(11)
    for _ in range(60):
        n, m = rng.randint(0, 4), rng.randint(0, 4)
        rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        a = M(rows)
        assert rank(a) == rank_over_fractions(a)


F5X = polynomial_ring(GF(5))


def _random_matrix(rng, ring, n, m):
    """Small random entries; over F5[x] polynomials of degree up to 2."""
    if ring == F5X:
        return Matrix(ring, n, m, [F5X.poly([rng.randint(0, 4) for _ in range(rng.randint(0, 3))])
                                   for _ in range(n * m)])
    return Matrix.from_int_rows(ring, [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)])


def test_smith_randomized_contract():
    rng = random.Random(23)
    rings = [ZZ, QQ, GF(5), F5X]
    for tick in range(100):
        ring = rings[tick % len(rings)]
        n, m = rng.randint(0, 4), rng.randint(0, 4)
        a = _random_matrix(rng, ring, n, m)
        assert smith(a).verify(a)


def test_column_space_basis_spans_the_columns():
    # basis and A span each other: each one's columns solve against the other
    rng = random.Random(29)
    rings = [ZZ, QQ, GF(7), F5X]
    for tick in range(80):
        ring = rings[tick % len(rings)]
        a = _random_matrix(rng, ring, rng.randint(0, 4), rng.randint(0, 4))
        b = column_space_basis(a)
        assert b.rows == a.rows and b.cols == rank(a)
        assert solve(a, b) is not None
        assert solve(b, a) is not None
        assert rank(b) == b.cols


def test_smith_deterministic_across_runs():
    rng = random.Random(5)
    rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
    d1 = smith(M(rows))
    d2 = smith(M(rows))
    assert (d1.U, d1.S, d1.V) == (d2.U, d2.S, d2.V)


def test_stack_and_block_helpers():
    a, b = M([[1, 2]]), M([[3, 4]])
    assert vstack([a, b]) == M([[1, 2], [3, 4]])
    assert hstack([a, b]) == M([[1, 2, 3, 4]])
    assert block_diag(ZZ, [M([[1]]), M([[2]])]) == M([[1, 0], [0, 2]])


def test_matmul_shapes_and_zero_width():
    a = Matrix.zeros(ZZ, 2, 0)
    b = Matrix.zeros(ZZ, 0, 3)
    assert (a @ b) == Matrix.zeros(ZZ, 2, 3)
    with pytest.raises(Exception):
        M([[1]]) @ M([[1, 2], [3, 4]])


# U, S, V and column_space_basis pinned for fixed inputs, one group per ring.
# Any change to the pivot rule or the order of row and column operations
# changes some of these transforms even where S stays the same.
F, _X = Fraction, (0, 1)
GOLDEN = [
    # ZZ, divisibility fix-up: diag(2, 3) becomes diag(1, 6)
    (ZZ, [[2, 0], [0, 3]],
     [[-1, 1], [-3, 2]], [[1, 0], [0, 6]], [[1, -3], [1, -2]], [[2, -6], [3, -6]]),
    (ZZ, [[6, 4, 2], [3, -5, 7], [0, 9, -4]],
     [[-3, 1, 0], [-12, 4, 1], [31, -10, -2]], [[1, 0, 0], [0, 1, 0], [0, 0, 156]],
     [[0, -1, -59], [0, 1, 60], [1, 2, 135]], [[2, 2, 156], [7, 6, 468], [-4, 1, 0]]),
    # ZZ, a pivot tie at size 4: (0, 0) wins over (1, 1)
    (ZZ, [[4, 6], [6, 4]],
     [[-1, 1], [3, -2]], [[2, 0], [0, 10]], [[1, 1], [0, 1]], [[4, 10], [6, 10]]),
    (ZZ, [[4, 6, 10], [6, 9, 15]],
     [[-1, 1], [3, -2]], [[1, 0, 0], [0, 0, 0]],
     [[-1, 3, 5], [1, -2, -5], [0, 0, 1]], [[2], [3]]),
    # GF(7) with unreduced entries 7, -1, 10, -8
    (GF(7), [[7, -1, 3], [10, 2, -8], [4, 5, 6]],
     [[6, 0, 0], [3, 5, 0], [0, 3, 3]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
     [[0, 1, 3], [1, 0, 3], [0, 0, 1]], [[6, 0, 0], [2, 3, 0], [5, 4, 5]]),
    (QQ, [[F(1, 2), F(2, 3), F(0)], [F(3), F(-1), F(5, 4)], [F(7, 2), F(-1, 3), F(5, 4)]],
     [[F(2), F(0), F(0)], [F(6, 5), F(-1, 5), F(0)], [F(-1), F(-1), F(1)]],
     [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(0)]],
     [[F(1), F(-4, 3), F(-1, 3)], [F(0), F(1), F(1, 4)], [F(0), F(0), F(1)]],
     [[F(1, 2), F(0)], [F(3), F(-5)], [F(7, 2), F(-5)]]),
    # F5[x]: tuples are coefficients in ascending degree
    (F5X, [[_X, (1, 1)], [(0, 0, 1), (2,)]],
     [[(), (3,)], [(3,), (1, 1)]], [[(1,), ()], [(), (0, 3, 1, 1)]],
     [[(), (1,)], [(1,), (0, 0, 2)]], [[(1, 1), (0, 1, 2, 2)], [(2,), ()]]),
    (F5X, [[(1, 0, 1), _X], [_X, ()], [(3,), (2, 1)], [(0, 0, 1), (1, 1)]],
     [[(), (), (2,), ()], [(1, 2), (4, 4, 3), (3, 3), ()],
      [(0, 4, 2), (1, 4, 1, 3), (0, 0, 3), ()],
      [(4, 2, 2, 0, 4), (1, 2, 4, 1, 0, 1), (2, 4, 2, 3, 1), (1,)]],
     [[(1,), ()], [(), (1,)], [(), ()], [(), ()]],
     [[(1,), (1, 3)], [(), (1,)]],
     [[(1, 0, 1), (1, 4, 1, 3)], [_X, (0, 1, 3)], [(3,), ()], [(0, 0, 1), (1, 1, 1, 3)]]),
    # ZZ, the divisibility pass runs: 2 does not divide 3
    (ZZ, [[1, 0, 0], [0, 2, 0], [0, 0, 3]],
     [[1, 0, 0], [0, -1, 1], [0, -3, 2]], [[1, 0, 0], [0, 1, 0], [0, 0, 6]],
     [[1, 0, 0], [0, 1, -3], [0, 1, -2]], [[1, 0, 0], [0, 2, -6], [0, 3, -6]]),
    # ZZ, the pivot is the 4 and the divisibility pass runs on diag(4, 6)
    (ZZ, [[6, 0], [0, 4]],
     [[1, -1], [2, -3]], [[2, 0], [0, 12]], [[1, -2], [1, -3]], [[6, -12], [4, -12]]),
]


@pytest.mark.parametrize("ring, a, U, S, V, B", GOLDEN)
def test_smith_golden_decompositions(ring, a, U, S, V, B):
    A = Matrix.from_rows(ring, a)
    d = smith(A)
    assert (d.U.row_list(), d.S.row_list(), d.V.row_list()) == (U, S, V)
    assert column_space_basis(A).row_list() == B
    assert d.verify(A)


@pytest.mark.parametrize("rows, cols, U, S, V, B", [
    (0, 3, [], [], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], []),
    (3, 0, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[], [], []], [], [[], [], []]),
    (0, 0, [], [], [], []),
])
def test_smith_golden_empty_shapes(rows, cols, U, S, V, B):
    A = Matrix.zeros(ZZ, rows, cols)
    d = smith(A)
    assert (d.U.row_list(), d.S.row_list(), d.V.row_list()) == (U, S, V)
    assert column_space_basis(A).row_list() == B
    assert d.verify(A)


# -- sparse storage against a dense reference ----------------------------------
#
# The reference keeps a matrix as (rows, cols, flat list of every entry) and
# computes with the ring's own operations, one entry at a time.

def _ref(A):
    return A.rows, A.cols, list(A.entries)


def _ref_binary(ring, op, a, b):
    return a[0], a[1], [op(x, y) for x, y in zip(a[2], b[2])]


def _ref_mul(ring, a, b):
    n, k, x = a
    _, m, y = b
    out = []
    for i in range(n):
        for j in range(m):
            acc = ring.zero
            for t in range(k):
                acc = ring.add(acc, ring.mul(x[i * k + t], y[t * m + j]))
            out.append(acc)
    return n, m, out


def _ref_transpose(a):
    n, m, x = a
    return m, n, [x[i * m + j] for j in range(m) for i in range(n)]


def _ref_sub(a, r0, r1, c0, c1):
    n, m, x = a
    return r1 - r0, c1 - c0, [x[i * m + j] for i in range(r0, r1) for j in range(c0, c1)]


def _ref_block(ring, blocks):
    """Dense matrix from a grid of reference matrices."""
    rows = sum(row[0][0] for row in blocks)
    cols = sum(b[1] for b in blocks[0])
    out = []
    for row in blocks:
        for i in range(row[0][0]):
            for n, m, x in row:
                out.extend(x[i * m:(i + 1) * m])
    return rows, cols, out


def _ref_kron(ring, a, b):
    n1, m1, x = a
    n2, m2, y = b
    return n1 * n2, m1 * m2, [ring.mul(x[i1 * m1 + j1], y[i2 * m2 + j2])
                              for i1 in range(n1) for i2 in range(n2)
                              for j1 in range(m1) for j2 in range(m2)]


def _same(ring, A, ref):
    """A holds the reference's entries, stored the one way equal matrices are."""
    n, m, x = ref
    B = Matrix(ring, n, m, x)
    return A == B and hash(A) == hash(B) and A.entries == B.entries


def _raw_entry(rng, ring):
    """A nonzero-looking entry as callers pass it: GF(7) ones unreduced."""
    if ring == ZZ:
        return rng.choice([-3, -2, -1, 1, 2, 5])
    if ring == QQ:
        return Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3]))
    if ring == F5X:
        return F5X.poly([rng.randint(0, 4) for _ in range(rng.randint(1, 3))] + [rng.randint(1, 4)])
    return rng.choice([-8, -1, 3, 7, 10, 14, 20])  # 7 and 14 are zero in GF(7)


def _random_sparse(rng, ring, n, m, density):
    zero = ring.zero
    return Matrix(ring, n, m, [_raw_entry(rng, ring) if rng.random() < density else zero
                               for _ in range(n * m)])


SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (4, 6), (9, 7)]
ONE_TERM_SCALE = {"integers": 3, "prime-field": 5, "rationals": Fraction(-2, 3),
                  "polynomials-over": (2, 1)}


@pytest.mark.parametrize("ring", [ZZ, GF(7), QQ, F5X], ids=["ZZ", "GF7", "QQ", "F5X"])
@pytest.mark.parametrize("density", [0.0, 0.05, 1.0])
def test_sparse_storage_matches_dense_reference(ring, density):
    rng = random.Random(f"{ring.kind}:{density}")
    for n, m in SHAPES:
        k = rng.randint(0, 5)
        A = _random_sparse(rng, ring, n, m, density)
        C = _random_sparse(rng, ring, n, m, density)
        B = _random_sparse(rng, ring, m, k, density)
        a, c, b = _ref(A), _ref(C), _ref(B)
        assert len(A.entries) == n * m
        assert A.row_list() == [a[2][i * m:(i + 1) * m] for i in range(n)]
        assert all(A.get(i, j) == a[2][i * m + j] for i in range(n) for j in range(m))
        assert A.is_zero() == all(ring.is_zero(x) for x in a[2])
        # equality and hash follow the entries, not how the matrix was built
        again = Matrix(ring, n, m, A.entries)
        assert again == A and hash(again) == hash(A)
        if n:
            assert Matrix.from_rows(ring, A.row_list()) == A
        assert (A == C) == (a[2] == c[2])
        assert _same(ring, A + C, _ref_binary(ring, ring.add, a, c))
        assert _same(ring, A - C, _ref_binary(ring, ring.sub, a, c))
        assert _same(ring, A - A, (n, m, [ring.zero] * (n * m))) and (A - A).is_zero()
        assert _same(ring, -A, (n, m, [ring.neg(x) for x in a[2]]))
        for s in (ring.zero, ring.one, ring.neg(ring.one) if ring != F5X else (2, 1)):
            assert _same(ring, A.scale(s), (n, m, [ring.mul(s, x) for x in a[2]]))
        assert _same(ring, A @ B, _ref_mul(ring, a, b))
        D = _random_sparse(rng, ring, m, k, 1.0)  # sparse rows of A pick dense rows
        assert _same(ring, A @ D, _ref_mul(ring, a, _ref(D)))
        # left factors whose rows hold 0 or 1 terms: a permutation with some
        # rows emptied, scaled by one, by -one and by a c != one (over GF(7)
        # c * v wraps modulo 7)
        picks = [j if rng.random() < 0.8 else None for j in rng.sample(range(m), min(n, m))]
        picks += [None] * (n - len(picks))
        for scale in (ring.one, ring.neg(ring.one), ONE_TERM_SCALE[ring.kind]):
            P = Matrix(ring, n, m, [scale if j == picks[i] else ring.zero
                                    for i in range(n) for j in range(m)])
            assert all(sum(1 for x in row if x) <= 1 for row in P.row_list())
            p = _ref(P)
            for right, r in ((B, b), (D, _ref(D))):
                assert _same(ring, P @ right, _ref_mul(ring, p, r))
        assert _same(ring, A.transpose(), _ref_transpose(a))
        r0, r1 = sorted(rng.randint(0, n) for _ in range(2))
        c0, c1 = sorted(rng.randint(0, m) for _ in range(2))
        assert _same(ring, A.submatrix(r0, r1, c0, c1), _ref_sub(a, r0, r1, c0, c1))
        assert _same(ring, A.submatrix(0, n, 0, m), a)
        assert _same(ring, hstack([A, C]), _ref_block(ring, [[a, c]]))
        assert _same(ring, vstack([A, C]), (2 * n, m, a[2] + c[2]))
        zeros = lambda p, q: (p, q, [ring.zero] * (p * q))
        assert _same(ring, block_diag(ring, [A, B]),
                     _ref_block(ring, [[a, zeros(n, k)], [zeros(m, m), b]]))
        small = _random_sparse(rng, ring, 2, 3, max(density, 0.5))
        assert _same(ring, kron(A, small), _ref_kron(ring, a, _ref(small)))
        assert _same(ring, kron(small, A), _ref_kron(ring, _ref(small), a))

        # solve, kernel and column space, checked by dense products
        X0 = _random_sparse(rng, ring, m, k, density)
        rhs = _ref_mul(ring, a, _ref(X0))
        X = solve(A, Matrix(ring, n, k, rhs[2]))
        assert X is not None and _same(ring, Matrix(ring, n, k, rhs[2]), _ref_mul(ring, a, _ref(X)))
        K = kernel_basis(A)
        assert K.rows == m and K.cols == m - rank(A) and rank(K) == K.cols
        assert _same(ring, Matrix.zeros(ring, n, K.cols), _ref_mul(ring, a, _ref(K)))
        if ring != F5X:
            assert rank(A) == rank_over_fractions(A)
        basis = column_space_basis(A)
        assert basis.rows == n and basis.cols == rank(A) == rank(basis)
        assert solve(A, basis) is not None and solve(basis, A) is not None


@pytest.mark.parametrize("ring", [ZZ, GF(7), QQ, F5X], ids=["ZZ", "GF7", "QQ", "F5X"])
def test_order_and_equality_match_the_dense_entry_tuples(ring):
    # canonical keys hold matrices, so two matrices of one shape must compare
    # exactly as their dense entries; B redraws one or two cells of A, so the
    # pair often agrees on a long prefix and differs late, or not at all
    rng = random.Random(f"order:{ring.kind}")
    for _ in range(1000):
        n, m, density = rng.randint(1, 4), rng.randint(1, 5), rng.choice([0.1, 0.5, 0.9])
        A, C = (_random_sparse(rng, ring, n, m, density) for _ in range(2))
        cells = list(A.entries)
        for _ in range(rng.randint(1, 2)):
            cells[rng.randrange(n * m)] = _raw_entry(rng, ring) if rng.random() < 0.7 else ring.zero
        B = Matrix(ring, n, m, cells)
        for X, Y in ((A, B), (B, A), (A, C), (A, A)):
            assert (X < Y) == (X.entries < Y.entries)
            assert (X == Y) == (X.entries == Y.entries)


GRIDS = [([2, 0, 3], [0, 1, 3, 2]), ([0], [4]), ([3], [0]), ([], []), ([1, 2], []),
         ([], [2, 1]), ([2, 1], [1, 3])]


@pytest.mark.parametrize("ring", [ZZ, GF(5), F5X], ids=["ZZ", "GF5", "F5X"])
def test_block_matrix_matches_a_zero_filled_dense_assembly(ring):
    rng = random.Random(f"blocks:{ring.kind}")
    for heights, widths in GRIDS:
        blocks = {(r, s): _random_sparse(rng, ring, h, w, 0.6)
                  for r, h in enumerate(heights) for s, w in enumerate(widths)
                  if rng.random() < 0.6}
        dense = []
        for r, h in enumerate(heights):
            for i in range(h):
                row = []
                for s, w in enumerate(widths):
                    row += blocks[(r, s)].row_list()[i] if (r, s) in blocks else [ring.zero] * w
                dense.append(row)
        want = Matrix.from_rows(ring, dense) if dense else Matrix.zeros(ring, 0, sum(widths))
        got = block_matrix(ring, heights, widths, blocks)
        assert (got.rows, got.cols) == (sum(heights), sum(widths))
        assert got == want and hash(got) == hash(want)
        assert block_matrix(ring, heights, widths, dict(reversed(blocks.items()))) == want
        # every block given: the grid is the stacks of its rows
        full = {(r, s): _random_sparse(rng, ring, h, w, 0.6)
                for r, h in enumerate(heights) for s, w in enumerate(widths)}
        if heights and widths:
            assert block_matrix(ring, heights, widths, full) == vstack(
                [hstack([full[(r, s)] for s in range(len(widths))]) for r in range(len(heights))])
        # a diagonal grid is block_diag, one row of blocks hstack, one column vstack
        mats = [_random_sparse(rng, ring, h, w, 0.6) for h, w in zip(heights, widths)]
        if mats:
            diagonal = {(t, t): m for t, m in enumerate(mats)}
            assert block_matrix(ring, [m.rows for m in mats], [m.cols for m in mats],
                                diagonal) == block_diag(ring, mats)
            row = [_random_sparse(rng, ring, 2, w, 0.6) for w in widths]
            assert block_matrix(ring, [2], widths,
                                {(0, s): m for s, m in enumerate(row)}) == hstack(row)
            col = [_random_sparse(rng, ring, h, 2, 0.6) for h in heights]
            assert block_matrix(ring, heights, [2],
                                {(r, 0): m for r, m in enumerate(col)}) == vstack(col)


def test_block_matrix_names_a_block_of_the_wrong_size():
    with pytest.raises(ShapeError, match=r"block \(1, 0\) is 2x2 over integers, not 1x2"):
        block_matrix(ZZ, [2, 1], [2], {(0, 0): M([[1, 0], [0, 1]]), (1, 0): M([[1, 2], [3, 4]])})
    with pytest.raises(ShapeError, match=r"block \(0, 1\) is 1x1 over integers, not 1x0"):
        block_matrix(ZZ, [1], [1, 0], {(0, 1): M([[1]])})
    with pytest.raises(ShapeError, match=r"block \(0, 0\) is 1x1 over prime-field"):
        block_matrix(ZZ, [1], [1], {(0, 0): M([[1]], GF(5))})


# -- invariant factors without U and V -------------------------------------------

def _nonzero_diagonal(ring, d):
    return tuple(x for x in d.diagonal() if not ring.is_zero(x))


# units and non-units as callers pass them: GF(7) ones unreduced (8 is 1, -1 is 6)
UNITS = {"integers": [1, -1], "prime-field": [1, 3, 8, -1],
         "rationals": [Fraction(1), Fraction(-2, 3), Fraction(5)],
         "polynomials-over": [(1,), (3,), (4,)]}
NON_UNITS = {"integers": [2, -4, 6], "prime-field": [], "rationals": [],
             "polynomials-over": [(0, 1), (1, 1), (0, 0, 1)]}  # x, x + 1, x^2


def _partial_permutation(rng, ring, n, m):
    """Units at (i, pi(i)) for some rows i, every other entry zero."""
    rows = [[ring.zero] * m for _ in range(n)]
    k = rng.randint(0, min(n, m))
    for i, j in zip(rng.sample(range(n), k), rng.sample(range(m), k)):
        rows[i][j] = rng.choice(UNITS[ring.kind])
    return Matrix.from_rows(ring, rows)


def _chain(rng, ring, n, diagonal):
    """Upper bidiagonal: only row n - 1 is lone at first, each peel frees the next."""
    rows = [[ring.zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = diagonal[i]
        if i + 1 < n:
            rows[i][i + 1] = rng.choice(UNITS[ring.kind] + NON_UNITS[ring.kind])
    return Matrix.from_rows(ring, rows)


def _peeling_cases(rng, ring):
    """(matrix, True when every nonzero entry peels) for the lone-unit pass."""
    units, non_units = UNITS[ring.kind], NON_UNITS[ring.kind]
    pick = lambda: rng.choice(units)
    cases = [(Matrix.zeros(ring, n, m), True) for n, m in [(0, 0), (0, 3), (3, 0), (3, 4)]]
    for n, m in [(1, 1), (4, 4), (5, 3), (3, 6), (8, 8), (9, 2)]:
        for _ in range(3):
            P = _partial_permutation(rng, ring, n, m)
            cases += [(P, True), (P.transpose(), True)]
    for n in (2, 3, 6):
        C = _chain(rng, ring, n, [pick() for _ in range(n)])
        cases += [(C, True), (C.transpose(), True)]
        # below a full row, each peel of the lower chain leaves only a row lone
        # (and beside a full column, only a column)
        full = Matrix.from_rows(ring, [[rng.choice(units + non_units) for _ in range(n)]])
        cases += [(vstack([C.transpose(), full]), True), (hstack([C, full.transpose()]), True)]
    for x in non_units:
        # lone non-units stay: alone, beside each other, and between peeled units
        cases += [(Matrix.from_rows(ring, [[x]]), False),
                  (Matrix.from_rows(ring, [[x, ring.zero], [ring.zero, ring.add(x, ring.one)]]), False),
                  (Matrix.from_rows(ring, [[pick(), x], [ring.zero, x]]), False),
                  (_chain(rng, ring, 5, [pick(), pick(), x, pick(), pick()]), False)]
    for _ in range(4):
        # a unit alone in its row over a dense column, and in its column over a dense row
        D = _random_matrix(rng, ring, 3, 4)
        u = Matrix.from_rows(ring, [[pick()] + [ring.zero] * 4])
        below = hstack([_random_matrix(rng, ring, 3, 1), D])
        cases += [(vstack([u, below]), False), (vstack([u, below]).transpose(), False),
                  (block_diag(ring, [_partial_permutation(rng, ring, 3, 3), D]), False)]
    if ring.kind == "prime-field":
        cases += [(Matrix(ring, 2, 3, [8, 14, 0, 0, 7, 13]), True),
                  (Matrix(ring, 3, 3, [14, 8, 0, 15, 7, 21, 0, 0, -6]), True),
                  (Matrix(ring, 2, 2, [8, 15, 22, 29]), False)]
    return cases


@pytest.mark.parametrize("ring", [ZZ, GF(7), QQ, F5X], ids=["ZZ", "GF7", "QQ", "F5X"])
def test_invariant_factors_match_smith_diagonal(ring, monkeypatch):
    rng = random.Random(f"factors:{ring.kind}")
    cases = [Matrix.from_rows(r, a) for r, a, *_ in GOLDEN if r == ring]
    cases += [_random_matrix(rng, ring, rng.randint(0, 6), rng.randint(0, 6)) for _ in range(60)]
    cases += [_random_sparse(rng, ring, rng.randint(1, 8), rng.randint(1, 8), 0.3)
              for _ in range(30)]
    peeling = _peeling_cases(rng, ring)
    cases += [A for A, _ in peeling]

    # a matrix whose nonzeros all peel leaves no nonzero entry to eliminate
    eliminate, remainders = matrix._eliminate, []

    def recorded(A, full):
        remainders.append(A.is_zero())
        return eliminate(A, full)

    monkeypatch.setattr(matrix, "_eliminate", recorded)
    for A, peels in peeling:
        invariant_factors(Matrix(ring, A.rows, A.cols, A.entries))
        assert remainders[-1] == peels
    monkeypatch.undo()

    for A in cases:
        expected = _nonzero_diagonal(ring, smith(Matrix(ring, A.rows, A.cols, A.entries)))
        # before any decomposition is cached: the elimination without U and V
        assert invariant_factors(A) == expected
        assert rank(A) == len(expected)
        # after the full decomposition is cached, the factors are read from it
        assert _nonzero_diagonal(ring, smith(A)) == expected
        assert invariant_factors(A) == expected
        B = Matrix(ring, A.rows, A.cols, A.entries)
        smith(B)
        assert invariant_factors(B) == expected


@pytest.mark.parametrize("ring", [ZZ, GF(7), QQ, F5X], ids=["ZZ", "GF7", "QQ", "F5X"])
def test_signed_partial_permutations_peel_in_one_pass(ring, monkeypatch):
    # each row at most one unit and no column used twice: every nonzero peels
    # with no column index; a unit sharing its column, or a non-unit, goes
    # through the index; either way the factors are the Smith diagonal
    rng = random.Random(f"permutations:{ring.kind}")
    zero, unit = ring.zero, lambda: rng.choice(UNITS[ring.kind])
    one_pass = [Matrix.zeros(ring, n, m) for n, m in [(0, 4), (4, 0), (0, 0), (3, 3)]]
    for n, m in [(1, 1), (5, 5), (3, 7), (7, 3)]:
        one_pass += [_partial_permutation(rng, ring, n, m) for _ in range(3)]
    perm = rng.sample(range(6), 6)
    one_pass.append(Matrix.from_rows(ring, [[unit() if j == perm[i] else zero for j in range(6)]
                                            for i in range(6)]))
    misses = [Matrix.from_rows(ring, [[unit(), zero], [zero, zero], [unit(), zero],
                                      [zero, unit()]])]
    misses += [Matrix.from_rows(ring, [[zero, x, zero], [zero, zero, zero], [unit(), zero, zero]])
               for x in NON_UNITS[ring.kind]]

    def no_index(*args):
        raise AssertionError("column index built")

    monkeypatch.setattr(matrix, "Counter", no_index)
    for A in one_pass:
        peeled, rest = matrix._peel(A)
        assert (rest.rows, rest.cols) == (0, 0)
        assert invariant_factors(A) == (ring.one,) * peeled
    for A in misses:
        with pytest.raises(AssertionError, match="column index"):
            matrix._peel(A)
    monkeypatch.undo()
    for A in one_pass + misses:
        expected = _nonzero_diagonal(ring, smith(Matrix(ring, A.rows, A.cols, A.entries)))
        assert invariant_factors(A) == expected


@pytest.mark.parametrize("ring", [ZZ, GF(7), QQ, F5X], ids=["ZZ", "GF7", "QQ", "F5X"])
def test_random_unimodular_carries_its_inverse(ring):
    rng = random.Random(f"unimodular:{ring.kind}")
    for n in range(7):
        for _ in range(4):
            U, U_inv = random_unimodular(rng, ring, n)
            assert U_inv == solve(U, Matrix.identity(ring, n))
            assert U @ U_inv == Matrix.identity(ring, n)


def test_smith_verify_refuses_each_broken_claim():
    I = Matrix.identity(ZZ, 2)
    zero = Matrix.zeros(ZZ, 2, 2)
    S = M([[2, 0], [0, 6]])
    assert SmithDecomposition(ZZ, I, S, I).verify(S)
    cases = [
        (SmithDecomposition(ZZ, I, M([[2, 0], [0, 12]]), I), S),  # U A V is not S
        (SmithDecomposition(ZZ, M([[2, 0], [0, 1]]), zero, I), zero),  # U not invertible
        (SmithDecomposition(ZZ, I, zero, M([[1, 0], [0, 2]])), zero),  # V not invertible
    ]
    # S = A with U = V = 1: a zero before a nonzero, 2 not dividing 3, and an
    # entry off the diagonal
    cases += [(SmithDecomposition(ZZ, I, A, I), A)
              for A in (M([[0, 0], [0, 1]]), M([[2, 0], [0, 3]]), M([[1, 1], [0, 1]]))]
    assert [dec.verify(A) for dec, A in cases] == [False] * 6
