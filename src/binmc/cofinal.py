"""Even-rank complements: making multicomplex ranks even with diagonal padding.

The guiding instance is the inclusion of even-rank free modules into all free
modules over one ring.  The subcategory is closed under direct sums and
extensions, and every free module is a summand of an even-rank one (add at
most one rank), so it is cofinal.  The obstruction to membership is the
rank-parity grid, computed by rel_class: a multicomplex with free objects
lies in the subcategory exactly when rel_class(N).is_zero(), and a module's
complement is the free module of rank gens % 2 (the dimension-0 case of
the complement recursion).

The central construction is complement(N, i): for a valid multicomplex N
with free objects it produces a multicomplex T, diagonal in direction i,
such that every rank of N (+) T is even.  When N is itself diagonal in some
other direction j, T comes out diagonal in both i and j.  The recursion
peels one axis off N, complements the image multicomplexes of the peeled
top differentials (the bottom family's images have the same rank grid), and
reassembles the pieces into a two-layer shift complex whose differential is
the identity block [[0,1],[0,0]] in both families: the identity staircase of
multicomplex.staircase_rows, the same one resolve covers a diagonal axis with.
The input is checked once on entry and the output once on return; the
recursion in between (_complement) checks nothing, not even the parities
pair_complement compares at its own boundary.

diagonal_represent turns a certified sum of diagonal classes into one single
diagonal class, emitting a relation chain (kgroups module) that proves the
equality; verify_chain, not diagonal_represent, checks that chain.  It
refuses a class whose coefficients exceed MAX_COEFFICIENT_SUM.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateError, MembershipRefusal, NotDiagonal, ShapeError
from .extension import split_extension
from .fpmod import FpModule
from .kgroups import (DiagonalStep, FormalClass, RelationChain, SesStep,
                      tn_membership_certificate)
from .multicomplex import (BinaryMulticomplex, common_shape, expand_along,
                           image_multicomplex, layered_sum, pad_to,
                           staircase_rows, validate)
from .rings import ZZ, Ring


@dataclass(frozen=True)
class RelClass:
    """The rank-parity grid of a multicomplex: its class relative to the
    even-rank subcategory.  Addition matches direct sums (ranks add, so
    parities add coordinatewise) and the class vanishes exactly on the
    subcategory."""

    dim: int
    odd_coords: frozenset

    def __add__(self, other: "RelClass") -> "RelClass":
        if other.dim != self.dim:
            raise ShapeError("relative classes of different dimensions cannot be added")
        return RelClass(self.dim, self.odd_coords ^ other.odd_coords)

    def is_zero(self) -> bool:
        return not self.odd_coords


def _require_free_objects(N: BinaryMulticomplex, what: str):
    for c in sorted(N.objects):
        if not N.objects[c].is_free_presentation():
            raise MembershipRefusal(f"{what} needs free objects; the object at {c} is not "
                                    "presented freely")


def rel_class(N: BinaryMulticomplex) -> RelClass:
    """The parity grid of N's ranks, one bit per support coordinate."""
    _require_free_objects(N, "rel_class")
    return RelClass(N.dim, frozenset(c for c, m in N.objects.items() if m.gens % 2 == 1))


# -- the complement construction -----------------------------------------


def _shift_complex(pieces, axis: int, ring: Ring, dim: int) -> BinaryMulticomplex:
    """The identity staircase (multicomplex.staircase_rows) on pieces padded
    to one box: layer m is pieces[m] (+) pieces[m-1], diagonal and exact
    along the new axis."""
    if not pieces:
        return BinaryMulticomplex.zero(ring, dim)
    rest_shape = common_shape(pieces)
    rows, route = staircase_rows([pad_to(p, rest_shape) for p in pieces])
    return layered_sum(rows, route, route, axis)[0]


def _complement(N: BinaryMulticomplex, i: int) -> BinaryMulticomplex:
    """complement(N, i) without its checks: N must be valid and free."""
    if N.dim == 0:
        return BinaryMulticomplex.of_module(FpModule.free(N.ring, N.objects[()].gens % 2))
    if any(s == 0 for s in N.shape):
        return BinaryMulticomplex.zero(N.ring, N.dim)
    # peel a diagonal axis j != i where there is one, so that the slices'
    # complements carry direction i down; else peel i itself.  The bottom
    # family's images have the same rank grid as the top's (each rank is the
    # same alternating sum of the line's ranks), so one complement serves both
    j = min(N.diagonal_directions() - {i}, default=i)
    i_rest = 0 if j == i else (i if i < j else i - 1)
    pieces = [_complement(image_multicomplex(d)[0], i_rest) for d in expand_along(N, j)[1]]
    return _shift_complex(pieces, j, N.ring, N.dim)


def _check_input(N: BinaryMulticomplex):
    """Refuse an input the construction cannot take: non-free or invalid."""
    _require_free_objects(N, "complement")
    validate(N, "free").require("complement needs a valid multicomplex")


def complement(N: BinaryMulticomplex, i: int) -> BinaryMulticomplex:
    """T diagonal in direction i such that every rank of N (+) T is even.

    N must be valid with free objects.  If N is diagonal in some direction
    j != i, the output is diagonal in both i and j.  If N already has all
    ranks even, the output is a zero multicomplex.  N is checked on entry
    and T (validity, diagonality, even ranks) on return; a failure raises.
    """
    if N.dim == 0:
        raise ShapeError("a zero-dimensional multicomplex has no directions to complement")
    if not 0 <= i < N.dim:
        raise ShapeError(f"direction {i} out of range for dimension {N.dim}")
    _check_input(N)
    T = _complement(N, i)
    _check_complement(N, i, T)
    return T


def _check_complement(N: BinaryMulticomplex, i: int, T: BinaryMulticomplex):
    """Check every promise the construction makes; raise on any failure."""
    validate(T, "free").require("constructed complement is invalid")
    if not T.is_diagonal_in(i):
        raise NotDiagonal(f"constructed complement is not diagonal in direction {i}")
    for j in N.diagonal_directions() - {i}:
        if not T.is_diagonal_in(j):
            raise NotDiagonal(f"constructed complement lost the diagonal direction {j}")
    odd = (rel_class(N) + rel_class(T)).odd_coords
    if odd:
        raise MembershipRefusal(f"complement left an odd rank at {min(odd)}")


def pair_complement(N1: BinaryMulticomplex, N2: BinaryMulticomplex) -> BinaryMulticomplex:
    """One multicomplex whose sum with either input has all ranks even.

    Refuses inputs with different relative classes: evenness of both sums
    forces equal parity grids.  When the grids do agree, a complement of the
    first input alone already works for the second, so no correction terms
    are needed.  N1 and the output are checked as in complement.
    """
    if N1.dim:
        _check_input(N1)
    if rel_class(N1) != rel_class(N2):
        raise MembershipRefusal("pair complement needs equal relative classes")
    P = _complement(N1, 0)
    if N1.dim:
        _check_complement(N1, 0, P)
    return P


# -- the diagonal representation -----------------------------------------

# The largest sum of |coefficient| over a class that diagonal_represent
# accepts.  Each unit of coefficient is one summand folded into a running
# direct sum, and every fold step stores that sum, so the chain's nonzeros
# grow about as the square of the sum.  For a class of one dim-1 ZZ entry of
# shape (2,) at coefficient 16, the CLI's chain document is 31 KB with 8
# generators, 54 KB with 16, 104 KB with 32 and 204 KB with 64 (0.4 s CPU,
# 52 MB peak); with 8 generators it is 105 KB at coefficient 32 and 394 KB
# at 64.  The value dates from documents that wrote every cell (611 KB with 8
# generators, 37.0 MB with 64), and is kept.
MAX_COEFFICIENT_SUM = 16


def diagonal_represent(x: FormalClass, witnesses, i: int = None, ring: Ring = ZZ):
    """(t, chain): one diagonal multicomplex representing a certified class.

    x must be certified by tn_membership_certificate(x, witnesses); i is the
    direction t should be diagonal in (default: the first witnessed
    direction).  The emitted RelationChain rewrites x into [t]; verify_chain
    is its check.  Each generator that gets complemented (witnessed in
    j != i, or negative) is checked as complement checks its input.

    Generators witnessed in a direction j != i are first traded for the
    negative of their complement (diagonal in i and j, so the sum with the
    generator is diagonal in j and its class vanishes); the surviving terms
    are folded into one positive and one negative part, and the negative
    part is cancelled against its own complement.  The ring argument only
    matters for the empty class.  A class whose |coefficients| sum to more
    than MAX_COEFFICIENT_SUM is refused with a ShapeError before anything is
    built; the error names the entry, in x.entries() order, that crosses it.
    """
    total = 0
    for k, (_, coeff) in enumerate(x.entries()):
        total += abs(coeff)
        if total > MAX_COEFFICIENT_SUM:
            raise ShapeError(f"class entry {k} (coefficient {coeff}) brings the sum of "
                             f"|coefficients| to {total}, over the cap of {MAX_COEFFICIENT_SUM}")
    cert = tn_membership_certificate(x, witnesses)
    if not cert.ok:
        raise CertificateError(f"class is not certified diagonal: {cert.reason}")
    dim = x.dim
    if i is None:
        i = cert.assignments[0][2] if cert.assignments else 0
    if not 0 <= i < dim:
        raise ShapeError(f"direction {i} out of range for dimension {dim}")
    if x.ring is not None:
        ring = x.ring

    steps = []
    positives, negatives = [], []
    for M, coeff, axis in cert.assignments:
        sign = 1 if coeff > 0 else -1
        if axis == i:
            if sign < 0:
                _check_input(M)  # a summand of the negative part, complemented below
            (positives if sign > 0 else negatives).extend([M] * abs(coeff))
            continue
        # [M] = [M (+) s] - [s] and M (+) s is diagonal in axis, so the
        # term flips sign and its replacement s is diagonal in i
        _check_input(M)
        s = _complement(M, i)
        ext = split_extension(M, s)
        for _ in range(abs(coeff)):
            steps += [SesStep(ext, -sign), DiagonalStep(ext.total, axis, -sign)]
        (negatives if sign > 0 else positives).extend([s] * abs(coeff))

    def fold(parts, sign):
        acc = parts[0]
        for nxt in parts[1:]:
            ext = split_extension(acc, nxt)
            steps.append(SesStep(ext, sign))
            acc = ext.total
        return acc

    u1 = fold(positives, -1) if positives else None
    if negatives:
        u2 = fold(negatives, 1)
        u2c = _complement(u2, i)
        ext = split_extension(u2, u2c)
        steps += [SesStep(ext, 1), DiagonalStep(ext.total, i, 1)]
        t = u2c
        if u1 is not None:
            final = split_extension(u1, u2c)
            steps.append(SesStep(final, -1))
            t = final.total
    elif u1 is not None:
        t = u1
    else:
        t = BinaryMulticomplex.zero(ring, dim)
        steps.append(DiagonalStep(t, i, 1))

    if not t.is_diagonal_in(i):
        raise NotDiagonal(f"representative is not diagonal in direction {i}")
    return t, RelationChain(x, steps, FormalClass.of(t))
