"""Formal classes of acyclic binary multicomplexes and checkable relation chains.

The group of interest is presented by one generator [M] for every valid
bounded acyclic binary multicomplex M of a fixed dimension, modulo two
families of relations: [N] = [N'] + [N''] for every short exact sequence
N' >-> N ->> N'', and [T] = 0 whenever T is diagonal in some direction.
This module makes the presentation executable:

  * FormalClass   - a signed formal sum of concrete multicomplexes, merged
                    in one pass by its constructor and by nothing else,
  * RelationChain - a finite sequence of relation applications rewriting one
                    class into another, each step carrying its own witness,
  * verify_chain  - replays the whole computation from scratch, re-validating
                    every referenced multicomplex and every witness, and
                    sums the start class and the steps' deltas once.

No attempt is made to *decide* equality in the presented group (the relation
quotient has no effective normal form); only supplied chains are checked.

For one-dimensional complexes with free objects the torsion invariant
refines the class: tau(M) is a unit of the ring, equal to 1 on every
diagonal complex, multiplicative over direct sums, and therefore constant
along chains built from split sequences and diagonal steps.  The orientation
convention is fixed once: the contraction is solved from degree 0 upward and
the determinant is taken on the odd-to-even block map with degrees ascending,
so the two-term complex with top differential 1 and bottom differential u
has torsion u^{-1}.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import NotAcyclic, ShapeError
from .extension import ExtensionObject
from .matrix import Matrix, block_matrix, det, solve
from .multicomplex import BinaryMulticomplex, MultiMorphism, validate


class FormalClass:
    """Signed formal sum of acyclic binary multicomplexes of one dimension.

    FormalClass(dim, terms) is the one merge: one pass over (multicomplex,
    coefficient) terms, keyed by canonical_key, so representatives that differ
    only by a translation of the support box (or by trailing zero padding)
    make one entry, represented by the term that opened it.  Zero sums are
    dropped.  A term of another dimension, or a nonzero one over another ring
    than the entries kept so far, raises ShapeError, as adding the terms one
    at a time would.  ring is that of the kept entries, None when none is.
    """

    __slots__ = ("dim", "ring", "_entries")

    def __init__(self, dim: int, terms=()):
        entries, ring = {}, None
        for M, c in terms:
            if M.dim != dim:
                raise ShapeError("formal class mixes dimensions")
            if c == 0:
                continue
            if entries and M.ring != ring:
                raise ShapeError("formal class mixes coefficient rings")
            ring, key = M.ring, M.canonical_key()
            N, total = entries.pop(key, (M, 0))
            if total + c:
                entries[key] = (N, total + c)
        self.dim, self.ring, self._entries = dim, ring if entries else None, entries

    @staticmethod
    def of(M: BinaryMulticomplex, coeff: int = 1) -> "FormalClass":
        return FormalClass(M.dim, [(M, coeff)])

    @staticmethod
    def zero(dim: int) -> "FormalClass":
        return FormalClass(dim)

    def entries(self):
        """(multicomplex, coefficient) pairs in a deterministic order."""
        return [self._entries[k] for k in sorted(self._entries)]

    def coefficient(self, M: BinaryMulticomplex) -> int:
        entry = self._entries.get(M.canonical_key())
        return entry[1] if entry else 0

    def members(self):
        return [M for M, _ in self.entries()]

    def __add__(self, other: "FormalClass") -> "FormalClass":
        if other.dim != self.dim:
            raise ShapeError("formal class mixes dimensions")
        return FormalClass(self.dim, [*self._entries.values(), *other._entries.values()])

    def __neg__(self) -> "FormalClass":
        return FormalClass(self.dim, [(M, -c) for M, c in self._entries.values()])

    def __sub__(self, other: "FormalClass") -> "FormalClass":
        return self + (-other)

    def is_zero(self) -> bool:
        return not self._entries

    def __eq__(self, other):
        return (isinstance(other, FormalClass) and other.dim == self.dim
                and set(other._entries) == set(self._entries) and other.ring == self.ring
                and all(other._entries[k][1] == self._entries[k][1]
                        for k in self._entries))

    def __repr__(self):
        n = len(self._entries)
        return f"FormalClass(dim={self.dim}, terms={n})"


class SesStep:
    """One application of the relation [sub] + [quot] = [total].

    With sign +1 the step adds [sub] + [quot] - [total] to the running class;
    with sign -1 it subtracts the same, i.e. trades [sub] + [quot] for
    [total].  The payload is a full extension object and is re-verified
    coordinate by coordinate when the chain is checked.
    """

    kind = "ses"
    __slots__ = ("ext", "sign")

    def __init__(self, ext: ExtensionObject, sign: int = 1):
        if sign not in (1, -1):
            raise ShapeError("step sign must be +1 or -1")
        self.ext = ext
        self.sign = sign

    def referenced(self):
        return self.ext.members()

    def class_delta(self) -> FormalClass:
        E, s = self.ext, self.sign
        return FormalClass(E.sub.dim, [(E.sub, s), (E.quot, s), (E.total, -s)])

    def check_payload(self) -> Optional[str]:
        failure = self.ext.verify()
        if failure is None:
            return None
        return f"extension witness fails ({failure.kind} at {failure.coord}): {failure.detail}"


class DiagonalStep:
    """One application of the relation [member] = 0 for a diagonal member.

    With sign +1 the step adds [member]; with sign -1 it removes it.  The
    payload is the direction in which the member is claimed diagonal, and the
    claim is re-checked differential by differential.
    """

    kind = "diagonal"
    __slots__ = ("member", "axis", "sign")

    def __init__(self, member: BinaryMulticomplex, axis: int, sign: int = 1):
        if sign not in (1, -1):
            raise ShapeError("step sign must be +1 or -1")
        self.member = member
        self.axis = axis
        self.sign = sign

    def referenced(self):
        return (self.member,)

    def class_delta(self) -> FormalClass:
        return FormalClass.of(self.member, self.sign)

    def check_payload(self) -> Optional[str]:
        if not 0 <= self.axis < self.member.dim:
            return f"diagonal axis {self.axis} out of range for dimension {self.member.dim}"
        if not self.member.is_diagonal_in(self.axis):
            return f"member is not diagonal in axis {self.axis}"
        return None


class IsoStep:
    """Trade [source] for [target] along an explicit isomorphism pair.

    The witness is a pair of morphisms (forward, backward) whose composites
    are the identity in both orders; both must also commute with both
    differential families.  With sign +1 the step adds [target] - [source].
    """

    kind = "iso"
    __slots__ = ("forward", "backward", "sign")

    def __init__(self, forward: MultiMorphism, backward: MultiMorphism, sign: int = 1):
        if sign not in (1, -1):
            raise ShapeError("step sign must be +1 or -1")
        self.forward = forward
        self.backward = backward
        self.sign = sign

    def referenced(self):
        return (self.forward.source, self.forward.target)

    def class_delta(self) -> FormalClass:
        f, s = self.forward, self.sign
        return FormalClass(f.target.dim, [(f.target, s), (f.source, -s)])

    def check_payload(self) -> Optional[str]:
        f, g = self.forward, self.backward
        if g.source != f.target or g.target != f.source:
            return "isomorphism witness pair has mismatched endpoints"
        if not f.commutes():
            return "forward map does not commute with the differentials"
        if not g.commutes():
            return "backward map does not commute with the differentials"
        if not (g @ f).equals(MultiMorphism.identity(f.source)):
            return "backward o forward is not the identity"
        if not (f @ g).equals(MultiMorphism.identity(f.target)):
            return "forward o backward is not the identity"
        return None


class RelationChain:
    """A checkable rewrite of ``start`` into ``end`` through relation steps."""

    __slots__ = ("start", "steps", "end")

    def __init__(self, start: FormalClass, steps, end: FormalClass):
        self.start = start
        self.steps = list(steps)
        self.end = end

    def __repr__(self):
        return f"RelationChain(steps={len(self.steps)})"


@dataclass(frozen=True)
class ChainReport:
    ok: bool
    step: Optional[int] = None  # failing step index, None for a global failure
    reason: str = ""


def verify_chain(chain: RelationChain) -> ChainReport:
    """Replay a relation chain with every object and witness re-checked.

    The check is deliberately redundant: every distinct multicomplex that the
    chain touches (in the endpoints or inside a step payload) must share one
    dimension and ring and is validated, every step payload is re-verified
    from scratch, and the start class plus every step's delta is summed once,
    after the last step, and compared against the declared end class.
    """
    if chain.end.dim != chain.start.dim:
        return ChainReport(False, None, "start and end classes have different dimensions")
    ring = chain.start.ring if chain.start.ring is not None else chain.end.ring
    if chain.end.ring not in (None, ring):
        return ChainReport(False, None, "start and end classes have different rings")

    seen = set()

    def check_member(M, where):
        key = (M.ring, M.canonical_key())
        if key in seen:
            return None
        report = validate(M)
        if not report.ok:
            return ChainReport(False, where,
                               f"referenced multicomplex is invalid: {report.first()}")
        seen.add(key)
        return None

    for M in chain.start.members() + chain.end.members():
        bad = check_member(M, None)
        if bad:
            return bad

    terms = list(chain.start._entries.values())
    for i, step in enumerate(chain.steps):
        for M in step.referenced():
            if M.dim != chain.start.dim:
                return ChainReport(False, i, "step references the wrong dimension")
            ring = M.ring if ring is None else ring  # set here if both end classes are empty
            if M.ring != ring:
                return ChainReport(False, i, "step references the wrong ring")
            bad = check_member(M, i)
            if bad:
                return bad
        problem = step.check_payload()
        if problem is not None:
            return ChainReport(False, i, problem)
        terms += step.class_delta()._entries.values()

    if FormalClass(chain.start.dim, terms) != chain.end:
        return ChainReport(False, None, "rewriting bookkeeping does not reach the declared end class")
    return ChainReport(True)


# -- torsion ------------------------------------------------------------


def _chain_contraction(ring, dims, diffs):
    """s_k with d_{k+1} s_k + s_{k-1} d_k = id_k, solved from degree 0 up.

    dims[k] is the rank of the degree-k term, diffs[k] the matrix of
    d_{k+1}: N_{k+1} -> N_k (so diffs has one entry fewer than dims).
    Acyclicity makes every solve succeed and forces the top identity
    s_{L-2} d_{L-1} = id automatically; a failed solve reports non-exactness.
    """
    L = len(dims)
    contraction = []
    prev = None  # s_{k-1} d_k summand, as a matrix on N_k
    for k in range(L - 1):
        rhs = Matrix.identity(ring, dims[k])
        if prev is not None:
            rhs = rhs - prev
        s = solve(diffs[k], rhs)
        if s is None:
            raise NotAcyclic(f"no chain contraction at degree {k}: the line is not exact")
        contraction.append(s)
        prev = s @ diffs[k]  # s_k d_{k+1} on N_{k+1}
    return contraction


def _torsion_determinant(ring, dims, diffs):
    """det(d + s: N_odd -> N_even), blocks in ascending degree order: N_o is
    block column o // 2, and N_{o-1} and N_{o+1} are block rows o // 2 and
    o // 2 + 1."""
    L = len(dims)
    if sum(dims[1::2]) != sum(dims[0::2]):
        raise NotAcyclic("odd and even ranks differ; the complex cannot be acyclic")
    contraction = _chain_contraction(ring, dims, diffs)
    blocks = {}
    for o in range(1, L, 2):
        blocks[(o // 2, o // 2)] = diffs[o - 1]  # d_o : N_o -> N_{o-1}
        if o + 1 < L:
            blocks[(o // 2 + 1, o // 2)] = contraction[o]  # s_o : N_o -> N_{o+1}
    return det(block_matrix(ring, dims[0::2], dims[1::2], blocks))


def torsion(M: BinaryMulticomplex):
    """The unit tau(top) * tau(bottom)^{-1} of a one-dimensional complex.

    Requires free objects and validity (both differentials acyclic).  Each
    family's torsion is the determinant of d + s on the odd-to-even block
    map for the deterministic contraction solved from degree 0 upward; the
    returned value is their ratio.  A diagonal complex gives 1, and the
    two-term complex with top 1 and bottom u gives u^{-1}.
    """
    if M.dim != 1:
        raise ShapeError("torsion is defined for one-dimensional complexes")
    validate(M, "free").require("torsion needs a valid complex of free modules")
    ring = M.ring
    L = M.shape[0]
    if L == 0:
        return ring.one
    dims = [M.objects[(k,)].gens for k in range(L)]
    tops = [M.tops[(0, (k,))].mat for k in range(1, L)]
    bots = [M.bots[(0, (k,))].mat for k in range(1, L)]
    tau_top = _torsion_determinant(ring, dims, tops)
    tau_bot = _torsion_determinant(ring, dims, bots)
    if not ring.is_unit(tau_top) or not ring.is_unit(tau_bot):
        raise NotAcyclic("torsion determinant is not a unit")
    return ring.mul(tau_top, ring.unit_inverse(tau_bot))


def class_torsion(x: FormalClass, ring=None):
    """Summandwise torsion of a one-dimensional formal class.

    The product of torsion(M)^c over the entries (M, c).  Because torsion is
    multiplicative over direct sums and 1 on diagonal complexes, this value
    is constant along relation chains built from split sequences and diagonal
    steps.  The ring argument is only needed for the empty class.
    """
    if x.dim != 1:
        raise ShapeError("class torsion is defined for one-dimensional classes")
    ring = x.ring if x.ring is not None else ring
    if ring is None:
        raise ShapeError("empty class needs an explicit ring for its torsion")
    value = ring.one
    for M, c in x.entries():
        t = torsion(M)
        if c < 0:
            t, c = ring.unit_inverse(t), -c
        for _ in range(c):
            value = ring.mul(value, t)
    return value


# -- membership in the diagonal subgroup --------------------------------


@dataclass(frozen=True)
class MembershipCertificate:
    ok: bool
    assignments: tuple  # (multicomplex, coefficient, axis) per class entry
    reason: str = ""


def tn_membership_certificate(x: FormalClass, witnesses) -> MembershipCertificate:
    """Check that every term of x is diagonal in its witnessed direction.

    witnesses is one axis per entry of x.entries(), in that order.  The
    certificate succeeds exactly when each cited generator really is diagonal
    in its assigned axis, which presents x as a signed sum of diagonal
    generators.
    """
    terms = x.entries()
    witnesses = list(witnesses)
    if len(witnesses) != len(terms):
        return MembershipCertificate(False, (),
                                     f"expected {len(terms)} direction witnesses, got {len(witnesses)}")
    assignments = []
    for (M, c), axis in zip(terms, witnesses):
        if not isinstance(axis, int) or not 0 <= axis < x.dim:
            return MembershipCertificate(False, (),
                                         f"direction {axis!r} is out of range for dimension {x.dim}")
        if not M.is_diagonal_in(axis):
            return MembershipCertificate(False, (),
                                         f"a generator with coefficient {c} is not diagonal in axis {axis}")
        assignments.append((M, c, axis))
    return MembershipCertificate(True, tuple(assignments))
