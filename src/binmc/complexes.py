"""Bounded chain complexes of finitely presented modules.

Degrees run 0..length-1 and differentials lower degree by one.  Exactness is
decided on two paths, and both name the lowest degree k with H_k != 0 and
that homology.  A complex of free modules is read off the invariant factors
of its differentials (free_line_homology; exact when it returns None).
Any complex has the acyclicity witness: every differential factored
as epi then mono through its image, with each induced short sequence
verified exact.  describe_homology writes either path's failure.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import RingError, ShapeError
from .fpmod import (FpModule, FpMorphism, check_ses, cokernel,
                    factor_through_mono, image, kernel)
from .matrix import invariant_factors, rank_over_fractions, smith
from .rings import Ring


class ChainComplex:
    """objects[k] in degree k; diffs[k] : objects[k+1] -> objects[k]."""

    __slots__ = ("ring", "objects", "diffs")

    def __init__(self, ring: Ring, objects, diffs, check=True):
        objects = tuple(objects)
        diffs = tuple(diffs)
        if objects and len(diffs) != len(objects) - 1:
            raise ShapeError("need one differential per adjacent pair of degrees")
        if not objects and diffs:
            raise ShapeError("differentials without objects")
        for k, d in enumerate(diffs):
            if d.source != objects[k + 1] or d.target != objects[k]:
                raise ShapeError(f"differential {k} has wrong endpoints")
        self.ring = ring
        self.objects = objects
        self.diffs = diffs
        if check:
            for k in range(len(diffs) - 1):
                if not (diffs[k] @ diffs[k + 1]).is_zero():
                    raise ShapeError(f"d_{k + 1} after d_{k + 2} is not zero")

    @property
    def length(self) -> int:
        return len(self.objects)

    def __eq__(self, other):
        return (isinstance(other, ChainComplex) and other.ring == self.ring
                and other.objects == self.objects
                and tuple(d.mat for d in other.diffs) == tuple(d.mat for d in self.diffs))

    def __repr__(self):
        return f"ChainComplex({self.ring.kind}, gens={[m.gens for m in self.objects]})"

    def is_free(self) -> bool:
        return all(m.is_free_presentation() for m in self.objects)

    @staticmethod
    def empty(ring: Ring) -> "ChainComplex":
        return ChainComplex(ring, (), ())


def homology(C: ChainComplex, k: int) -> FpModule:
    """H_k as a presented module.  Degrees outside the support give zero."""
    if k < 0 or k >= C.length:
        return FpModule.zero(C.ring)
    if k == C.length - 1:
        if k == 0:
            return C.objects[0]
        K, incl = kernel(C.diffs[k - 1])
        return K
    K, incl = (kernel(C.diffs[k - 1]) if k > 0
               else (C.objects[0], FpMorphism.identity(C.objects[0])))
    lifted = factor_through_mono(incl, C.diffs[k])
    if lifted is None:
        raise RingError("differential does not land in the kernel; complex is broken")
    H, _ = cokernel(lifted)
    return H


def homology_by_ranks(C: ChainComplex, k: int):
    """(betti, torsion) for complexes of free modules, by an independent route.

    Betti numbers come from Gaussian elimination over the fraction field
    (n_k - rank d_k - rank d_{k+1}); torsion is read off the non-unit invariant
    factors of the incoming differential's matrix.  Shares nothing with the
    kernel/cokernel machinery above except the raw matrix type.
    """
    if not C.is_free():
        raise RingError("rank-based homology needs free objects")
    if k < 0 or k >= C.length:
        return 0, ()
    n_k = C.objects[k].gens
    r_out = rank_over_fractions(C.diffs[k - 1].mat) if k > 0 else 0
    r_in = rank_over_fractions(C.diffs[k].mat) if k < C.length - 1 else 0
    betti = n_k - r_out - r_in
    torsion = ()
    if k < C.length - 1:
        ring = C.ring
        tors = []
        dec = smith(C.diffs[k].mat)
        for d in dec.diagonal():
            if not ring.is_zero(d) and not ring.is_unit(d):
                tors.append(d)
        torsion = tuple(tors)
    return betti, torsion


def free_line_homology(C: ChainComplex):
    """(k, free rank, torsion) of H_k at the lowest degree k where it is nonzero,
    or None when the complex is exact.  Needs free objects.

    Precondition: consecutive differentials compose to zero (the
    constructor's check, or the composite check in validate).  Over a PID the
    free rank of H_k is n_k - rank d_k - rank d_{k+1}, with d_k = diffs[k-1]
    leaving degree k, d_{k+1} = diffs[k] entering it, and out-of-range
    differentials of rank 0.  The cycles of degree k are saturated in the
    free object, so the torsion of H_k is the tuple of non-unit invariant
    factors of d_{k+1}.  Reads the cached invariant factors of each
    differential, which need no U or V, and stops at the first bad degree.
    """
    if not C.is_free():
        raise RingError("the rank certificate needs free objects")
    is_unit = C.ring.is_unit
    rank_out = 0
    for k, m in enumerate(C.objects):
        factors = invariant_factors(C.diffs[k].mat) if k < len(C.diffs) else ()
        free = m.gens - rank_out - len(factors)
        torsion = tuple(d for d in factors if not is_unit(d))
        if free or torsion:
            return k, free, torsion
        rank_out = len(factors)
    return None


def describe_homology(k: int, free: int, torsion) -> str:
    return f"homology at degree {k}: free rank {free}, torsion {list(torsion)}"


@dataclass(frozen=True)
class AcyclicityWitness:
    """Factorizations d_k = mono_k after epi_k through cycle objects.

    cycles[j] is Z_{j-1} for j in 0..length, so cycles[0] and cycles[-1] are
    zero; epis[k] : N_k ->> Z_{k-1} and monos[k] : Z_k >-> N_k give the short
    exact sequences Z_k >-> N_k ->> Z_{k-1} at every degree.
    """

    complex: ChainComplex
    cycles: tuple
    epis: tuple
    monos: tuple

    def verify(self) -> bool:
        C = self.complex
        L = C.length
        if len(self.cycles) != L + 1 or len(self.epis) != L or len(self.monos) != L:
            return False
        if not self.cycles[0].is_zero_module() or not self.cycles[L].is_zero_module():
            return False
        for k in range(L):
            epi, mono = self.epis[k], self.monos[k]
            if epi.source != C.objects[k] or epi.target != self.cycles[k]:
                return False
            if mono.source != self.cycles[k + 1] or mono.target != C.objects[k]:
                return False
            if k + 1 < L:
                # mono_k after epi_{k+1} must recover d_{k+1}
                if not (mono @ self.epis[k + 1]).equals(C.diffs[k]):
                    return False
            if not check_ses(mono, epi).ok:
                return False
        return True


@dataclass(frozen=True)
class WitnessOutcome:
    ok: bool
    witness: Optional[AcyclicityWitness] = None
    failing_degree: Optional[int] = None
    obstruction: Optional[FpModule] = None

    def describe(self) -> str:
        if self.ok:
            return "acyclic"
        return describe_homology(self.failing_degree, *self.obstruction.canonical())


def acyclicity_witness(C: ChainComplex) -> WitnessOutcome:
    """Factor every differential through fpmod.image and verify the short sequences.

    Works for any presentations; validate runs it on lines with a non-free
    object.  A failure carries the lowest degree with nonzero homology and
    that homology.
    """
    L = C.length
    zero = FpModule.zero(C.ring)
    if L == 0:
        return WitnessOutcome(True, AcyclicityWitness(C, (zero,), (), ()))
    cycles = [zero] * (L + 1)
    epis: list = [None] * L
    monos: list = [None] * L
    for k in range(1, L):
        cycles[k], monos[k - 1], epis[k] = image(C.diffs[k - 1])
    epis[0] = FpMorphism.zero(C.objects[0], zero)
    monos[L - 1] = FpMorphism.zero(zero, C.objects[L - 1])
    for k in range(L):
        if not check_ses(monos[k], epis[k]).ok:
            return WitnessOutcome(False, None, k, homology(C, k))
    return WitnessOutcome(True, AcyclicityWitness(C, tuple(cycles), tuple(epis), tuple(monos)))
