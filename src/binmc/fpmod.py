"""Finitely presented modules and their morphisms, with exact kernels and cokernels.

A module is coker(rels: R^r -> R^g), stored as the relations matrix.  A
morphism M -> N is a gens(N) x gens(M) matrix on generators; construction
verifies that relations are sent into relations, so every FpMorphism in the
wild is honestly well defined.  Kernels, images and cokernels come from
preimage-lattice computations over the Smith machinery and return presented
modules together with witness morphisms.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import IllDefinedMorphism, ShapeError
from .matrix import (Matrix, _smith_ext, _solve_prepared, block_diag, block_matrix,
                     column_space_basis, hstack, invariant_factors, kernel_basis,
                     rank, solve)
from .rings import Ring


class FpModule:
    __slots__ = ("ring", "gens", "rels", "_snf", "_canon")

    def __init__(self, ring: Ring, gens: int, rels: Matrix):
        if rels.ring != ring or rels.rows != gens:
            raise ShapeError("relations matrix must have one row per generator")
        self.ring = ring
        self.gens = gens
        self.rels = rels
        self._snf = None
        self._canon = None

    @staticmethod
    def free(ring: Ring, rank: int) -> "FpModule":
        return FpModule(ring, rank, Matrix.zeros(ring, rank, 0))

    @staticmethod
    def zero(ring: Ring) -> "FpModule":
        return FpModule.free(ring, 0)

    def is_free_presentation(self) -> bool:
        return self.rels.cols == 0

    def _rels_snf(self):
        if self._snf is None:
            self._snf = _smith_ext(self.rels)
        return self._snf

    def canonical(self):
        """(free_rank, torsion) - a complete isomorphism invariant.

        torsion is the tuple of non-unit nonzero invariant factors of the
        relations matrix, canonical associates in divisibility order.
        """
        if self._canon is None:
            factors = invariant_factors(self.rels)
            is_unit = self.ring.is_unit
            self._canon = (self.gens - len(factors),
                           tuple(d for d in factors if not is_unit(d)))
        return self._canon

    def is_zero_module(self) -> bool:
        return self.canonical() == (0, ())

    def free_rank(self) -> int:
        return self.canonical()[0]

    def is_isomorphic(self, other: "FpModule") -> bool:
        return self.ring == other.ring and self.canonical() == other.canonical()

    def __eq__(self, other):
        return other is self or (isinstance(other, FpModule) and other.ring == self.ring
                                 and other.gens == self.gens and other.rels == self.rels)

    def __hash__(self):
        return hash((self.gens, self.rels))

    def __repr__(self):
        free, tors = self.canonical()
        return f"FpModule({self.ring.kind}, gens={self.gens}, free={free}, torsion={list(tors)})"

    def solve_mod_rels(self, B: Matrix):
        """X with rels @ X == B, or None; the cached decomposition makes this cheap."""
        if self.rels.cols == 0:
            return Matrix.zeros(self.ring, 0, B.cols) if B.is_zero() else None
        return _solve_prepared(self.ring, *self._rels_snf(), B)


def direct_sum_modules(mods) -> FpModule:
    mods = list(mods)
    if not mods:
        raise ShapeError("direct sum of nothing")
    ring = mods[0].ring
    return FpModule(ring, sum(m.gens for m in mods),
                    block_diag(ring, [m.rels for m in mods]))


class FpMorphism:
    __slots__ = ("source", "target", "mat")

    def __init__(self, source: FpModule, target: FpModule, mat: Matrix, _trusted=False):
        if mat.rows != target.gens or mat.cols != source.gens:
            raise ShapeError(
                f"morphism matrix must be {target.gens}x{source.gens}, got {mat.rows}x{mat.cols}")
        if source.ring != target.ring or mat.ring != source.ring:
            raise ShapeError("ring mismatch in morphism")
        self.source = source
        self.target = target
        self.mat = mat
        if not _trusted and not self._well_defined():
            raise IllDefinedMorphism("matrix does not send relations into relations")

    def _well_defined(self) -> bool:
        if self.source.rels.cols == 0:
            return True
        image_of_rels = self.mat @ self.source.rels
        return self.target.solve_mod_rels(image_of_rels) is not None

    @staticmethod
    def identity(M: FpModule) -> "FpMorphism":
        return FpMorphism(M, M, Matrix.identity(M.ring, M.gens), _trusted=True)

    @staticmethod
    def zero(source: FpModule, target: FpModule) -> "FpMorphism":
        return FpMorphism(source, target,
                          Matrix.zeros(source.ring, target.gens, source.gens), _trusted=True)

    def __matmul__(self, other: "FpMorphism") -> "FpMorphism":
        """Composition self after other."""
        if other.target != self.source:
            raise ShapeError("composition endpoint mismatch")
        return FpMorphism(other.source, self.target, self.mat @ other.mat, _trusted=True)

    def __add__(self, other: "FpMorphism") -> "FpMorphism":
        if other.source != self.source or other.target != self.target:
            raise ShapeError("sum endpoint mismatch")
        return FpMorphism(self.source, self.target, self.mat + other.mat, _trusted=True)

    def __neg__(self) -> "FpMorphism":
        return FpMorphism(self.source, self.target, -self.mat, _trusted=True)

    def __sub__(self, other: "FpMorphism") -> "FpMorphism":
        return self + (-other)

    def scale(self, c) -> "FpMorphism":
        return FpMorphism(self.source, self.target, self.mat.scale(c), _trusted=True)

    def equals(self, other: "FpMorphism") -> bool:
        """Equality as morphisms, i.e. matrices agree modulo target relations."""
        if other.source != self.source or other.target != self.target:
            return False
        return (self.mat == other.mat
                or self.target.solve_mod_rels(self.mat - other.mat) is not None)

    def is_zero(self) -> bool:
        return self.target.solve_mod_rels(self.mat) is not None

    def __repr__(self):
        return f"FpMorphism({self.source!r} -> {self.target!r})"


def hsum(morphisms) -> FpMorphism:
    """[f1 ... fk] : S1 + ... + Sk -> common target."""
    morphisms = list(morphisms)
    target = morphisms[0].target
    for f in morphisms:
        if f.target != target:
            raise ShapeError("hsum needs a common target")
    src = direct_sum_modules([f.source for f in morphisms])
    return FpMorphism(src, target, hstack([f.mat for f in morphisms]), _trusted=True)


def direct_sum_morphisms(morphisms) -> FpMorphism:
    morphisms = list(morphisms)
    src = direct_sum_modules([f.source for f in morphisms])
    tgt = direct_sum_modules([f.target for f in morphisms])
    ring = src.ring
    return FpMorphism(src, tgt, block_diag(ring, [f.mat for f in morphisms]), _trusted=True)


def _preimage_lattice(F: Matrix, B: Matrix) -> Matrix:
    """Basis of {x : F x lies in the column span of B}, as columns.

    F is h x g, B is h x b; the result is g x r.  Computed from the kernel of
    [F B]: projecting a kernel basis to the first g coordinates spans the
    lattice, and a column-space basis of that projection is canonical.
    """
    g = F.cols
    K = kernel_basis(hstack([F, B]) if B.cols else F)
    G = K.submatrix(0, g, 0, K.cols)
    return column_space_basis(G)


def kernel(f: FpMorphism):
    """(K, incl) with incl : K -> source the kernel of f."""
    lat = _preimage_lattice(f.mat, f.target.rels)
    rels = _preimage_lattice(lat, f.source.rels)
    K = FpModule(f.source.ring, lat.cols, rels)
    incl = FpMorphism(K, f.source, lat, _trusted=True)
    return K, incl


def cokernel(f: FpMorphism):
    """(C, proj) with proj : target -> C the cokernel of f."""
    ring = f.source.ring
    C = FpModule(ring, f.target.gens, hstack([f.target.rels, f.mat]))
    proj = FpMorphism(f.target, C, Matrix.identity(ring, f.target.gens), _trusted=True)
    return C, proj


def image(f: FpMorphism):
    """(I, incl, coproj): source ->> I >-> target factoring f."""
    ring = f.source.ring
    rels = _preimage_lattice(f.mat, f.target.rels)
    I = FpModule(ring, f.source.gens, rels)
    incl = FpMorphism(I, f.target, f.mat, _trusted=True)
    coproj = FpMorphism(f.source, I, Matrix.identity(ring, f.source.gens), _trusted=True)
    return I, incl, coproj


@dataclass(frozen=True)
class MorphismAnalysis:
    kernel: FpModule
    kernel_inclusion: FpMorphism
    cokernel: FpModule
    cokernel_projection: FpMorphism
    image: FpModule
    image_inclusion: FpMorphism
    is_mono: bool
    is_epi: bool


def analyze(f: FpMorphism) -> MorphismAnalysis:
    K, ki = kernel(f)
    C, cp = cokernel(f)
    I, ii, _ = image(f)
    return MorphismAnalysis(K, ki, C, cp, I, ii,
                            is_mono=K.is_zero_module(), is_epi=C.is_zero_module())


def is_mono(f: FpMorphism) -> bool:
    """Is f injective?

    For a free source, no x != 0 has F x in the span of the target's
    relations R exactly when rank [F R] = gens + rank R, so ranks decide it;
    a source with relations goes through its kernel.
    """
    if f.source.rels.cols:
        return kernel(f)[0].is_zero_module()
    R = f.target.rels
    if not R.cols:
        return rank(f.mat) == f.source.gens
    return rank(hstack([f.mat, R])) == f.source.gens + rank(R)


def is_epi(f: FpMorphism) -> bool:
    return cokernel(f)[0].is_zero_module()


def free_cover(M: FpModule) -> FpMorphism:
    """The canonical surjection from the free module on M's generators."""
    F = FpModule.free(M.ring, M.gens)
    return FpMorphism(F, M, Matrix.identity(M.ring, M.gens), _trusted=True)


def factor_through_mono(mono: FpMorphism, f: FpMorphism):
    """g with mono @ g == f (as morphisms), or None.  Requires f.target == mono.target."""
    if f.target != mono.target:
        raise ShapeError("factor_through_mono endpoint mismatch")
    B = mono.target.rels
    stack = hstack([mono.mat, B]) if B.cols else mono.mat
    X = solve(stack, f.mat)
    if X is None:
        return None
    top = X.submatrix(0, mono.source.gens, 0, X.cols)
    return FpMorphism(f.source, mono.source, top)


@dataclass(frozen=True)
class SesVerdict:
    ok: bool
    reason: str = ""


def check_ses(i: FpMorphism, p: FpMorphism) -> SesVerdict:
    """Is 0 -> A -i-> B -p-> C -> 0 short exact?"""
    if i.target != p.source:
        return SesVerdict(False, "middle objects differ")
    if not is_mono(i):
        return SesVerdict(False, "first map is not mono")
    if not is_epi(p):
        return SesVerdict(False, "second map is not epi")
    if not (p @ i).is_zero():
        return SesVerdict(False, "composite is not zero")
    # p kills im(i), so it induces a surjection coker(i) ->> C; a surjection
    # between isomorphic finitely generated modules is injective (Vasconcelos),
    # so im(i) = ker(p) exactly when coker(i) and C are isomorphic
    if cokernel(i)[0].canonical() != p.target.canonical():
        return SesVerdict(False, "image of first map is smaller than ker(p)")
    return SesVerdict(True)


def split_inclusion(parts, k: int) -> FpMorphism:
    """parts[k] -> direct sum of parts."""
    parts = list(parts)
    ring, g = parts[0].ring, parts[k].gens
    mat = block_matrix(ring, [m.gens for m in parts], [g], {(k, 0): Matrix.identity(ring, g)})
    return FpMorphism(parts[k], direct_sum_modules(parts), mat, _trusted=True)


def split_projection(parts, k: int) -> FpMorphism:
    """direct sum of parts -> parts[k]."""
    parts = list(parts)
    ring, g = parts[0].ring, parts[k].gens
    mat = block_matrix(ring, [g], [m.gens for m in parts], {(0, k): Matrix.identity(ring, g)})
    return FpMorphism(direct_sum_modules(parts), parts[k], mat, _trusted=True)
