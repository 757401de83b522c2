"""Bounded binary multicomplexes and their morphisms.

A binary multicomplex of dimension n is a box-supported family of finitely
presented modules with two commuting differentials per axis (the top and
bottom family).  Validity means: every line in every axis is a complex for
both families, every such line is acyclic, and all cross-axis squares commute
within and across families.  A direction is diagonal when the two families
agree there.

Coordinates are tuples of length dim; shape is the box extent per axis; a
differential at (axis, coord) maps obj(coord) -> obj(coord - e_axis) and is
present exactly when coord[axis] >= 1, the edge rule of _edges.  Every
builder that makes a multicomplex edge by edge (the re-box core, _restrict,
direct sums, expand_along's terms, collapse_along and gen's bricks) gives
_assemble the (top, bottom) pair of each edge once; a pair that holds one
morphism twice keeps the two families sharing it.  Dimension 0 is allowed
(one module, no differentials) so constructions can recurse uniformly.

Every move of a multicomplex to another box goes through one coordinate map,
the re-box core _rebox (with _rebox_morphism for morphisms): coordinate c
reads the old coordinate c - offsets, and everything outside the old box is
zero.  Its entry points are shift (translate up), pad_to (grow at the high
end), BinaryMulticomplex.normalize (crop to the tight support),
shift_morphism and pad_morphism; each checks its arguments and makes one
call into the core.  The kernel and image multicomplexes of a morphism, and
the kernels that resolutions build from carried sections, share one
restriction, _restrict, of both differential families through coordinatewise
monos.  block_identity_morphism builds every morphism between direct sums
from blocks that are identities or any MultiMorphism.  layered_sum stacks
direct sums along a new axis, with one morphism for both families where
their routes agree, and staircase_rows lays out the identity staircase that
resolve and cofinal both build on.
expand_along and collapse_along convert along one axis to and from a binary
complex of (dim-1)-multicomplexes, held as the tuples (terms, tops, bots);
diagonal_embed collapses one family of differentials into both, the paper's
diagonal embedding.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .complexes import (ChainComplex, acyclicity_witness, describe_homology,
                        free_line_homology)
from .errors import NotAcyclic, ShapeError
from .fpmod import (FpModule, FpMorphism, direct_sum_modules,
                    factor_through_mono, kernel)
from .matrix import Matrix, block_diag, block_matrix, column_space_basis
from .rings import Ring


def box_coords(shape):
    return itertools.product(*(range(s) for s in shape))


def _minus(coord, axis):
    return coord[:axis] + (coord[axis] - 1,) + coord[axis + 1:]


def _insert(rest, axis, t):
    return rest[:axis] + (t,) + rest[axis:]


def _drop(coord, axis):
    return coord[:axis] + coord[axis + 1:]


def _edges(shape):
    """The edges (a, c) of a box, c[a] >= 1: axis by axis, each in box order."""
    return [(a, c) for a in range(len(shape)) for c in box_coords(shape) if c[a] >= 1]


def _assemble(ring: Ring, shape, objects, edge) -> "BinaryMulticomplex":
    """The multicomplex on objects whose top and bottom differentials at each
    edge (a, c) are the pair edge(a, c); a pair that holds one morphism twice
    gives both families that morphism."""
    pairs = {e: edge(*e) for e in _edges(shape)}
    return BinaryMulticomplex(ring, len(shape), shape, objects,
                              {e: p[0] for e, p in pairs.items()},
                              {e: p[1] for e, p in pairs.items()})


class _HashedKey(tuple):
    """A tuple that hashes once: equal, ordered and hashed as the plain tuple."""

    def __new__(cls, items):
        key = super().__new__(cls, items)
        key._hash = tuple.__hash__(key)
        return key

    def __hash__(self):
        return self._hash


class BinaryMulticomplex:
    __slots__ = ("ring", "dim", "shape", "objects", "tops", "bots", "_key")

    def __init__(self, ring: Ring, dim: int, shape, objects, tops, bots):
        shape = tuple(shape)
        if len(shape) != dim:
            raise ShapeError("shape length must equal dimension")
        self.ring = ring
        self.dim = dim
        self.shape = shape
        self.objects = dict(objects)
        self.tops = dict(tops)
        self.bots = dict(bots)
        self._key = None  # canonical_key, computed once: nothing changes the tables
        if set(self.objects) != set(box_coords(shape)):
            raise ShapeError("object table must cover the support box exactly")
        expected = set(_edges(shape))
        for fam_name, fam in (("top", self.tops), ("bottom", self.bots)):
            if set(fam) != expected:
                raise ShapeError(f"{fam_name} differentials must cover interior coordinates exactly")
            for (a, c), f in fam.items():
                if f.source != self.objects[c] or f.target != self.objects[_minus(c, a)]:
                    raise ShapeError(f"{fam_name} differential at axis {a}, {c} has wrong endpoints")

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zero(ring: Ring, dim: int) -> "BinaryMulticomplex":
        if dim == 0:
            return BinaryMulticomplex.of_module(FpModule.zero(ring))
        return BinaryMulticomplex(ring, dim, (0,) * dim, {}, {}, {})

    @staticmethod
    def of_module(mod: FpModule) -> "BinaryMulticomplex":
        return BinaryMulticomplex(mod.ring, 0, (), {(): mod}, {}, {})

    @staticmethod
    def from_binary_chain(ring: Ring, modules, top_maps, bot_maps) -> "BinaryMulticomplex":
        """Dimension-1 multicomplex from degree-indexed modules and map lists."""
        modules = list(modules)
        L = len(modules)
        objects = {(k,): m for k, m in enumerate(modules)}
        tops = {(0, (k,)): f for k, f in zip(range(1, L), top_maps)}
        bots = {(0, (k,)): f for k, f in zip(range(1, L), bot_maps)}
        return BinaryMulticomplex(ring, 1, (L,), objects, tops, bots)

    # -- accessors ------------------------------------------------------
    def obj(self, coord) -> FpModule:
        return self.objects[tuple(coord)]

    def family(self, which: str) -> dict:
        return self.tops if which == "top" else self.bots

    def is_zero(self) -> bool:
        return all(m.is_zero_module() for m in self.objects.values())

    def __eq__(self, other):
        return other is self or (
            isinstance(other, BinaryMulticomplex) and other.ring == self.ring
            and other.dim == self.dim and other.shape == self.shape
            and other.objects == self.objects
            and {k: f.mat for k, f in other.tops.items()} == {k: f.mat for k, f in self.tops.items()}
            and {k: f.mat for k, f in other.bots.items()} == {k: f.mat for k, f in self.bots.items()})

    def __repr__(self):
        total = sum(m.gens for m in self.objects.values())
        return f"BinaryMulticomplex(dim={self.dim}, shape={self.shape}, gens={total})"

    def rank_grid(self) -> dict:
        return {c: m.free_rank() for c, m in self.objects.items()}

    # -- normalization ---------------------------------------------------
    def normalize(self) -> "BinaryMulticomplex":
        """Translate the tight support to start at 0 along each axis."""
        if self.dim == 0:
            return self
        support = [c for c, m in self.objects.items() if not m.is_zero_module()]
        if not support:
            return BinaryMulticomplex.zero(self.ring, self.dim)
        lo = tuple(min(c[a] for c in support) for a in range(self.dim))
        hi = tuple(max(c[a] for c in support) for a in range(self.dim))
        return _rebox(self, tuple(-l for l in lo), tuple(h - l + 1 for l, h in zip(lo, hi)))

    def canonical_key(self):
        """The normalized tables as one hashed tuple that holds the matrices
        themselves, so it costs O(nonzeros); keys over one ring compare as if
        each matrix were its dense entry tuple (Matrix.__lt__)."""
        if self._key is None:
            n = self.normalize()
            objs = tuple((c, n.objects[c].gens, n.objects[c].rels.rows,
                          n.objects[c].rels.cols, n.objects[c].rels)
                         for c in sorted(n.objects))
            diffs = tuple((a, c, n.tops[(a, c)].mat, n.bots[(a, c)].mat)
                          for (a, c) in sorted(n.tops))
            self._key = _HashedKey((n.dim, n.shape, objs, diffs))
        return self._key

    def equivalent(self, other: "BinaryMulticomplex") -> bool:
        return self.canonical_key() == other.canonical_key()

    # -- lines and diagonality -------------------------------------------
    def line(self, axis: int, rest, which: str) -> ChainComplex:
        fam = self.family(which)
        mods = [self.objects[_insert(rest, axis, t)] for t in range(self.shape[axis])]
        diffs = [fam[(axis, _insert(rest, axis, t))] for t in range(1, self.shape[axis])]
        return ChainComplex(self.ring, mods, diffs, check=False)

    def rest_coords(self, axis: int):
        return box_coords(_drop(self.shape, axis))

    def is_diagonal_in(self, axis: int) -> bool:
        return _first_non_diagonal(self, axis) is None

    def diagonal_directions(self) -> frozenset:
        return frozenset(a for a in range(self.dim) if self.is_diagonal_in(a))


@dataclass(frozen=True)
class DiagonalityReport:
    directions: frozenset
    counterexamples: dict


def _first_non_diagonal(M: BinaryMulticomplex, axis: int):
    """The least coordinate whose two differentials along the axis differ, or None."""
    for c in box_coords(M.shape):
        if c[axis] >= 1 and not M.tops[(axis, c)].equals(M.bots[(axis, c)]):
            return c
    return None


def diagonality_report(M: BinaryMulticomplex) -> DiagonalityReport:
    bad = {a: _first_non_diagonal(M, a) for a in range(M.dim)}
    return DiagonalityReport(frozenset(a for a, c in bad.items() if c is None),
                             {a: c for a, c in bad.items() if c is not None})


@dataclass(frozen=True)
class ValidationFailure:
    kind: str  # "free" | "composite" | "line" | "square"
    family: str
    axis: int
    coord: tuple
    detail: str = ""

    def __str__(self):
        """The one wording of a failure, shared by every boundary that reports it."""
        if self.kind == "free":
            return f"object at {self.coord} is not free"
        return (f"{self.kind} failure, {self.family} family, axis {self.axis}, "
                f"at {self.coord}: {self.detail}")


@dataclass(frozen=True)
class ValidationReport:
    """ok, and the failures in order: validate's records or verify_resolution's messages."""

    ok: bool
    failures: tuple

    def first(self):
        return self.failures[0] if self.failures else None

    def require(self, what: str):
        """Raise NotAcyclic("what: first failure") unless the report is ok."""
        if not self.ok:
            raise NotAcyclic(f"{what}: {self.failures[0]}")


def validate(M: BinaryMulticomplex, mode: str = "fp") -> ValidationReport:
    """Full validity: complexes linewise, acyclic linewise, commuting squares.

    mode names the category: in free mode every object must be freely
    presented, and a non-free object is reported before anything else.

    A line whose consecutive differentials do not compose to zero gets one
    failure per bad composite and no exactness check.  Any other line with
    free objects is decided and located by free_line_homology, from the
    cached invariant factors of its differentials; a line with a non-free
    object goes to acyclicity_witness.  Either path reports the lowest degree
    with nonzero homology and that homology, in the same words.
    """
    failures = []
    if mode == "free":
        for c in sorted(M.objects):
            if not M.objects[c].is_free_presentation():
                failures.append(ValidationFailure("free", "", -1, c, "object is not free"))
        if failures:
            return ValidationReport(False, tuple(failures))
    for axis in range(M.dim):
        for rest in sorted(M.rest_coords(axis)):
            for which in ("top", "bottom"):
                line = M.line(axis, rest, which)
                broken = False
                for k in range(line.length - 2):
                    if not (line.diffs[k] @ line.diffs[k + 1]).is_zero():
                        failures.append(ValidationFailure(
                            "composite", which, axis, _insert(rest, axis, k + 2),
                            "consecutive differentials do not compose to zero"))
                        broken = True
                if broken:
                    continue
                if line.is_free():
                    found = free_line_homology(line)
                else:
                    outcome = acyclicity_witness(line)
                    found = None if outcome.ok else (outcome.failing_degree,
                                                     *outcome.obstruction.canonical())
                if found is not None:
                    failures.append(ValidationFailure(
                        "line", which, axis, _insert(rest, axis, found[0]),
                        describe_homology(*found)))
    for ai in range(M.dim):
        for aj in range(ai + 1, M.dim):
            for c in sorted(box_coords(M.shape)):
                if c[ai] < 1 or c[aj] < 1:
                    continue
                for fi, fam_i in (("top", M.tops), ("bottom", M.bots)):
                    for fj, fam_j in (("top", M.tops), ("bottom", M.bots)):
                        lhs = fam_i[(ai, _minus(c, aj))] @ fam_j[(aj, c)]
                        rhs = fam_j[(aj, _minus(c, ai))] @ fam_i[(ai, c)]
                        if not lhs.equals(rhs):
                            failures.append(ValidationFailure(
                                "square", f"{fi}/{fj}", ai, c,
                                f"axes {ai},{aj} do not commute"))
    return ValidationReport(not failures, tuple(failures))


class MultiMorphism:
    """Coordinate-wise morphism between equal-shape multicomplexes."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: BinaryMulticomplex, target: BinaryMulticomplex, components):
        if source.ring != target.ring or source.dim != target.dim or source.shape != target.shape:
            raise ShapeError("multicomplex morphism needs equal dimension and shape")
        self.source = source
        self.target = target
        self.components = dict(components)
        if set(self.components) != set(box_coords(source.shape)):
            raise ShapeError("morphism components must cover the support box")
        for c, f in self.components.items():
            if f.source != source.objects[c] or f.target != target.objects[c]:
                raise ShapeError(f"component at {c} has wrong endpoints")

    @staticmethod
    def identity(M: BinaryMulticomplex) -> "MultiMorphism":
        return MultiMorphism(M, M, {c: FpMorphism.identity(m) for c, m in M.objects.items()})

    @staticmethod
    def zero(source: BinaryMulticomplex, target: BinaryMulticomplex) -> "MultiMorphism":
        return MultiMorphism(source, target,
                             {c: FpMorphism.zero(source.objects[c], target.objects[c])
                              for c in box_coords(source.shape)})

    def __matmul__(self, other: "MultiMorphism") -> "MultiMorphism":
        if other.target != self.source:
            raise ShapeError("composition endpoint mismatch")
        return MultiMorphism(other.source, self.target,
                             {c: self.components[c] @ other.components[c]
                              for c in self.components})

    def commutes(self) -> bool:
        """Does the morphism intertwine both differential families everywhere?"""
        s, t = self.source, self.target
        for fam in ("top", "bottom"):
            fs, ft = s.family(fam), t.family(fam)
            for (a, c) in fs:
                lhs = ft[(a, c)] @ self.components[c]
                rhs = self.components[_minus(c, a)] @ fs[(a, c)]
                if not lhs.equals(rhs):
                    return False
        return True

    def equals(self, other: "MultiMorphism") -> bool:
        if self.source != other.source or self.target != other.target:
            return False
        return all(self.components[c].equals(other.components[c]) for c in self.components)


def _origins(offsets, old_shape, shape):
    """New coordinate -> the coordinate c - offsets of the old box it reads, or None."""
    out = {}
    for c in box_coords(shape):
        old = tuple(x - o for x, o in zip(c, offsets))
        out[c] = old if all(0 <= x < s for x, s in zip(old, old_shape)) else None
    return out


def _rebox(M: BinaryMulticomplex, offsets, shape) -> BinaryMulticomplex:
    """The re-box core: M moved by offsets (either sign) into the box of the given shape.

    Coordinate c holds M's object at c - offsets when that lies in M's box and
    a zero object otherwise; objects that move outside the new box are
    dropped.  An edge keeps M's two differentials when both its ends come
    from M's box and is the zero map in both families otherwise.  The core
    checks nothing; its callers check their arguments.
    """
    if shape == M.shape and not any(offsets):
        return M
    zero = FpModule.zero(M.ring)
    origins = _origins(offsets, M.shape, shape)
    objects = {c: zero if old is None else M.objects[old] for c, old in origins.items()}

    def edge(a, c):
        old = origins[c]
        if old is not None and old[a] >= 1:
            return M.tops[(a, old)], M.bots[(a, old)]
        f = FpMorphism.zero(objects[c], objects[_minus(c, a)])
        return f, f

    return _assemble(M.ring, shape, objects, edge)


def _rebox_morphism(f: MultiMorphism, offsets, shape) -> MultiMorphism:
    """_rebox applied to source, target and components of f alike."""
    src = _rebox(f.source, offsets, shape)
    tgt = _rebox(f.target, offsets, shape)
    comps = {c: FpMorphism.zero(src.objects[c], tgt.objects[c]) if old is None
             else f.components[old]
             for c, old in _origins(offsets, f.source.shape, shape).items()}
    return MultiMorphism(src, tgt, comps)


def _shift_args(M: BinaryMulticomplex, offsets):
    offsets = tuple(offsets)
    if len(offsets) != M.dim or any(o < 0 for o in offsets):
        raise ShapeError("offsets must be nonnegative, one per axis")
    return offsets, tuple(s + o for s, o in zip(M.shape, offsets))


def _pad_args(M: BinaryMulticomplex, shape):
    shape = tuple(shape)
    if len(shape) != M.dim or any(n < s for n, s in zip(shape, M.shape)):
        raise ShapeError("pad_to cannot shrink the box")
    return (0,) * M.dim, shape


def shift(M: BinaryMulticomplex, offsets) -> BinaryMulticomplex:
    """Translate the support by nonnegative offsets, padding zeros below."""
    return _rebox(M, *_shift_args(M, offsets))


def pad_to(M: BinaryMulticomplex, shape) -> BinaryMulticomplex:
    """Grow the box at the high end with zeros; existing coordinates keep their keys."""
    return _rebox(M, *_pad_args(M, shape))


def shift_morphism(f: MultiMorphism, offsets) -> MultiMorphism:
    """The same morphism between translated source and target."""
    return _rebox_morphism(f, *_shift_args(f.source, offsets))


def pad_morphism(f: MultiMorphism, shape) -> MultiMorphism:
    """The same morphism between high-end padded source and target."""
    return _rebox_morphism(f, *_pad_args(f.source, shape))


def _restrict(M: BinaryMulticomplex, incls, failure: str, retractions=None):
    """(S, incl): both differential families of M restricted through the monos incls[c].

    Where retractions[c] is a matrix rho with rho @ incls[c].mat the identity,
    an edge d from c' into c restricts to rho @ d @ incls[c']: a product, and
    the restriction whenever d maps the image of incls[c'] into that of
    incls[c], which is left for the caller's verification to confirm.  Every
    other edge is recovered by factoring through the inclusion; one that does
    not restrict raises ShapeError(failure).
    """
    retractions = retractions or {}

    def restricted(fam, a, c):
        below = _minus(c, a)
        moved = fam[(a, c)] @ incls[c]
        rho = retractions.get(below)
        if rho is not None:
            return FpMorphism(incls[c].source, incls[below].source, rho @ moved.mat,
                              _trusted=True)
        lifted = factor_through_mono(incls[below], moved)
        if lifted is None:
            raise ShapeError(failure)
        return lifted

    S = _assemble(M.ring, M.shape, {c: incl.source for c, incl in incls.items()},
                  lambda a, c: (restricted(M.tops, a, c), restricted(M.bots, a, c)))
    return S, MultiMorphism(S, M, incls)


def kernel_multicomplex(f: MultiMorphism):
    """(K, incl) with K the coordinate-wise kernel of f inside f.source.

    Differentials restrict because f intertwines them.
    """
    incls = {c: kernel(f.components[c])[1] for c in box_coords(f.source.shape)}
    return _restrict(f.source, incls, "source differential does not restrict to the kernel")


def common_shape(multis) -> tuple:
    dims = {m.dim for m in multis}
    if len(dims) != 1:
        raise ShapeError("dimension mismatch")
    d = dims.pop()
    return tuple(max(m.shape[a] for m in multis) for a in range(d))


def direct_sum_multi(multis) -> BinaryMulticomplex:
    multis = [pad_to(m, common_shape(multis)) for m in multis]
    ring, shape = multis[0].ring, multis[0].shape
    objects = {c: direct_sum_modules([m.objects[c] for m in multis]) for c in box_coords(shape)}

    def summed(fams, a, c):
        return FpMorphism(objects[c], objects[_minus(c, a)],
                          block_diag(ring, [f[(a, c)].mat for f in fams]), _trusted=True)

    tops, bots = [m.tops for m in multis], [m.bots for m in multis]
    return _assemble(ring, shape, objects, lambda a, c: (summed(tops, a, c), summed(bots, a, c)))


def summand_inclusion(multis, k: int) -> MultiMorphism:
    atoms, total = _summands(multis)
    return block_identity_morphism(atoms[k:k + 1], atoms, {(k, k)}, atoms[k][1], total)


def summand_projection(multis, k: int) -> MultiMorphism:
    atoms, total = _summands(multis)
    return block_identity_morphism(atoms, atoms[k:k + 1], {(k, k)}, total, atoms[k][1])


def _summands(multis):
    """The summands padded to one box and tagged by position, and their direct sum."""
    shape = common_shape(multis)
    atoms = [(t, pad_to(m, shape)) for t, m in enumerate(multis)]
    return atoms, direct_sum_multi([m for _, m in atoms])


def block_identity_morphism(src_atoms, tgt_atoms, routed, term_src, term_tgt) -> MultiMorphism:
    """Morphism between direct sums assembled block by block.

    src_atoms and tgt_atoms are (tag, multicomplex) lists matching the
    summand order of term_src and term_tgt.  routed maps (target_tag,
    source_tag) pairs to the MultiMorphism filling that block, or to None for
    an identity; a plain set of pairs routes identities only.  Every unrouted
    block is zero, and a block that does not fit raises ShapeError.
    """
    ring = term_src.ring
    if not isinstance(routed, dict):
        routed = dict.fromkeys(routed)
    pairs = [(r, s, routed[(tag_t, tag_s)]) for r, (tag_t, _) in enumerate(tgt_atoms)
             for s, (tag_s, _) in enumerate(src_atoms) if (tag_t, tag_s) in routed]
    comps = {}
    for c in box_coords(term_src.shape):
        heights = [A.objects[c].gens for _, A in tgt_atoms]
        widths = [A.objects[c].gens for _, A in src_atoms]
        blocks = {(r, s): Matrix.identity(ring, heights[r]) if f is None else f.components[c].mat
                  for r, s, f in pairs}
        comps[c] = FpMorphism(term_src.objects[c], term_tgt.objects[c],
                              block_matrix(ring, heights, widths, blocks), _trusted=True)
    return MultiMorphism(term_src, term_tgt, comps)


def _check_axis(axis: int, dim: int):
    if not 0 <= axis < dim:
        raise ShapeError(f"axis {axis} out of range for dimension {dim}")


def expand_along(M: BinaryMulticomplex, axis: int):
    """(terms, tops, bots): M as a binary complex of (dim-1)-multicomplexes
    along the axis, with tops[k], bots[k] : terms[k+1] -> terms[k]."""
    _check_axis(axis, M.dim)
    rest_shape = _drop(M.shape, axis)
    rest = list(box_coords(rest_shape))

    def term(t):
        def edge(a, r):
            e = (a if a < axis else a + 1, _insert(r, axis, t))
            return M.tops[e], M.bots[e]

        return _assemble(M.ring, rest_shape, {r: M.objects[_insert(r, axis, t)] for r in rest}, edge)

    terms = tuple(term(t) for t in range(M.shape[axis]))

    def tower(fam):
        return tuple(MultiMorphism(terms[t], terms[t - 1],
                                   {r: fam[(axis, _insert(r, axis, t))] for r in rest})
                     for t in range(1, len(terms)))

    return terms, tower(M.tops), tower(M.bots)


def collapse_along(terms, tops, bots, axis: int) -> BinaryMulticomplex:
    """Inverse of expand_along: reinsert the axis at the given position.  The
    differentials' endpoints are checked by the flattened multicomplex."""
    if not terms:
        raise ShapeError("cannot collapse an empty tower")
    if len(tops) != len(terms) - 1 or len(bots) != len(terms) - 1:
        raise ShapeError("binary tower needs one differential pair per adjacent pair")
    rest_shape = terms[0].shape
    _check_axis(axis, len(rest_shape) + 1)
    if any(term.shape != rest_shape for term in terms):
        raise ShapeError("tower terms must share one shape; pad them first")
    objects = {_insert(r, axis, t): term.objects[r]
               for t, term in enumerate(terms) for r in box_coords(rest_shape)}

    def edge(a, c):
        t, r = c[axis], _drop(c, axis)
        if a == axis:
            return tops[t - 1].components[r], bots[t - 1].components[r]
        e = (a if a < axis else a - 1, r)
        return terms[t].tops[e], terms[t].bots[e]

    return _assemble(terms[0].ring, _insert(rest_shape, axis, len(terms)), objects, edge)


def layered_sum(rows, route_top, route_bot, axis: int):
    """(M, terms): terms[j], the direct sum of the (tag, summand) atoms in
    rows[j], stacked along a new axis of M.  Each family's differential into
    layer j - 1 is the block_identity_morphism over its route[j]; where the
    routes agree, both families hold one morphism and share its cached factors."""
    terms = [direct_sum_multi([a for _, a in row]) for row in rows]
    tops, bots = [], []
    for j in range(1, len(rows)):
        src, tgt = rows[j], rows[j - 1]
        tops.append(block_identity_morphism(src, tgt, route_top[j], terms[j], terms[j - 1]))
        bots.append(tops[-1] if route_bot[j] == route_top[j] else
                    block_identity_morphism(src, tgt, route_bot[j], terms[j], terms[j - 1]))
    return collapse_along(terms, tops, bots, axis), terms


def staircase_rows(pieces):
    """(rows, route) of the identity staircase on pieces X_0 .. X_{L-1}:
    layer j holds ("lo", j) = X_j and ("hi", j - 1) = X_{j-1} where they
    exist, and route[j] wires "hi" in layer j to "lo" in layer j - 1.  Fed to
    layered_sum in both families, they give the sum of the two-layer
    identity complexes X_j --1--> X_j, diagonal and exact along the axis."""
    L = len(pieces)
    rows = [[(("lo", j), pieces[j])] if j < L else [] for j in range(L + 1)]
    for j in range(1, L + 1):
        rows[j].append((("hi", j - 1), pieces[j - 1]))
    return rows, {j: {(("lo", j - 1), ("hi", j - 1))} for j in range(1, L + 1)}


def diagonal_embed(terms, diffs, axis: int) -> BinaryMulticomplex:
    """The diagonal embedding: a complex of (dim-1)-multicomplexes, with
    diffs[k] : terms[k+1] -> terms[k], doubled into both families along a
    new axis.  The flattened result checks the endpoints (a ShapeError) and
    is then fully validated; a failure raises NotAcyclic.
    """
    out = collapse_along(terms, diffs, diffs, axis)
    validate(out, "fp").require("diagonal embedding is not valid")
    return out


def rediagonalize(M: BinaryMulticomplex, axis: int) -> BinaryMulticomplex:
    """Replace the bottom differential with the top one along the axis.

    This is the diagonal-after-top retraction: it is the identity exactly on
    inputs already diagonal in the axis.
    """
    _check_axis(axis, M.dim)
    bots = {k: M.tops[k] if k[0] == axis else f for k, f in M.bots.items()}
    return BinaryMulticomplex(M.ring, M.dim, M.shape, M.objects, M.tops, bots)


def image_multicomplex(f: MultiMorphism):
    """(I, incl) with I the coordinate-wise image of f inside f.target.

    Each image is the free module on a basis of the column space of f's
    component; both differential families of the target restrict to it.
    """
    tgt = f.target
    incls = {}
    for c in box_coords(tgt.shape):
        basis = column_space_basis(f.components[c].mat)
        incls[c] = FpMorphism(FpModule.free(tgt.ring, basis.cols), tgt.objects[c], basis,
                              _trusted=True)
    return _restrict(tgt, incls, "target differential does not restrict to the image")
