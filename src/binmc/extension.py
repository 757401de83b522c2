"""Short exact sequences of binary multicomplexes.

An extension is a degreewise-split-free datum sub >-> total ->> quot where
the three members share one box, the inclusion and projection commute with
both differential families, and every coordinate carries a genuine short
exact sequence of modules.  The grid-of-sequences and sequence-of-grids
views are interchangeable: unpack/repack move between them losslessly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ShapeError
from .fpmod import check_ses
from .matrix import Matrix
from .multicomplex import (BinaryMulticomplex, MultiMorphism, _summands,
                           block_identity_morphism, box_coords)


@dataclass(frozen=True)
class ExtensionFailure:
    kind: str  # "ses" | "mono-square" | "epi-square"
    coord: tuple
    detail: str = ""


def _splits(i, z, s, r) -> bool:
    """Do s and r split the sequence i, z at one coordinate?  Between free
    objects, z i = 0, r i = 1, z s = 1 and r s = 0 say [r; z] is a left
    inverse of [i | s]; when that is square (the ranks of the ends add up to
    the middle's), it is a two-sided inverse, so i r + s z = 1 too."""
    if s is None or r is None or not all(
            m.is_free_presentation() for m in (i.source, z.source, z.target)):
        return False
    I, Z, ring = i.mat, z.mat, i.mat.ring
    try:
        return (I.cols + Z.rows == Z.cols and (Z @ I).is_zero() and (r @ s).is_zero()
                and r @ I == Matrix.identity(ring, I.cols)
                and Z @ s == Matrix.identity(ring, Z.rows))
    except ShapeError:
        return False


class ExtensionObject:
    """sub >-> total ->> quot with coordinate-wise exactness; sect and retr may map
    a coordinate to a section of epi and a retraction of mono (unserialized)."""

    __slots__ = ("sub", "total", "quot", "mono", "epi", "sect", "retr")

    def __init__(self, sub: BinaryMulticomplex, total: BinaryMulticomplex,
                 quot: BinaryMulticomplex, mono: MultiMorphism, epi: MultiMorphism,
                 sect=None, retr=None):
        if mono.source != sub or mono.target != total:
            raise ShapeError("inclusion endpoints must be sub -> total")
        if epi.source != total or epi.target != quot:
            raise ShapeError("projection endpoints must be total -> quot")
        self.sub, self.total, self.quot, self.mono, self.epi = sub, total, quot, mono, epi
        self.sect, self.retr = sect or {}, retr or {}

    def verify(self) -> Optional[ExtensionFailure]:
        """None when everything checks out, else the first failure found."""
        if not self.mono.commutes():
            return ExtensionFailure("mono-square", (), "inclusion does not commute with differentials")
        if not self.epi.commutes():
            return ExtensionFailure("epi-square", (), "projection does not commute with differentials")
        found = self.first_inexact()
        return None if found is None else ExtensionFailure("ses", *found)

    def first_inexact(self):
        """(c, reason) at the first inexact coordinate in sorted order, else None.
        A splitting that _splits accepts settles c; check_ses decides the rest."""
        for c in sorted(box_coords(self.total.shape)):
            i, z = self.mono.components[c], self.epi.components[c]
            if not _splits(i, z, self.sect.get(c), self.retr.get(c)):
                verdict = check_ses(i, z)
                if not verdict.ok:
                    return c, verdict.reason
        return None

    def members(self):
        return (self.sub, self.total, self.quot)


def split_extension(sub: BinaryMulticomplex, quot: BinaryMulticomplex) -> ExtensionObject:
    """The direct-sum extension sub >-> sub (+) quot ->> quot.  Both maps are
    identity routings, so their transposes are its section and retraction."""
    atoms, total = _summands([sub, quot])
    (_, sub), (_, quot) = atoms
    mono = block_identity_morphism(atoms[:1], atoms, {(0, 0)}, sub, total)
    epi = block_identity_morphism(atoms, atoms[1:], {(1, 1)}, total, quot)
    return ExtensionObject(sub, total, quot, mono, epi,
                           {c: f.mat.transpose() for c, f in epi.components.items()},
                           {c: f.mat.transpose() for c, f in mono.components.items()})


def unpack(ext: ExtensionObject) -> dict:
    """Coordinate -> (inclusion, projection) short exact sequence of modules."""
    return {c: (ext.mono.components[c], ext.epi.components[c])
            for c in box_coords(ext.total.shape)}


def repack(sub: BinaryMulticomplex, total: BinaryMulticomplex,
           quot: BinaryMulticomplex, grid: dict) -> ExtensionObject:
    """Rebuild the extension from its per-coordinate sequences."""
    monos = {c: pair[0] for c, pair in grid.items()}
    epis = {c: pair[1] for c, pair in grid.items()}
    return ExtensionObject(sub, total, quot,
                           MultiMorphism(sub, total, monos),
                           MultiMorphism(total, quot, epis))
