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
from .multicomplex import (BinaryMulticomplex, MultiMorphism,
                           block_identity_morphism, box_coords, common_shape,
                           direct_sum_multi, pad_to)


@dataclass(frozen=True)
class ExtensionFailure:
    kind: str  # "ses" | "mono-square" | "epi-square"
    coord: tuple
    detail: str = ""


class ExtensionObject:
    """sub >-> total ->> quot with coordinate-wise exactness."""

    __slots__ = ("sub", "total", "quot", "mono", "epi")

    def __init__(self, sub: BinaryMulticomplex, total: BinaryMulticomplex,
                 quot: BinaryMulticomplex, mono: MultiMorphism, epi: MultiMorphism):
        if mono.source != sub or mono.target != total:
            raise ShapeError("inclusion endpoints must be sub -> total")
        if epi.source != total or epi.target != quot:
            raise ShapeError("projection endpoints must be total -> quot")
        self.sub = sub
        self.total = total
        self.quot = quot
        self.mono = mono
        self.epi = epi

    def verify(self) -> Optional[ExtensionFailure]:
        """None when everything checks out, else the first failure found."""
        if not self.mono.commutes():
            return ExtensionFailure("mono-square", (), "inclusion does not commute with differentials")
        if not self.epi.commutes():
            return ExtensionFailure("epi-square", (), "projection does not commute with differentials")
        for c in sorted(box_coords(self.total.shape)):
            verdict = check_ses(self.mono.components[c], self.epi.components[c])
            if not verdict.ok:
                return ExtensionFailure("ses", c, verdict.reason)
        return None

    def members(self):
        return (self.sub, self.total, self.quot)


def split_extension(sub: BinaryMulticomplex, quot: BinaryMulticomplex) -> ExtensionObject:
    """The direct-sum extension sub >-> sub (+) quot ->> quot."""
    shape = common_shape([sub, quot])
    sub, quot = pad_to(sub, shape), pad_to(quot, shape)
    total = direct_sum_multi([sub, quot])
    atoms = [(0, sub), (1, quot)]
    mono = block_identity_morphism(atoms[:1], atoms, {(0, 0)}, sub, total)
    epi = block_identity_morphism(atoms, atoms[1:], {(1, 1)}, total, quot)
    return ExtensionObject(sub, total, quot, mono, epi)


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
