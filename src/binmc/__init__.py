"""Exact workbench for acyclic binary multicomplexes over finitely presented modules."""

from .rings import ZZ, QQ, GF, polynomial_ring, ring_from_descriptor
from .matrix import Matrix, smith, solve, det, kernel_basis, column_space_basis, rank
from .fpmod import FpModule, FpMorphism, check_ses, free_cover, hsum, kernel
from .complexes import ChainComplex, acyclicity_witness, homology, homology_by_ranks
from .multicomplex import (BinaryMulticomplex, MultiMorphism, collapse_along,
                           diagonal_embed, diagonality_report,
                           direct_sum_multi, expand_along, image_multicomplex,
                           rediagonalize, validate)
from .extension import ExtensionObject, repack, split_extension, unpack
from .resolve import phi_class, resolve_binary, resolve_multi, verify_resolution
from .kgroups import (DiagonalStep, FormalClass, IsoStep, RelationChain,
                      SesStep, class_torsion, tn_membership_certificate,
                      torsion, verify_chain)
from .cofinal import (RelClass, complement, diagonal_represent, pair_complement,
                      rel_class)

__all__ = [
    "ZZ", "QQ", "GF", "polynomial_ring", "ring_from_descriptor",
    "Matrix", "smith", "solve", "det", "kernel_basis", "column_space_basis", "rank",
    "FpModule", "FpMorphism", "check_ses", "free_cover", "hsum", "kernel",
    "ChainComplex", "acyclicity_witness", "homology", "homology_by_ranks",
    "BinaryMulticomplex", "MultiMorphism", "collapse_along", "diagonal_embed",
    "diagonality_report", "direct_sum_multi", "expand_along",
    "image_multicomplex", "rediagonalize", "validate",
    "ExtensionObject", "repack", "split_extension", "unpack",
    "phi_class", "resolve_binary", "resolve_multi", "verify_resolution",
    "DiagonalStep", "FormalClass", "IsoStep", "RelationChain", "SesStep",
    "class_torsion", "tn_membership_certificate", "torsion", "verify_chain",
    "RelClass", "complement", "diagonal_represent", "pair_complement", "rel_class",
]
