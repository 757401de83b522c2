"""Homology, acyclicity witnesses and the rank certificate."""
import random
from dataclasses import replace

import pytest

from binmc.complexes import (AcyclicityWitness, ChainComplex, acyclicity_witness,
                             describe_homology, free_line_homology, homology,
                             homology_by_ranks)
from binmc.errors import RingError, ShapeError
from binmc.fpmod import FpModule, FpMorphism
from binmc.gen import (complex_direct_sum, conjugate_complex, random_acyclic_complex,
                       random_complex_with_known_homology)
from binmc.matrix import Matrix, smith
from binmc.rings import GF, QQ, ZZ, polynomial_ring


def mat(rows, ring=ZZ):
    return Matrix.from_int_rows(ring, rows)


def free(r, ring=ZZ):
    return FpModule.free(ring, r)


def two_term(m, ring=ZZ):
    """0 -> R -(m)-> R -> 0."""
    f = free(1, ring)
    return ChainComplex(ring, [f, f],
                        [FpMorphism(f, f, mat([[m]], ring), _trusted=True)])


def test_d_squared_enforced():
    f = free(1)
    one = FpMorphism.identity(f)
    with pytest.raises(ShapeError):
        ChainComplex(ZZ, [f, f, f], [one, one])


def test_homology_of_scale_complex():
    C = two_term(6)
    assert homology(C, 0).canonical() == (0, (6,))
    assert homology(C, 1).canonical() == (0, ())
    assert homology(C, 5).canonical() == (0, ())
    assert homology_by_ranks(C, 0) == (0, (6,))
    assert homology_by_ranks(C, 1) == (0, ())


def test_homology_identity_complex_vanishes():
    C = two_term(1)
    assert acyclicity_witness(C).ok


def test_single_zero_object_is_acyclic_nonzero_is_not():
    Cz = ChainComplex(ZZ, [FpModule.zero(ZZ)], [])
    assert acyclicity_witness(Cz).ok
    Cn = ChainComplex(ZZ, [free(1)], [])
    out = acyclicity_witness(Cn)
    assert not out.ok and out.failing_degree == 0
    assert out.obstruction.canonical() == (1, ())


def test_empty_complex_is_acyclic():
    assert acyclicity_witness(ChainComplex.empty(ZZ)).ok


def test_witness_structure_and_verify():
    rng = random.Random(2)
    for _ in range(20):
        C = random_acyclic_complex(rng, ZZ, length=4, max_rank=3)
        out = acyclicity_witness(C)
        assert out.ok
        assert out.witness.verify()


def test_witness_failure_reports_lowest_degree():
    # 0 -> Z -(2)-> Z -> 0 has homology Z/2 in degree 0
    out = acyclicity_witness(two_term(2))
    assert not out.ok
    assert out.failing_degree == 0
    assert out.obstruction.canonical() == (0, (2,))
    assert "degree 0" in out.describe()


def test_witness_iff_homology_vanishes():
    rng = random.Random(31)
    for _ in range(25):
        C, expected = random_complex_with_known_homology(rng, ZZ, length=4)
        out = acyclicity_witness(C)
        should_be_acyclic = all(v == (0, ()) for v in expected.values())
        assert out.ok == should_be_acyclic
        for k in range(C.length):
            assert homology(C, k).canonical() == expected[k]


def test_two_homology_algorithms_agree():
    rng = random.Random(57)
    for ring in (ZZ, GF(7), QQ):
        for _ in range(15):
            C, expected = random_complex_with_known_homology(rng, ring, length=4)
            for k in range(C.length):
                machinery = homology(C, k).canonical()
                betti, torsion = homology_by_ranks(C, k)
                assert machinery == (betti, torsion)
                assert machinery == expected[k]


def _certificate_matches_witness(C):
    """free_line_homology locates what the witness locates, with the same homology.

    Also checks it against the homology of every degree by an independent
    route (the module machinery over F_p[x], where fraction-field ranks are
    not available).
    """
    found = free_line_homology(C)
    exact = found is None
    out = acyclicity_witness(C)
    assert exact == out.ok
    if C.ring.kind == "polynomials-over":
        by_degree = [homology(C, k).canonical() for k in range(C.length)]
    else:
        by_degree = [homology_by_ranks(C, k) for k in range(C.length)]
    assert exact == all(h == (0, ()) for h in by_degree)
    if found is not None:
        k, free, torsion = found
        assert k == out.failing_degree
        assert all(h == (0, ()) for h in by_degree[:k])
        assert (free, torsion) == out.obstruction.canonical() == by_degree[k]
        assert describe_homology(*found) == out.describe()
    return exact


def test_rank_certificate_matches_witness_on_random_complexes():
    rng = random.Random(71)
    verdicts = set()
    for ring in (ZZ, GF(7), QQ):
        for _ in range(12):
            C, expected = random_complex_with_known_homology(rng, ring, length=4)
            exact = _certificate_matches_witness(C)
            assert exact == all(v == (0, ()) for v in expected.values())
            verdicts.add(exact)
            A = random_acyclic_complex(rng, ring, length=4, max_rank=3, allow_fp=False)
            assert _certificate_matches_witness(A)
    assert verdicts == {True, False}


def test_rank_certificate_matches_witness_on_hand_built_lines():
    # ranks add up but a non-unit invariant factor leaves torsion
    assert not _certificate_matches_witness(two_term(2))
    assert not _certificate_matches_witness(two_term(-6))
    # rank deficits: a zero map, Z^2 -> Z whose kernel survives in degree 1,
    # and a lone nonzero object
    assert not _certificate_matches_witness(two_term(0))
    f1, f2 = free(1), free(2)
    C = ChainComplex(ZZ, [f1, f2], [FpMorphism(f2, f1, mat([[1, 0]]), _trusted=True)])
    assert not _certificate_matches_witness(C)
    assert not _certificate_matches_witness(ChainComplex(ZZ, [f1], []))
    # exact ones, including the empty complex and a zero object
    assert _certificate_matches_witness(two_term(-1))
    assert _certificate_matches_witness(ChainComplex.empty(ZZ))
    assert _certificate_matches_witness(ChainComplex(ZZ, [FpModule.zero(ZZ)], []))
    # over QQ every nonzero scalar is a unit
    assert _certificate_matches_witness(two_term(2, QQ))
    assert not _certificate_matches_witness(two_term(0, QQ))


def test_rank_certificate_over_polynomials_with_nonconstant_torsion():
    R = polynomial_ring(GF(5))
    x, x1, x2 = (0, 1), (1, 1), (0, 0, 1)
    neg_x, neg_x1 = R.neg(x), R.neg(x1)
    f1, f2 = FpModule.free(R, 1), FpModule.free(R, 2)

    def mor(src, tgt, rows):
        return FpMorphism(src, tgt, Matrix.from_rows(R, rows), _trusted=True)

    # F5[x] --x--> F5[x]: torsion F5[x]/(x) in degree 0
    C = ChainComplex(R, [f1, f1], [mor(f1, f1, [[x]])])
    assert not _certificate_matches_witness(C)
    assert homology(C, 0).canonical()[1] == (x,)
    # Koszul line on the coprime pair x, x + 1: exact
    K = ChainComplex(R, [f1, f2, f1], [mor(f2, f1, [[neg_x1, x]]),
                                       mor(f1, f2, [[x], [x1]])])
    assert _certificate_matches_witness(K)
    # the pair x, x^2 shares the factor x: ranks add up, yet H_1 = F5[x]/(x)
    B = ChainComplex(R, [f1, f2, f1], [mor(f2, f1, [[neg_x, R.one]]),
                                       mor(f1, f2, [[x], [x2]])])
    assert not _certificate_matches_witness(B)
    assert acyclicity_witness(B).failing_degree == 1
    assert free_line_homology(B) == (1, 0, (x,))


def _poly_line(rng, R, length):
    """A conjugated sum of scalings by x, x + 1 or x^2, identities and lone
    free objects, each at a random degree: torsion that is not a constant."""
    scalars = [(0, 1), (1, 1), (0, 0, 1)]
    zero = FpModule.zero(R)
    pieces = []
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(length - 1)
        roll = rng.random()
        mods = [zero] * length
        if roll < 0.8:
            mods[at] = mods[at + 1] = FpModule.free(R, rng.randint(1, 2))
        else:
            mods[at + rng.randint(0, 1)] = FpModule.free(R, 1)
        diffs = [FpMorphism.zero(mods[k + 1], mods[k]) for k in range(length - 1)]
        if roll < 0.8:
            d = FpMorphism.identity(mods[at])
            diffs[at] = d.scale(rng.choice(scalars)) if roll < 0.5 else d
        pieces.append(ChainComplex(R, mods, diffs))
    return conjugate_complex(rng, complex_direct_sum(pieces))


def test_rank_certificate_locates_polynomial_torsion():
    R = polynomial_ring(GF(5))
    rng = random.Random(13)
    seen = set()
    for _ in range(40):
        C = _poly_line(rng, R, rng.randint(2, 4))
        if not _certificate_matches_witness(C):
            seen.update(free_line_homology(C)[2])
    assert {(0, 1), (1, 1), (0, 0, 1)} <= seen


def _with_diffs(C, mats):
    """C's objects with new differential matrices, on which nothing is cached."""
    return ChainComplex(C.ring, C.objects,
                        [FpMorphism(d.source, d.target, Matrix(C.ring, a.rows, a.cols, a.entries),
                                    _trusted=True) for d, a in zip(C.diffs, mats)])


def test_rank_certificate_without_u_and_v_matches_witness():
    # criterion 1's family, each exact line also broken twice: one nonzero
    # differential set to zero (a rank deficit) and, over ZZ, doubled (a
    # non-unit invariant factor)
    rng = random.Random(101)
    verdicts = {True: 0, False: 0}
    for ring in (ZZ, GF(7)):
        for _ in range(60):
            length = rng.randint(2, 6)
            if rng.random() < 0.5:
                C, _ = random_complex_with_known_homology(rng, ring, length=length, max_rank=5)
            else:
                C = random_acyclic_complex(rng, ring, length=length, max_rank=5, allow_fp=False)
            mats = [d.mat for d in C.diffs]
            lines = [(_with_diffs(C, mats), None)]
            nonzero = [k for k, a in enumerate(mats) if not a.is_zero()]
            if nonzero:
                k = rng.choice(nonzero)
                broken = [Matrix.zeros(ring, mats[k].rows, mats[k].cols)]
                if ring == ZZ:
                    broken.append(mats[k].scale(2))
                lines += [(_with_diffs(C, mats[:k] + [b] + mats[k + 1:]), C) for b in broken]
            for L, origin in lines:
                exact = free_line_homology(L) is None
                assert all(d.mat._snf is None for d in L.diffs)  # no U or V was built
                ok = acyclicity_witness(L).ok
                assert exact == ok
                if origin is not None and acyclicity_witness(origin).ok:
                    assert not ok
                for d in L.diffs:
                    smith(d.mat)
                assert (free_line_homology(L) is None) == ok  # read from the full decompositions
                verdicts[ok] += 1
    assert min(verdicts.values()) > 20


def test_rank_certificate_needs_free_objects():
    C = ChainComplex(ZZ, [FpModule(ZZ, 1, mat([[2]]))], [])
    with pytest.raises(RingError):
        free_line_homology(C)


def test_witness_verify_refuses_each_broken_part():
    C = two_term(1)
    w = acyclicity_witness(C).witness
    assert w.verify()
    zero, two = FpModule.zero(ZZ), free(2)
    broken = [
        replace(w, cycles=w.cycles[:-1]),  # one cycle object short
        replace(w, cycles=(free(1),) + w.cycles[1:]),  # Z_{-1} is not zero
        replace(w, epis=(FpMorphism.zero(two, w.cycles[0]),) + w.epis[1:]),  # epi from Z^2
        replace(w, monos=(FpMorphism.zero(two, C.objects[0]),) + w.monos[1:]),  # mono from Z^2
        replace(w, epis=(w.epis[0], w.epis[1].scale(2))),  # mono_0 epi_1 = 2 d_1
    ]
    # every map fits the non-acyclic complex Z, but 0 >-> Z ->> 0 is not exact
    Z = ChainComplex(ZZ, [free(1)], [])
    broken.append(AcyclicityWitness(Z, (zero, zero), (FpMorphism.zero(free(1), zero),),
                                    (FpMorphism.zero(zero, free(1)),)))
    assert [b.verify() for b in broken] == [False] * 6
