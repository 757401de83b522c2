import itertools
import random
from fractions import Fraction

import pytest

from binmc.errors import NotAcyclic, ShapeError
from binmc.extension import ExtensionObject, split_extension
from binmc.fpmod import FpModule, FpMorphism
from binmc.gen import (conjugate_multicomplex, random_multi_extension,
                       random_multicomplex)
from binmc.kgroups import (ChainReport, DiagonalStep, FormalClass, IsoStep,
                           MembershipCertificate, RelationChain, SesStep,
                           class_torsion, tn_membership_certificate, torsion,
                           verify_chain)
from binmc.matrix import Matrix
from binmc.multicomplex import (BinaryMulticomplex, MultiMorphism, box_coords,
                                direct_sum_multi, shift)
from binmc.rings import QQ, ZZ, PrimeField


def unit_complex(ring, u):
    """0 -> R -> R -> 0 with top differential 1 and bottom differential u."""
    R = FpModule.free(ring, 1)
    ident = FpMorphism.identity(R)
    return BinaryMulticomplex.from_binary_chain(ring, [R, R], [ident], [ident.scale(u)])


def test_formal_class_algebra():
    rng = random.Random(0)
    A = random_multicomplex(rng, ZZ, 1, length=3, max_rank=2)
    B = random_multicomplex(rng, ZZ, 1, length=3, max_rank=2)
    x = FormalClass.of(A) + FormalClass.of(B) - FormalClass.of(A)
    assert x.coefficient(A) == 0
    assert x.coefficient(B) == 1
    assert (x - FormalClass.of(B)).is_zero()
    assert FormalClass.zero(1).is_zero()
    two = FormalClass.of(A) + FormalClass.of(A)
    assert two.coefficient(A) == 2
    assert len(two.entries()) == 1
    assert (-two).coefficient(A) == -2


def test_formal_class_merges_translates():
    rng = random.Random(1)
    A = random_multicomplex(rng, ZZ, 1, length=3, max_rank=2)
    moved = shift(A, (2,))
    assert (FormalClass.of(A) - FormalClass.of(moved)).is_zero()


def test_formal_class_rejects_mixtures():
    rng = random.Random(2)
    A = random_multicomplex(rng, ZZ, 1, length=3, max_rank=2)
    B = random_multicomplex(rng, ZZ, 2, length=2, max_rank=2)
    with pytest.raises(ShapeError):
        FormalClass.of(A) + FormalClass.of(B)
    C = random_multicomplex(rng, QQ, 1, length=3, max_rank=2)
    with pytest.raises(ShapeError):
        FormalClass.of(A) + FormalClass.of(C)


def test_chains_do_not_mix_rings():
    # unit_complex(R, 1) has one canonical key over every ring, so only the
    # ring tells the classes apart
    rings = (ZZ, QQ, PrimeField(7))
    units = {R: unit_complex(R, 1) for R in rings}
    zero = FormalClass.zero(1)
    for R, S in itertools.product(rings, repeat=2):
        x, y = FormalClass.of(units[R]), FormalClass.of(units[S])
        plus_minus = [DiagonalStep(units[R], 0, 1), DiagonalStep(units[S], 0, -1)]
        if R == S:
            assert x == y and verify_chain(RelationChain(zero, plus_minus, zero)).ok
            # a cancelled sum keeps no ring from the entries it dropped
            cancelled = x - y
            assert cancelled.ring is None and cancelled == zero
            continue
        assert x != y
        with pytest.raises(ShapeError):
            x + y
        report = verify_chain(RelationChain(x, [], y))
        assert (report.ok, report.step) == (False, None)
        assert report.reason == "start and end classes have different rings"
        # the ring comes from the start, else the end, else the first step
        for chain in (RelationChain(x, [DiagonalStep(units[S], 0, 1)], x),
                      RelationChain(zero, [DiagonalStep(units[S], 0, 1)], x),
                      RelationChain(zero, plus_minus, zero)):
            report = verify_chain(chain)
            assert (report.ok, report.step) == (False, len(chain.steps) - 1)
            assert report.reason == "step references the wrong ring"


def test_split_ses_chain():
    rng = random.Random(3)
    A = random_multicomplex(rng, ZZ, 1, length=3, max_rank=2)
    B = random_multicomplex(rng, ZZ, 1, length=3, max_rank=2)
    ext = split_extension(A, B)
    chain = RelationChain(FormalClass.of(A) + FormalClass.of(B),
                          [SesStep(ext, -1)],
                          FormalClass.of(ext.total))
    report = verify_chain(chain)
    assert report.ok, report.reason


def test_diagonal_step_chain():
    rng = random.Random(4)
    D = random_multicomplex(rng, ZZ, 1, length=3, max_rank=2, diagonal_axes=(0,))
    chain = RelationChain(FormalClass.of(D),
                          [DiagonalStep(D, 0, -1)],
                          FormalClass.zero(1))
    report = verify_chain(chain)
    assert report.ok, report.reason


def test_chain_reports_corrupted_ses_at_its_step():
    # the middle of U >-> U ->> U is not exact, although both maps commute
    U = unit_complex(ZZ, 1)
    ident = MultiMorphism.identity(U)
    bad = ExtensionObject(U, U, U, ident, ident)
    D = random_multicomplex(random.Random(5), ZZ, 1, length=3, max_rank=2,
                            diagonal_axes=(0,))
    chain = RelationChain(FormalClass.of(D),
                          [DiagonalStep(D, 0, -1), SesStep(bad, 1)],
                          FormalClass.of(U))
    report = verify_chain(chain)
    assert not report.ok
    assert report.step == 1
    assert "extension witness fails" in report.reason


def test_chain_rejects_false_diagonal_claim():
    U = unit_complex(ZZ, -1)
    assert not U.is_diagonal_in(0)
    chain = RelationChain(FormalClass.of(U),
                          [DiagonalStep(U, 0, -1)],
                          FormalClass.zero(1))
    report = verify_chain(chain)
    assert not report.ok and report.step == 0
    assert "not diagonal" in report.reason


def test_chain_rejects_invalid_member():
    # zero differentials on nonzero free modules: lines are not acyclic
    R = FpModule.free(ZZ, 1)
    z = FpMorphism.zero(R, R)
    Mbad = BinaryMulticomplex.from_binary_chain(ZZ, [R, R], [z], [z])
    chain = RelationChain(FormalClass.of(Mbad),
                          [DiagonalStep(Mbad, 0, -1)],
                          FormalClass.zero(1))
    report = verify_chain(chain)
    assert not report.ok
    assert "invalid" in report.reason


def test_iso_step_round_trip():
    rng = random.Random(6)
    M = random_multicomplex(rng, ZZ, 2, length=2, max_rank=2)
    Mp, iso, iso_inv = conjugate_multicomplex(rng, M)
    chain = RelationChain(FormalClass.of(M),
                          [IsoStep(iso, iso_inv, 1)],
                          FormalClass.of(Mp))
    report = verify_chain(chain)
    assert report.ok, report.reason


def test_iso_step_rejects_non_inverse_pair():
    U = unit_complex(QQ, Fraction(1))
    doubled = {c: FpMorphism.identity(U.objects[c]).scale(Fraction(2))
               for c in box_coords(U.shape)}
    f = MultiMorphism(U, U, doubled)
    g = MultiMorphism.identity(U)
    chain = RelationChain(FormalClass.of(U),
                          [IsoStep(f, g, 1)],
                          FormalClass.of(U))
    report = verify_chain(chain)
    assert not report.ok and report.step == 0
    assert "identity" in report.reason


def test_chain_rejects_wrong_end_class():
    rng = random.Random(7)
    A = random_multicomplex(rng, ZZ, 1, length=3, max_rank=2)
    D = random_multicomplex(rng, ZZ, 1, length=3, max_rank=2, diagonal_axes=(0,))
    chain = RelationChain(FormalClass.of(A),
                          [DiagonalStep(D, 0, 1)],
                          FormalClass.of(A))
    report = verify_chain(chain)
    assert not report.ok and report.step is None
    assert "bookkeeping" in report.reason


def test_chain_over_conjugated_extensions():
    rng = random.Random(8)
    for _ in range(5):
        sub = random_multicomplex(rng, ZZ, 1, length=3, max_rank=2)
        quot = random_multicomplex(rng, ZZ, 1, length=3, max_rank=2)
        ext = random_multi_extension(rng, sub, quot)
        chain = RelationChain(FormalClass.of(ext.total),
                              [SesStep(ext, 1), SesStep(ext, -1), SesStep(ext, 1)],
                              FormalClass.of(ext.sub) + FormalClass.of(ext.quot))
        report = verify_chain(chain)
        assert report.ok, report.reason


def test_torsion_unit_complex_convention():
    # top differential 1, bottom differential u gives u^{-1}
    assert torsion(unit_complex(ZZ, 1)) == 1
    assert torsion(unit_complex(ZZ, -1)) == -1
    assert torsion(unit_complex(QQ, Fraction(2))) == Fraction(1, 2)
    assert torsion(unit_complex(QQ, Fraction(-2))) == Fraction(-1, 2)
    F7 = PrimeField(7)
    assert torsion(unit_complex(F7, 3)) == 5
    # u and its inverse multiply to 1
    a = torsion(unit_complex(QQ, Fraction(5)))
    b = torsion(unit_complex(QQ, Fraction(1, 5)))
    assert a * b == 1


def test_torsion_diagonal_is_one():
    rng = random.Random(9)
    for ring in (ZZ, QQ, PrimeField(7)):
        for _ in range(6):
            D = random_multicomplex(rng, ring, 1, length=4, max_rank=2, diagonal_axes=(0,))
            assert torsion(D) == ring.one


def test_torsion_multiplicative_over_direct_sums():
    rng = random.Random(10)
    for ring in (ZZ, QQ, PrimeField(5)):
        for _ in range(6):
            X = random_multicomplex(rng, ring, 1, length=3, max_rank=2)
            Y = random_multicomplex(rng, ring, 1, length=3, max_rank=2)
            lhs = torsion(direct_sum_multi([X, Y]))
            assert lhs == ring.mul(torsion(X), torsion(Y))


def test_torsion_invariant_under_conjugation():
    rng = random.Random(11)
    for _ in range(6):
        M = random_multicomplex(rng, QQ, 1, length=4, max_rank=2)
        Mp, _, _ = conjugate_multicomplex(rng, M)
        assert torsion(Mp) == torsion(M)


def test_torsion_rejects_bad_inputs():
    R = FpModule.free(ZZ, 1)
    z = FpMorphism.zero(R, R)
    Mbad = BinaryMulticomplex.from_binary_chain(ZZ, [R, R], [z], [z])
    with pytest.raises(NotAcyclic):
        torsion(Mbad)
    rng = random.Random(12)
    M2 = random_multicomplex(rng, ZZ, 2, length=2, max_rank=2)
    with pytest.raises(ShapeError):
        torsion(M2)
    # non-free objects are refused even when the complex is valid
    T = FpModule(ZZ, 1, Matrix.from_int_rows(ZZ, [[6]]))
    ident = FpMorphism.identity(T)
    Mtor = BinaryMulticomplex.from_binary_chain(ZZ, [T, T], [ident], [ident])
    with pytest.raises(NotAcyclic):
        torsion(Mtor)


def test_class_torsion_constant_along_chains():
    rng = random.Random(13)
    for _ in range(4):
        A = random_multicomplex(rng, QQ, 1, length=3, max_rank=2)
        B = random_multicomplex(rng, QQ, 1, length=3, max_rank=2)
        ext = split_extension(A, B)
        start = FormalClass.of(A) + FormalClass.of(B)
        end = FormalClass.of(ext.total)
        chain = RelationChain(start, [SesStep(ext, -1)], end)
        assert verify_chain(chain).ok
        assert class_torsion(start) == class_torsion(end)
    D = random_multicomplex(rng, QQ, 1, length=3, max_rank=2, diagonal_axes=(0,))
    assert class_torsion(FormalClass.of(D)) == Fraction(1)
    assert class_torsion(FormalClass.zero(1), ring=QQ) == Fraction(1)
    assert class_torsion(FormalClass.of(unit_complex(QQ, Fraction(3)), -1)) == Fraction(3)


def test_membership_certificate():
    rng = random.Random(14)
    D1 = random_multicomplex(rng, ZZ, 2, length=2, max_rank=2, diagonal_axes=(0, 1))
    D2 = random_multicomplex(rng, ZZ, 2, length=2, max_rank=2, diagonal_axes=(0, 1))
    x = FormalClass.of(D1) - FormalClass.of(D2)
    axes = [0] * len(x.entries())
    cert = tn_membership_certificate(x, axes)
    assert cert.ok
    assert all(M.is_diagonal_in(a) for M, _, a in cert.assignments)

    U = unit_complex(ZZ, -1)
    y = FormalClass.of(U)
    assert not tn_membership_certificate(y, [0]).ok
    assert not tn_membership_certificate(y, []).ok
    assert not tn_membership_certificate(y, [5]).ok
