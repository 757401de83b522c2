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
                                direct_sum_multi, shift, summand_inclusion,
                                summand_projection, validate)
from binmc.rings import GF, QQ, ZZ, PrimeField, polynomial_ring
from binmc.serialize import chain_from_doc, chain_to_doc


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


# -- one merge for every sum ---------------------------------------------


class _FoldedClass:
    """FormalClass arithmetic as it was before the one-pass merge: a
    constructor that trusts its callers' keys, and an __add__ that copies,
    re-merges and re-checks the whole class."""

    def __init__(self, dim, entries):
        self.dim, self.ring, self._entries = dim, None, {}
        for key, (M, c) in entries.items():
            if M.dim != dim:
                raise ShapeError("formal class mixes dimensions")
            if c == 0:
                continue
            if self.ring is None:
                self.ring = M.ring
            elif M.ring != self.ring:
                raise ShapeError("formal class mixes coefficient rings")
            self._entries[key] = (M, c)

    def __add__(self, other):
        if other.dim != self.dim:
            raise ShapeError("formal class mixes dimensions")
        if None not in (self.ring, other.ring) and other.ring != self.ring:
            raise ShapeError("formal class mixes coefficient rings")
        merged = dict(self._entries)
        for key, (M, c) in other._entries.items():
            if key in merged:
                merged[key] = (merged[key][0], merged[key][1] + c)
            else:
                merged[key] = (M, c)
        return _FoldedClass(self.dim, merged)

    def entries(self):
        return [self._entries[k] for k in sorted(self._entries)]


def _outcome(build):
    """The error a sum raises, or its ring and its entries with their
    representatives by identity."""
    try:
        x = build()
    except ShapeError as e:
        return "error", str(e)
    return x.ring, [(id(M), c) for M, c in x.entries()]


def test_one_pass_merge_matches_repeated_addition():
    rng = random.Random(29)
    seen = set()
    for ring in (ZZ, GF(7), QQ, polynomial_ring(GF(5))):
        other = ZZ if ring is not ZZ else GF(7)
        pool = [random_multicomplex(rng, ring, 1, length=2, max_rank=1) for _ in range(3)]
        pool += [shift(M, (1,)) for M in pool] + [unit_complex(ring, ring.one)]
        # unit_complex has one canonical key over every ring; the dim-2 member
        # mixes dimensions
        strangers = [unit_complex(other, other.one),
                     random_multicomplex(rng, ring, 2, length=2, max_rank=1)]
        for _ in range(400):
            terms = [(rng.choice(strangers) if rng.random() < 0.1 else rng.choice(pool),
                      rng.choice((-2, -1, -1, 0, 1, 1, 2))) for _ in range(rng.randrange(9))]

            def folded():
                x = _FoldedClass(1, {})
                for M, c in terms:
                    x = x + _FoldedClass(M.dim, {M.canonical_key(): (M, c)})
                return x

            def added():
                x = FormalClass.zero(1)
                for M, c in terms:
                    x = x + FormalClass.of(M, c)
                return x

            want = _outcome(folded)
            assert _outcome(lambda: FormalClass(1, terms)) == want
            assert _outcome(added) == want
            if want[0] == "error":
                seen.add(want[1])
                continue
            x = FormalClass(1, terms)
            seen.add("empty" if x.is_zero() else "kept")
            if x.is_zero() and any(c for _, c in terms):
                assert x.ring is None
                seen.add("cancelled")
            assert x == added() and x == FormalClass(1, x.entries())
            assert (x - added()).is_zero() and (-x + x).is_zero()
            assert [(M, -c) for M, c in x.entries()] == (-x).entries()
    assert seen == {"formal class mixes dimensions", "formal class mixes coefficient rings",
                    "empty", "kept", "cancelled"}


def _diagonal_lines(n):
    """n distinct diagonal lines F -a-> F over GF(1000003), a = 1..n."""
    F = GF(1000003)
    R = FpModule.free(F, 1)
    one = FpMorphism.identity(R)
    return [BinaryMulticomplex.from_binary_chain(F, [R, R], [one.scale(a)], [one.scale(a)])
            for a in range(1, n + 1)]


def test_parsing_and_replaying_a_long_chain_holds_linear_entries(monkeypatch):
    # start lists n distinct diagonal lines and each step removes one; a sum
    # built by repeated + held about n**2 / 2 entries in the reader and again
    # in the replay
    n = 2000
    lines = _diagonal_lines(n)
    doc = chain_to_doc(RelationChain(FormalClass(1, [(L, 1) for L in lines]),
                                     [DiagonalStep(L, 0, -1) for L in lines],
                                     FormalClass.zero(1)))
    held = []
    init = FormalClass.__init__

    def counted(self, dim, terms=()):
        init(self, dim, terms)
        held.append(len(self._entries))

    monkeypatch.setattr(FormalClass, "__init__", counted)
    report = verify_chain(chain_from_doc(doc))
    assert report.ok, report.reason
    assert sum(held) <= 10 * n


# -- every reject branch of the chain verifier, by its wording ------------


def _refusal(chain):
    report = verify_chain(chain)
    assert not report.ok
    return report.step, report.reason


def test_iso_step_refusals_are_worded():
    U, V = unit_complex(QQ, Fraction(1)), unit_complex(QQ, Fraction(2))
    one_u, one_v = MultiMorphism.identity(U), MultiMorphism.identity(V)
    # components 1 and 2 break the square of the top differential 1
    bent = MultiMorphism(U, U, {(0,): FpMorphism.identity(U.objects[(0,)]),
                                (1,): FpMorphism.identity(U.objects[(1,)]).scale(Fraction(2))})
    S = direct_sum_multi([U, V])
    into, onto = summand_inclusion([U, V], 0), summand_projection([U, V], 0)
    cases = [
        (IsoStep(one_u, one_v, 1), U, "isomorphism witness pair has mismatched endpoints"),
        (IsoStep(bent, one_u, 1), U, "forward map does not commute with the differentials"),
        (IsoStep(one_u, bent, 1), U, "backward map does not commute with the differentials"),
        (IsoStep(into, onto, 1), S, "forward o backward is not the identity"),
    ]
    for step, end, reason in cases:
        chain = RelationChain(FormalClass.of(step.forward.source), [step], FormalClass.of(end))
        assert _refusal(chain) == (0, reason)


def test_chain_verifier_refusals_are_worded():
    rng = random.Random(16)
    D = random_multicomplex(rng, ZZ, 1, length=3, max_rank=2, diagonal_axes=(0,))
    D2 = random_multicomplex(rng, ZZ, 2, length=2, max_rank=1, diagonal_axes=(0,))
    R = FpModule.free(ZZ, 1)
    z = FpMorphism.zero(R, R)
    Mbad = BinaryMulticomplex.from_binary_chain(ZZ, [R, R], [z], [z])
    zero = FormalClass.zero(1)
    assert _refusal(RelationChain(zero, [], FormalClass.zero(2))) == (
        None, "start and end classes have different dimensions")
    assert _refusal(RelationChain(zero, [DiagonalStep(D2, 0, 1)], zero)) == (
        0, "step references the wrong dimension")
    assert _refusal(RelationChain(FormalClass.of(D), [DiagonalStep(D, 1, -1)], zero)) == (
        0, "diagonal axis 1 out of range for dimension 1")
    # an invalid member met first inside a step is reported at that step
    steps = [DiagonalStep(D, 0, -1), DiagonalStep(Mbad, 0, 1)]
    reason = f"referenced multicomplex is invalid: {validate(Mbad).first()}"
    assert _refusal(RelationChain(FormalClass.of(D), steps, zero)) == (1, reason)
