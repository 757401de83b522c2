import random

import pytest

from binmc import cofinal, kgroups
from binmc.cofinal import (RelClass, complement, diagonal_represent,
                           pair_complement, rel_class)
from binmc.errors import (CertificateError, MembershipRefusal, NotAcyclic,
                          NotDiagonal, ShapeError)
from binmc.fpmod import FpModule, FpMorphism
from binmc.gen import (conjugate_multicomplex, random_multicomplex,
                       random_tn_class)
from binmc.kgroups import FormalClass, class_torsion, torsion, verify_chain
from binmc.matrix import Matrix
from binmc.multicomplex import (BinaryMulticomplex, direct_sum_multi,
                                rediagonalize, validate)
from binmc.rings import ZZ
from binmc.serialize import chain_to_doc, digest, multicomplex_to_doc


def unit_complex(ring, u):
    R = FpModule.free(ring, 1)
    ident = FpMorphism.identity(R)
    return BinaryMulticomplex.from_binary_chain(ring, [R, R], [ident], [ident.scale(u)])


def test_instance_predicates():
    # the even-rank subcategory is where rel_class vanishes, on free objects
    points = [BinaryMulticomplex.of_module(FpModule.free(ZZ, r)) for r in range(5)]
    for r, point in enumerate(points):
        assert rel_class(point).is_zero() == (r % 2 == 0)
        # cofinality: the complement has rank at most one and evens the sum
        comp = pair_complement(point, point).objects[()]
        assert comp.gens <= 1 and (r + comp.gens) % 2 == 0
    torsion_point = BinaryMulticomplex.of_module(FpModule(ZZ, 1, Matrix.from_int_rows(ZZ, [[6]])))
    for refused in (rel_class, lambda N: pair_complement(N, N)):
        with pytest.raises(MembershipRefusal):
            refused(torsion_point)
    # closure of the subcategory under direct sums
    assert rel_class(direct_sum_multi([points[4], points[2]])).is_zero()


def test_rel_class_is_additive_and_exact():
    rng = random.Random(0)
    for _ in range(10):
        N1 = random_multicomplex(rng, ZZ, 2, length=2, max_rank=2)
        N2 = random_multicomplex(rng, ZZ, 2, length=2, max_rank=2)
        assert rel_class(direct_sum_multi([N1, N2])) == rel_class(N1) + rel_class(N2)
        doubled = direct_sum_multi([N1, N1])
        assert rel_class(doubled).is_zero()
    U = unit_complex(ZZ, 1)
    assert rel_class(U) == RelClass(1, frozenset({(0,), (1,)}))
    assert not rel_class(U).is_zero()


def test_complement_unit_complexes():
    for u in (1, -1):
        U = unit_complex(ZZ, u)
        T = complement(U, 0)
        assert T.is_diagonal_in(0)
        assert all(m.gens == 1 for m in T.objects.values())
        assert rel_class(direct_sum_multi([U, T])).is_zero()


def test_complement_of_even_input_is_zero():
    rng = random.Random(1)
    for dim in (1, 2):
        N = random_multicomplex(rng, ZZ, dim, length=2, max_rank=2)
        doubled = direct_sum_multi([N, N])
        T = complement(doubled, dim - 1)
        assert T.is_zero()


def test_complement_preserves_other_diagonal_directions():
    rng = random.Random(2)
    for _ in range(6):
        N = random_multicomplex(rng, ZZ, 2, length=3, max_rank=2, diagonal_axes=(1,))
        T = complement(N, 0)
        assert T.is_diagonal_in(0) and T.is_diagonal_in(1)
        assert rel_class(direct_sum_multi([N, T])).is_zero()
    N = random_multicomplex(rng, ZZ, 3, length=2, max_rank=2,
                            diagonal_axes=(2,), bricks=1)
    T = complement(N, 0)
    assert T.is_diagonal_in(0) and T.is_diagonal_in(2)
    assert rel_class(direct_sum_multi([N, T])).is_zero()


def test_complement_general_branch():
    rng = random.Random(3)
    for _ in range(6):
        N = random_multicomplex(rng, ZZ, 2, length=3, max_rank=2)
        for i in range(2):
            T = complement(N, i)
            assert T.is_diagonal_in(i)
            assert rel_class(direct_sum_multi([N, T])).is_zero()
            assert validate(T, "free").ok


def test_complement_dimension_three():
    rng = random.Random(4)
    N = random_multicomplex(rng, ZZ, 3, length=2, max_rank=2, bricks=1)
    T = complement(N, 1)
    assert T.is_diagonal_in(1)
    assert rel_class(direct_sum_multi([N, T])).is_zero()


def test_complement_rejections():
    T6 = FpModule(ZZ, 1, Matrix.from_int_rows(ZZ, [[6]]))
    ident = FpMorphism.identity(T6)
    torsion_complex = BinaryMulticomplex.from_binary_chain(ZZ, [T6, T6], [ident], [ident])
    with pytest.raises(MembershipRefusal):
        complement(torsion_complex, 0)
    R = FpModule.free(ZZ, 1)
    z = FpMorphism.zero(R, R)
    not_acyclic = BinaryMulticomplex.from_binary_chain(ZZ, [R, R], [z], [z])
    with pytest.raises(NotAcyclic):
        complement(not_acyclic, 0)
    U = unit_complex(ZZ, 1)
    with pytest.raises(ShapeError):
        complement(U, 3)
    with pytest.raises(ShapeError):
        complement(BinaryMulticomplex.of_module(R), 0)


def test_pair_complement_modules():
    N1 = BinaryMulticomplex.of_module(FpModule.free(ZZ, 1))
    N2 = BinaryMulticomplex.of_module(FpModule.free(ZZ, 3))
    P = pair_complement(N1, N2)
    assert (1 + P.objects[()].gens) % 2 == 0
    assert (3 + P.objects[()].gens) % 2 == 0
    N4 = BinaryMulticomplex.of_module(FpModule.free(ZZ, 4))
    with pytest.raises(MembershipRefusal):
        pair_complement(N1, N4)


def test_pair_complement_multicomplexes():
    rng = random.Random(5)
    for _ in range(5):
        N1 = random_multicomplex(rng, ZZ, 2, length=2, max_rank=2)
        N2, _, _ = conjugate_multicomplex(rng, N1)  # same rank grid
        P = pair_complement(N1, N2)
        assert rel_class(direct_sum_multi([N1, P])).is_zero()
        assert rel_class(direct_sum_multi([N2, P])).is_zero()
    odd = unit_complex(ZZ, 1)
    even = direct_sum_multi([odd, odd])
    with pytest.raises(MembershipRefusal):
        pair_complement(odd, even)
    # validity is checked before the parities are compared
    with pytest.raises(NotAcyclic):
        pair_complement(_zero_line(ZZ, (2,)), even)


def test_delta_top_retract():
    rng = random.Random(6)
    for _ in range(5):
        M = random_multicomplex(rng, ZZ, 2, length=2, max_rank=2)
        out = rediagonalize(M, 0)
        assert out.is_diagonal_in(0)
        assert validate(out).ok
        assert rediagonalize(out, 0) == out
    D = random_multicomplex(rng, ZZ, 2, length=2, max_rank=2, diagonal_axes=(1,))
    assert rediagonalize(D, 1) == D


def test_diagonal_represent_two_directions():
    rng = random.Random(7)
    g1 = random_multicomplex(rng, ZZ, 2, length=2, max_rank=2, diagonal_axes=(0,))
    g2 = random_multicomplex(rng, ZZ, 2, length=2, max_rank=2, diagonal_axes=(1,))
    x = FormalClass.of(g1) - FormalClass.of(g2)
    witnesses = [0 if M.equivalent(g1) else 1 for M, _ in x.entries()]
    t, chain = diagonal_represent(x, witnesses, i=0)
    assert t.is_diagonal_in(0)
    report = verify_chain(chain)
    assert report.ok, report.reason
    assert chain.end == FormalClass.of(t)


def test_diagonal_represent_edge_cases():
    rng = random.Random(8)
    g = random_multicomplex(rng, ZZ, 1, length=3, max_rank=2, diagonal_axes=(0,))
    t, chain = diagonal_represent(FormalClass.of(g), [0])
    assert len(chain.steps) == 0 and t.equivalent(g)

    t, chain = diagonal_represent(FormalClass.zero(2), [], i=1)
    assert t.is_zero() and verify_chain(chain).ok

    t, chain = diagonal_represent(-FormalClass.of(g), [0])
    assert t.is_diagonal_in(0) and verify_chain(chain).ok

    U = unit_complex(ZZ, -1)  # not diagonal anywhere
    with pytest.raises(CertificateError):
        diagonal_represent(FormalClass.of(U), [0])


def test_diagonal_represent_random_classes():
    rng = random.Random(9)
    for dim in (1, 2, 3):
        for _ in range(3):
            x, witnesses = random_tn_class(rng, ZZ, dim, terms=rng.randint(1, 3),
                                           length=2, max_rank=2)
            t, chain = diagonal_represent(x, witnesses)
            i = witnesses[0] if witnesses else 0
            assert t.is_diagonal_in(i)
            report = verify_chain(chain)
            assert report.ok, report.reason


def test_diagonal_represent_torsion_consistency():
    # chains use only split sequences and diagonal steps, so the summandwise
    # torsion of the input class must survive into the representative
    rng = random.Random(10)
    for _ in range(5):
        x, witnesses = random_tn_class(rng, ZZ, 1, terms=rng.randint(1, 3),
                                       length=3, max_rank=2)
        t, chain = diagonal_represent(x, witnesses)
        assert verify_chain(chain).ok
        assert torsion(t) == class_torsion(x, ring=ZZ)


def _zero_line(ring, shape):
    """Free rank-1 objects along axis 0 joined by zero maps: diagonal in every
    direction, free, and not acyclic."""
    R = FpModule.free(ring, 1)
    z = FpMorphism.zero(R, R)
    objects = {(k,) + (0,) * (len(shape) - 1): R for k in range(shape[0])}
    diffs = {(0, c): z for c in objects if c[0] > 0}
    return BinaryMulticomplex(ring, len(shape), shape, objects, diffs, dict(diffs))


def _counting(monkeypatch, module, name, counts):
    original = getattr(module, name, None)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted, raising=False)


def test_complement_checks_once_per_public_call(monkeypatch):
    rng = random.Random(4)
    N = random_multicomplex(rng, ZZ, 3, length=2, max_rank=2, bricks=1)
    counts, tower_lengths = {}, []
    for name in ("validate", "complement", "_complement", "rel_class", "image_multicomplex"):
        _counting(monkeypatch, cofinal, name, counts)
    real_expand = cofinal.expand_along

    def expand(M, axis):
        tower_lengths.append(M.shape[axis] - 1)  # differentials per family
        return real_expand(M, axis)

    monkeypatch.setattr(cofinal, "expand_along", expand)
    T = cofinal.complement(N, 1)
    assert counts["_complement"] > 1  # the input really recurses
    assert counts["complement"] == 1  # ... without re-entering the public entry
    assert counts["validate"] == 2  # input once, output once
    assert counts["rel_class"] == 2  # the parities too, input and output
    # one image per top-family tower differential; the bottom family has none
    assert counts["image_multicomplex"] == sum(tower_lengths) > 0
    assert rel_class(direct_sum_multi([N, T])).is_zero()


def test_diagonal_represent_leaves_chain_checking_to_verify_chain(monkeypatch):
    rng = random.Random(106)
    x, wits = random_tn_class(rng, ZZ, 2, terms=3, length=2, max_rank=2)
    counts = {}
    for module in (cofinal, kgroups):
        _counting(monkeypatch, module, "verify_chain", counts)
    t, chain = diagonal_represent(x, wits)
    assert counts.get("verify_chain", 0) == 0
    assert verify_chain(chain).ok  # the original, bound at import


def _criterion_5_family(n):
    rng = random.Random(105)
    for case in range(n):
        dim = ((1 if case % 5 < 2 else 2) if case % 10 < 8 else 3)
        i = rng.randrange(dim)
        axes = ()
        if dim > 1 and case % 2 == 0:
            axes = (rng.choice([a for a in range(dim) if a != i]),)
        M = random_multicomplex(rng, ZZ, dim,
                                length=2 if dim == 3 else rng.randint(2, 3),
                                max_rank=2 if dim < 3 else 1, diagonal_axes=axes)
        yield M, i


def _criterion_6_family(n):
    rng = random.Random(106)
    for case in range(n):
        dim = ((1 if case % 5 < 2 else 2) if case % 10 < 9 else 3)
        yield random_tn_class(rng, ZZ, dim, terms=rng.randint(1, 3),
                              length=2, max_rank=2 if dim < 3 else 1)


def test_complement_golden_digests():
    expected = ["df74abd61f363581", "32ec6b181564fbcf", "d81f56ea005a411d",
                "9b716de456725233", "58860df79cd34d54", "607eadfc571373b1",
                "dd28440ec17de295", "9b716de456725233", "2f44fb4aa2e6e1c7",
                "6cc53319d26a35f5"]
    got = [digest(multicomplex_to_doc(complement(M, i)))[:16]
           for M, i in _criterion_5_family(len(expected))]
    assert got == expected


def test_diagonal_represent_golden_digests():
    expected = ["993792d81c0812d9", "121efe85ae23fea6", "0116ad0f3cd17fc2",
                "31e45e30c08e8f0c", "5c01b2b86325ba05", "15ff5aff16886f61",
                "361cf7f0bc60fd94", "5ac57e018fe17235", "727e14e5d9a5780f",
                "b97fcc435f80e9c8"]
    got = [digest(chain_to_doc(diagonal_represent(x, wits)[1]))[:16]
           for x, wits in _criterion_6_family(len(expected))]
    assert got == expected


def test_diagonal_represent_pins_a_fold_of_three_parts():
    # coefficient 3 folds three summands of Z -1-> Z into the positive part;
    # -3 folds them into the negative part and cancels it by its complement.
    # A change of fold order changes these chains, and must re-pin them
    line = unit_complex(ZZ, 1)
    got = []
    for coeff, kinds in ((3, ["ses", "ses"]), (-3, ["ses", "ses", "ses", "diagonal"])):
        _, chain = diagonal_represent(FormalClass.of(line, coeff), [0])
        assert [s.kind for s in chain.steps] == kinds and verify_chain(chain).ok
        got.append(digest(chain_to_doc(chain))[:16])
    assert got == ["dc632b98386bfa32", "14ba9806c91ed0c6"]


def test_diagonal_represent_refuses_generators_it_complements():
    line = _zero_line(ZZ, (2,))
    assert line.is_diagonal_in(0) and not validate(line, "free").ok
    with pytest.raises(NotAcyclic):  # negative: a summand of the part complemented
        diagonal_represent(-FormalClass.of(line), [0])
    flat = _zero_line(ZZ, (2, 1))  # diagonal in axis 1, complemented into axis 0
    with pytest.raises(NotAcyclic):
        diagonal_represent(FormalClass.of(flat), [1], i=0)
    T6 = FpModule(ZZ, 1, Matrix.from_int_rows(ZZ, [[6]]))
    ident = FpMorphism.identity(T6)
    torsion_line = BinaryMulticomplex.from_binary_chain(ZZ, [T6, T6], [ident], [ident])
    with pytest.raises(MembershipRefusal):
        diagonal_represent(-FormalClass.of(torsion_line), [0])
    with pytest.raises(ShapeError):
        diagonal_represent(FormalClass.of(line), [0], i=2)


def test_uncomplemented_invalid_generator_fails_verify_chain():
    # a positive generator witnessed in the target direction is never
    # complemented, so only the chain's own check sees that it is not acyclic
    line = _zero_line(ZZ, (2,))
    t, chain = diagonal_represent(FormalClass.of(line), [0])
    report = verify_chain(chain)
    assert not report.ok and "invalid" in report.reason


def test_check_complement_refuses_a_wrong_complement():
    # N = Z -1-> Z is diagonal in axis 0 with odd ranks at both spots; each T
    # below breaks one promise a complement of N makes
    N = unit_complex(ZZ, 1)
    R = FpModule.free(ZZ, 1)
    z = FpMorphism.zero(R, R)
    not_acyclic = BinaryMulticomplex.from_binary_chain(ZZ, [R, R], [z], [z])
    cases = [(not_acyclic, NotAcyclic, f"constructed complement is invalid: "
              f"{validate(not_acyclic, 'free').first()}"),
             (unit_complex(ZZ, -1), NotDiagonal,
              "constructed complement is not diagonal in direction 0"),
             (BinaryMulticomplex.zero(ZZ, 1), MembershipRefusal,
              "complement left an odd rank at (0,)")]
    for T, error, message in cases:
        with pytest.raises(error) as e:
            cofinal._check_complement(N, 0, T)
        assert str(e.value) == message
    rng = random.Random(3)
    N2 = random_multicomplex(rng, ZZ, 2, length=2, max_rank=2, diagonal_axes=(0, 1))
    T2 = random_multicomplex(rng, ZZ, 2, length=2, max_rank=2, diagonal_axes=(0,))
    assert N2.diagonal_directions() == {0, 1} and T2.diagonal_directions() == {0}
    with pytest.raises(NotDiagonal) as e:
        cofinal._check_complement(N2, 0, T2)
    assert str(e.value) == "constructed complement lost the diagonal direction 1"
