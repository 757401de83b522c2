"""Acceptance gate: ten standalone checks with explicit counts and bounds.

Each criterion prints a single PASS line describing what was checked.  The
lines are deterministic for the fixed seeds, so the last criterion re-runs
every randomized one and compares the verdict lines byte for byte.  Wall
time is asserted separately and never appears in a verdict line.
"""
import random
import time

from binmc.cofinal import complement, diagonal_represent, rel_class
from binmc.complexes import acyclicity_witness, homology, homology_by_ranks
from binmc.extension import repack, unpack
from binmc.fpmod import FpModule, FpMorphism
from binmc.gen import (random_acyclic_complex,
                       random_complex_with_known_homology, random_fp_module,
                       random_multi_extension, random_multicomplex,
                       random_tn_class, random_unimodular)
from binmc.kgroups import (FormalClass, tn_membership_certificate, torsion,
                           verify_chain)
from binmc.matrix import Matrix, hstack
from binmc.multicomplex import (BinaryMulticomplex, direct_sum_multi,
                                validate)
from binmc.resolve import (phi_class, resolve_binary, resolve_multi,
                           verify_resolution)
from binmc.rings import PrimeField, QQ, ZZ

GF7 = PrimeField(7)
_RESULTS = {}


def _bounded(rng, ring, dim, length, max_rank, allow_fp=False,
             diagonal_axes=(), cap_rank=3, cap_support=3, tries=80):
    """Rejection-sample a multicomplex with capped support and object ranks."""
    for _ in range(tries):
        M = random_multicomplex(rng, ring, dim, length=length,
                                max_rank=max_rank, bricks=1,
                                allow_fp=allow_fp, diagonal_axes=diagonal_axes)
        if all(s <= cap_support for s in M.shape) and \
                all(r <= cap_rank for r in M.rank_grid().values()):
            return M
    raise AssertionError("bounded sampling failed; widen the caps")


def _unit_complex(ring, u):
    m = FpModule.free(ring, 1)
    top = FpMorphism(m, m, Matrix(ring, 1, 1, [ring.one]))
    bot = FpMorphism(m, m, Matrix(ring, 1, 1, [u]))
    return BinaryMulticomplex(ring, 1, (2,), {(0,): m, (1,): m},
                              {(0, (1,)): top}, {(0, (1,)): bot})


def _record(k, line):
    _RESULTS[k] = line
    print(line)
    assert line.startswith(f"criterion {k}: PASS")


# -- criterion bodies (pure in their seed, returning the verdict line) -------


def _criterion_1():
    rng = random.Random(101)
    degrees = acyclic = nonacyclic = 0
    for ring in (ZZ, GF7):
        for _ in range(250):
            length = rng.randint(2, 6)
            if rng.random() < 0.5:
                C, expected = random_complex_with_known_homology(
                    rng, ring, length=length, max_rank=5)
            else:
                C = random_acyclic_complex(rng, ring, length=length,
                                           max_rank=5, allow_fp=False)
                expected = {k: (0, ()) for k in range(C.length)}
            vanish = True
            for k in range(C.length):
                by_modules = homology(C, k).canonical()
                betti, tors = homology_by_ranks(C, k)
                assert by_modules == (betti, tuple(tors))
                exp = expected[k]
                assert by_modules == (exp[0], tuple(exp[1]))
                if by_modules != (0, ()):
                    vanish = False
                degrees += 1
            assert acyclicity_witness(C).ok == vanish
            if vanish:
                acyclic += 1
            else:
                nonacyclic += 1
    return (f"criterion 1: PASS (500 complexes over ZZ and GF(7), "
            f"{acyclic} acyclic / {nonacyclic} not, witness iff vanishing, "
            f"two algorithms agree at {degrees} degrees)")


def _criterion_2():
    rng = random.Random(102)
    for _ in range(200):
        M = random_multicomplex(rng, ZZ, 1, length=rng.randint(2, 5),
                                max_rank=3, allow_fp=True)
        rep = verify_resolution(resolve_binary(M, check=False))
        assert rep.ok, rep.first()
    return ("criterion 2: PASS (200 fp resolutions, free objects, "
            "coordinatewise SES, kernels acyclic for both differentials)")


def _criterion_3():
    rng = random.Random(103)
    checked = 0
    for case in range(30):
        dim = (1, 1, 2, 2, 3)[case % 5]
        axes = tuple(sorted(rng.sample(range(dim), rng.randint(1, dim))))
        ring = (ZZ, GF7)[case % 2]
        M = _bounded(rng, ring, dim, length=2 if dim == 3 else rng.randint(2, 3),
                     max_rank=1 if dim == 3 else 2, diagonal_axes=axes)
        dirs = M.diagonal_directions()
        assert dirs
        res = resolve_multi(M, check=False)
        for a in dirs:
            assert res.P.is_diagonal_in(a)
            assert res.Pprime.is_diagonal_in(a)
            checked += 1
    return (f"criterion 3: PASS (30 diagonal inputs up to n=3, cover and "
            f"kernel diagonal in all {checked} input directions)")


def _criterion_4():
    rng = random.Random(104)
    for case in range(50):
        M = _bounded(rng, ZZ, 2, length=rng.randint(2, 3), max_rank=2,
                     allow_fp=case % 2 == 0)
        assert verify_resolution(resolve_multi(M, check=False)).ok
    for case in range(10):
        M = _bounded(rng, ZZ, 3, length=2, max_rank=1, allow_fp=case % 2 == 0)
        assert verify_resolution(resolve_multi(M, check=False)).ok
    return ("criterion 4: PASS (50 n=2 and 10 n=3 resolutions verified, "
            "support <= 3 per axis, ranks <= 3)")


def _criterion_5():
    rng = random.Random(105)
    with_second = 0
    for case in range(100):
        dim = ((1 if case % 5 < 2 else 2) if case % 10 < 8 else 3)
        i = rng.randrange(dim)
        axes = ()
        if dim > 1 and case % 2 == 0:
            axes = (rng.choice([a for a in range(dim) if a != i]),)
        M = random_multicomplex(rng, ZZ, dim,
                                length=2 if dim == 3 else rng.randint(2, 3),
                                max_rank=2 if dim < 3 else 1,
                                diagonal_axes=axes)
        T = complement(M, i)
        assert T.is_diagonal_in(i)
        assert rel_class(direct_sum_multi([M, T])).is_zero()
        assert validate(T, "free").ok
        for j in M.diagonal_directions() - {i}:
            assert T.is_diagonal_in(j)
            with_second += 1
    return (f"criterion 5: PASS (100 complements over free ZZ up to n=3, "
            f"even total ranks, {with_second} second directions kept)")


def _criterion_6():
    rng = random.Random(106)
    for case in range(100):
        dim = ((1 if case % 5 < 2 else 2) if case % 10 < 9 else 3)
        x, wits = random_tn_class(rng, ZZ, dim, terms=rng.randint(1, 3),
                                  length=2, max_rank=2 if dim < 3 else 1)
        assert tn_membership_certificate(x, wits).ok
        t, chain = diagonal_represent(x, wits)
        i_used = wits[0] if wits else 0
        assert t.is_diagonal_in(i_used)
        assert verify_chain(chain).ok
        assert chain.start == x and chain.end == FormalClass.of(t)
    return ("criterion 6: PASS (100 certified classes rewritten to a "
            "diagonal representative with a verified relation chain)")


def _random_cover(rng, M):
    g = M.gens
    extra = rng.randint(0, 2)
    U, _ = random_unimodular(rng, ZZ, g)
    if extra:
        R = Matrix(ZZ, g, extra,
                   [ZZ.from_int(rng.randint(-2, 2)) for _ in range(g * extra)])
        mat = hstack([U, R])
    else:
        mat = U
    return FpMorphism(FpModule.free(ZZ, g + extra), M, mat)


def _criterion_7():
    rng = random.Random(107)
    free_checked = 0
    for _ in range(100):
        M = random_fp_module(rng, ZZ, max_gens=4)
        v1 = phi_class(M, _random_cover(rng, M))
        v2 = phi_class(M, _random_cover(rng, M))
        assert v1 == v2 == phi_class(M)
        if M.is_free_presentation():
            assert v1 == M.gens
            free_checked += 1
    F = FpModule.free(ZZ, 3)
    assert phi_class(F, _random_cover(rng, F)) == 3
    return (f"criterion 7: PASS (100 modules, two independent covers agree, "
            f"{free_checked + 1} free modules recover their rank)")


def _criterion_8():
    rng = random.Random(108)
    for case in range(100):
        ring = (ZZ, QQ, GF7)[case % 3]
        M = random_multicomplex(rng, ring, 1, length=rng.randint(2, 4),
                                max_rank=2, diagonal_axes=(0,))
        assert torsion(M) == ring.one
    pinned = [(ZZ, ZZ.from_int(1), ZZ.from_int(1)),
              (ZZ, ZZ.from_int(-1), ZZ.from_int(-1)),
              (QQ, QQ.from_int(2), QQ.element_from_doc("1/2")),
              (QQ, QQ.from_int(-2), QQ.element_from_doc("-1/2")),
              (GF7, GF7.from_int(3), GF7.from_int(5))]
    for ring, u, expected in pinned:
        assert torsion(_unit_complex(ring, u)) == expected
    pairs = 0
    for case in range(200):
        ring = (ZZ, QQ, PrimeField(5))[case % 3]
        X = random_multicomplex(rng, ring, 1, length=rng.randint(2, 3), max_rank=2)
        Y = random_multicomplex(rng, ring, 1, length=rng.randint(2, 3), max_rank=2)
        assert torsion(direct_sum_multi([X, Y])) == ring.mul(torsion(X), torsion(Y))
        pairs += 1
    return (f"criterion 8: PASS (100 diagonal instances with unit torsion, "
            f"5 pinned unit complexes, {pairs} exact product identities)")


def _criterion_9():
    rng = random.Random(109)
    diagonal_totals = 0
    for case in range(100):
        dim = 1 + case % 2
        i = rng.randrange(dim)
        make_diag = case % 2 == 0
        axes = (i,) if make_diag else ()
        sub = random_multicomplex(rng, ZZ, dim, length=2, max_rank=2,
                                  diagonal_axes=axes)
        quot = random_multicomplex(rng, ZZ, dim, length=2, max_rank=2,
                                   diagonal_axes=axes)
        E = random_multi_extension(rng, sub, quot)
        grid = unpack(E)
        E2 = repack(E.sub, E.total, E.quot, grid)
        assert E2.sub == E.sub and E2.total == E.total and E2.quot == E.quot
        assert all(E2.mono.components[c].mat == E.mono.components[c].mat
                   for c in grid)
        assert all(E2.epi.components[c].mat == E.epi.components[c].mat
                   for c in grid)
        assert E2.verify() is None
        for a in range(dim):
            if E.total.is_diagonal_in(a):
                assert E.sub.is_diagonal_in(a) and E.quot.is_diagonal_in(a)
        if make_diag:
            assert E.total.is_diagonal_in(i)
            diagonal_totals += 1
    return (f"criterion 9: PASS (100 exact repack round trips, diagonality "
            f"componentwise both ways, {diagonal_totals} diagonal totals)")


_CRITERIA = {1: _criterion_1, 2: _criterion_2, 3: _criterion_3,
             4: _criterion_4, 5: _criterion_5, 6: _criterion_6,
             7: _criterion_7, 8: _criterion_8, 9: _criterion_9}


# -- the ten gate tests -------------------------------------------------------


def test_criterion_1_homology_witness_equivalence():
    t0 = time.monotonic()
    line = _criterion_1()
    assert time.monotonic() - t0 <= 60.0
    _record(1, line)


def test_criterion_2_resolution_engine():
    t0 = time.monotonic()
    line = _criterion_2()
    assert time.monotonic() - t0 <= 120.0
    _record(2, line)


def test_criterion_3_diagonality_preservation():
    _record(3, _criterion_3())


def test_criterion_4_multicomplex_induction():
    _record(4, _criterion_4())


def test_criterion_5_cofinality_construction():
    _record(5, _criterion_5())


def test_criterion_6_diagonal_representation():
    _record(6, _criterion_6())


def test_criterion_7_phi_well_definedness():
    _record(7, _criterion_7())


def test_criterion_8_torsion_invariant():
    _record(8, _criterion_8())


def test_criterion_9_additivity_repackaging():
    _record(9, _criterion_9())


def test_criterion_10_determinism():
    for k in sorted(_CRITERIA):
        first = _RESULTS.get(k) or _CRITERIA[k]()
        rerun = _CRITERIA[k]()
        assert rerun.encode("utf-8") == first.encode("utf-8"), k
    line = "criterion 10: PASS (criteria 1-9 verdict lines byte-identical on seeded rerun)"
    print(line)
