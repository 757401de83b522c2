"""Finitely presented modules: canonical forms, kernels/cokernels, SES checks.

The prime-field cases are checked against a brute-force oracle that enumerates
every vector, so the lattice computations are validated independently.
"""
import itertools
import random
from fractions import Fraction

import pytest

from binmc.errors import IllDefinedMorphism
from binmc.fpmod import (FpModule, FpMorphism, SesVerdict, analyze, check_ses,
                         cokernel, direct_sum_modules, factor_through_mono,
                         free_cover, hsum, image, is_epi, is_mono, kernel,
                         split_inclusion, split_projection)
from binmc.matrix import Matrix
from binmc.rings import GF, QQ, ZZ, polynomial_ring


def zmod(n):
    return FpModule(ZZ, 1, Matrix.from_int_rows(ZZ, [[n]]))


def pres(ring, gens, cols):
    return FpModule(ring, gens, Matrix.from_int_rows(ring, cols) if gens else Matrix.zeros(ring, 0, 0))


def test_canonical_forms_hand_values():
    assert FpModule.free(ZZ, 3).canonical() == (3, ())
    assert FpModule.zero(ZZ).canonical() == (0, ())
    assert zmod(4).canonical() == (0, (4,))
    # Z/2 + Z/3 is cyclic of order 6
    m = pres(ZZ, 2, [[2, 0], [0, 3]])
    assert m.canonical() == (0, (6,))
    # unit relations kill generators
    m = pres(ZZ, 2, [[1, 0], [0, 5]])
    assert m.canonical() == (0, (5,))
    assert m.free_rank() == 0


def test_canonical_form_presentation_invariant():
    rng = random.Random(3)
    base = pres(ZZ, 3, [[2, 0], [0, 6], [0, 0]])
    want = base.canonical()
    for _ in range(25):
        rows = base.rels.row_list()
        # random invertible row/column moves plus stabilization
        for _ in range(6):
            op = rng.randrange(3)
            if op == 0 and len(rows) > 1:
                i, j = rng.sample(range(len(rows)), 2)
                c = rng.randint(-2, 2)
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            elif op == 1 and rows and len(rows[0]) > 1:
                j, k = rng.sample(range(len(rows[0])), 2)
                c = rng.randint(-2, 2)
                for r in rows:
                    r[j] += c * r[k]
            else:
                for r in rows:
                    r.append(0)
        m = FpModule(ZZ, 3, Matrix.from_int_rows(ZZ, rows))
        assert m.canonical() == want
    # stabilization by a new generator with a unit relation
    stab = pres(ZZ, 4, [[2, 0, 0], [0, 6, 0], [0, 0, 0], [0, 0, 1]])
    assert stab.canonical() == want
    assert stab.is_isomorphic(base)


def test_morphism_well_definedness():
    z2, z4 = zmod(2), zmod(4)
    with pytest.raises(IllDefinedMorphism):
        FpMorphism(z2, z4, Matrix.from_int_rows(ZZ, [[1]]))
    f = FpMorphism(z2, z4, Matrix.from_int_rows(ZZ, [[2]]))
    assert is_mono(f)
    assert not is_epi(f)


def test_equals_compares_matrices_before_subtracting(monkeypatch):
    # Z^2 -> Z/6 + Z/4 + Z: equal matrices, matrices that differ by relations,
    # and morphisms that differ
    target = pres(ZZ, 3, [[6, 0], [0, 4], [0, 0]])
    source = FpModule.free(ZZ, 2)

    def mor(rows):
        return FpMorphism(source, target, Matrix.from_int_rows(ZZ, rows))

    f = mor([[1, 5], [3, -2], [7, 0]])
    same = mor([[1, 5], [3, -2], [7, 0]])
    shifted = mor([[7, -1], [3, 6], [7, 0]])  # f plus multiples of 6, 4 and 0
    other = [mor([[2, 5], [3, -2], [7, 0]]),  # 1 in Z/6 changed
             mor([[1, 5], [3, 0], [7, 0]]),  # 2 in Z/4 changed
             mor([[1, 5], [3, -2], [7, 6]])]  # the free part changed
    assert shifted.mat != f.mat
    assert shifted.equals(f) and f.equals(shifted)
    assert not any(g.equals(f) or f.equals(g) for g in other)

    def refuse(*args):
        raise AssertionError("equal matrices were subtracted")

    monkeypatch.setattr(Matrix, "__sub__", refuse)
    assert f.equals(same) and f.equals(f)


def test_kernel_cokernel_image_hand_example():
    # multiplication by 2 on Z
    free1 = FpModule.free(ZZ, 1)
    f = FpMorphism(free1, free1, Matrix.from_int_rows(ZZ, [[2]]))
    a = analyze(f)
    assert a.is_mono and not a.is_epi
    assert a.kernel.canonical() == (0, ())
    assert a.cokernel.canonical() == (0, (2,))
    assert a.image.canonical() == (1, ())


def test_kernel_of_doubling_on_z4():
    z4 = zmod(4)
    f = FpMorphism(z4, z4, Matrix.from_int_rows(ZZ, [[2]]))
    K, incl = kernel(f)
    assert K.canonical() == (0, (2,))
    assert (f @ incl).is_zero()
    C, proj = cokernel(f)
    assert C.canonical() == (0, (2,))
    I, i_incl, i_coproj = image(f)
    assert I.canonical() == (0, (2,))
    assert i_incl.equals(f @ FpMorphism.identity(z4)) or (f.mat == i_incl.mat)


def test_kernel_inclusion_is_mono_and_kills_f():
    rng = random.Random(17)
    for _ in range(30):
        g, h = rng.randint(0, 3), rng.randint(0, 3)
        src = FpModule(ZZ, g, Matrix.from_int_rows(
            ZZ, [[rng.choice([0, 0, 2, 3, 4]) if i == j else 0 for j in range(g)] for i in range(g)])
            if g else Matrix.zeros(ZZ, 0, 0))
        tgt = FpModule(ZZ, h, Matrix.from_int_rows(
            ZZ, [[rng.choice([0, 0, 2, 3]) if i == j else 0 for j in range(h)] for i in range(h)])
            if h else Matrix.zeros(ZZ, 0, 0))
        # build a well-defined morphism by rejection
        for _ in range(40):
            mat = Matrix.from_int_rows(ZZ, [[rng.randint(-2, 2) for _ in range(g)] for _ in range(h)]) \
                if h else Matrix.zeros(ZZ, 0, g)
            try:
                f = FpMorphism(src, tgt, mat)
                break
            except IllDefinedMorphism:
                continue
        else:
            continue
        K, incl = kernel(f)
        assert is_mono(incl)
        assert (f @ incl).is_zero()
        C, proj = cokernel(f)
        assert is_epi(proj)
        assert (proj @ f).is_zero()


def _span(vectors, p, dim):
    """All linear combinations of the given vectors over GF(p)."""
    out = {(0,) * dim}
    for v in vectors:
        grown = set()
        for c in range(p):
            for w in out:
                grown.add(tuple((a + c * b) % p for a, b in zip(w, v)))
        out = grown
    return out


def _cols(mat):
    return [tuple(mat.get(i, j) for i in range(mat.rows)) for j in range(mat.cols)]


def test_prime_field_oracle_enumeration():
    """Kernel/image/cokernel dims match exhaustive enumeration over GF(p)."""
    rng = random.Random(41)
    for p in (2, 3):
        F = GF(p)
        for _ in range(25):
            g, h = rng.randint(0, 3), rng.randint(0, 3)
            sc, tc = rng.randint(0, 2), rng.randint(0, 2)
            src_rels = Matrix.from_int_rows(
                F, [[rng.randrange(p) for _ in range(sc)] for _ in range(g)]) \
                if g else Matrix.zeros(F, 0, 0)
            tgt_rels = Matrix.from_int_rows(
                F, [[rng.randrange(p) for _ in range(tc)] for _ in range(h)]) \
                if h else Matrix.zeros(F, 0, 0)
            src = FpModule(F, g, src_rels)
            tgt = FpModule(F, h, tgt_rels)
            for _ in range(30):
                mat = Matrix.from_int_rows(F, [[rng.randrange(p) for _ in range(g)] for _ in range(h)]) \
                    if h else Matrix.zeros(F, 0, g)
                try:
                    f = FpMorphism(src, tgt, mat)
                    break
                except IllDefinedMorphism:
                    continue
            else:
                continue

            rel_src = _span(_cols(src.rels), p, g)
            rel_tgt = _span(_cols(tgt.rels), p, h)

            def apply(x):
                return tuple(sum(mat.get(i, j) * x[j] for j in range(g)) % p for i in range(h))

            big_kernel = [x for x in itertools.product(range(p), repeat=g)
                          if apply(x) in rel_tgt]
            kernel_size = len(big_kernel) // len(rel_src)
            image_set = _span([apply(x) for x in itertools.product(range(p), repeat=g)]
                              + _cols(tgt.rels), p, h)
            module_size = p ** h // len(rel_tgt)
            image_size = len(image_set) // len(rel_tgt)
            coker_size = module_size // image_size

            a = analyze(f)
            assert p ** a.kernel.canonical()[0] == kernel_size
            assert a.kernel.canonical()[1] == ()
            assert p ** a.image.canonical()[0] == image_size
            assert p ** a.cokernel.canonical()[0] == coker_size


def test_ses_hand_example():
    free1 = FpModule.free(ZZ, 1)
    z2 = zmod(2)
    i = FpMorphism(free1, free1, Matrix.from_int_rows(ZZ, [[2]]))
    p = FpMorphism(free1, z2, Matrix.from_int_rows(ZZ, [[1]]))
    assert check_ses(i, p).ok
    # doubling into Z/2 is zero, so (x2, proj) fails exactness
    bad = FpMorphism(free1, free1, Matrix.from_int_rows(ZZ, [[4]]))
    verdict = check_ses(bad, p)
    assert not verdict.ok


def test_ses_rejects_non_mono():
    z2 = zmod(2)
    free1 = FpModule.free(ZZ, 1)
    i = FpMorphism.zero(z2, free1)
    p = FpMorphism(free1, zmod(2), Matrix.from_int_rows(ZZ, [[1]]))
    assert not check_ses(i, p).ok


def test_split_ses():
    a, c = zmod(4), FpModule.free(ZZ, 2)
    i = split_inclusion([a, c], 0)
    p = split_projection([a, c], 1)
    assert check_ses(i, p).ok


def test_free_cover_is_epi():
    m = pres(ZZ, 3, [[2, 0], [0, 0], [1, 3]])
    eps = free_cover(m)
    assert is_epi(eps)
    assert eps.source.is_free_presentation()
    K, incl = kernel(eps)
    assert K.is_free_presentation()  # submodule of a free module over a PID


def test_factor_through_mono():
    free1 = FpModule.free(ZZ, 1)
    two = FpMorphism(free1, free1, Matrix.from_int_rows(ZZ, [[2]]))
    four = FpMorphism(free1, free1, Matrix.from_int_rows(ZZ, [[4]]))
    g = factor_through_mono(two, four)
    assert g is not None and g.mat == Matrix.from_int_rows(ZZ, [[2]])
    assert factor_through_mono(four, two) is None


def test_hsum_and_direct_sum():
    z2, z3 = zmod(2), zmod(3)
    f = hsum([FpMorphism.identity(z2), FpMorphism.zero(z3, z2)])
    assert f.source.canonical() == direct_sum_modules([z2, z3]).canonical()
    assert is_epi(f)


# -- check_ses by invariant factors against the kernel route ---------------------

F5X = polynomial_ring(GF(5))
RINGS = [ZZ, GF(7), QQ, F5X]
RING_IDS = ["ZZ", "GF7", "QQ", "F5X"]


def _check_ses_by_kernel(i, p):
    """check_ses decided through ker(p), a factorization and kernels throughout."""
    if i.target != p.source:
        return SesVerdict(False, "middle objects differ")
    if not kernel(i)[0].is_zero_module():
        return SesVerdict(False, "first map is not mono")
    if not cokernel(p)[0].is_zero_module():
        return SesVerdict(False, "second map is not epi")
    if not (p @ i).is_zero():
        return SesVerdict(False, "composite is not zero")
    K, incl = kernel(p)
    g = factor_through_mono(incl, i)
    if g is None:
        return SesVerdict(False, "first map does not factor through ker(p)")
    if not cokernel(g)[0].is_zero_module():
        return SesVerdict(False, "image of first map is smaller than ker(p)")
    return SesVerdict(True)


def _element(rng, ring):
    """Small entries, zero a third of the time; over F5[x] degree up to 2."""
    if rng.random() < 0.35:
        return ring.zero
    if ring == F5X:
        return F5X.poly([rng.randint(0, 4) for _ in range(rng.randint(1, 3))])
    if ring == QQ:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return ring.from_int(rng.randint(-4, 4))


def _mat(rng, ring, n, m):
    return Matrix(ring, n, m, [_element(rng, ring) for _ in range(n * m)])


def _module(rng, ring, gens):
    return FpModule(ring, gens, _mat(rng, ring, gens, rng.randint(0, gens)))


def _sequences(rng, ring):
    """Candidate (i, p) pairs, exact and not, with free and torsion sources."""
    t = {"integers": 2, "polynomials-over": F5X.poly([0, 1])}.get(ring.kind)
    one, zero = ring.one, ring.zero
    free = lambda n: FpModule.free(ring, n)
    mor = lambda s, d, rows: FpMorphism(s, d, Matrix.from_rows(ring, rows))
    out = []
    for _ in range(12):
        B = _module(rng, ring, rng.randint(0, 3))
        # a free source mapped anywhere, with p the cokernel of itself, of a
        # wider map, or of a random map
        A = free(rng.randint(0, 2))
        i = FpMorphism(A, B, _mat(rng, ring, B.gens, A.gens))
        wider = hsum([i, FpMorphism(free(1), B, _mat(rng, ring, B.gens, 1))])
        other = FpMorphism(free(1), B, _mat(rng, ring, B.gens, 1))
        out += [(i, cokernel(f)[1]) for f in (i, wider, other)]
        # a torsion source: B itself mapped by a scalar c, against the cokernels
        # of c and c^2
        c = _element(rng, ring) or one
        cB = FpMorphism(B, B, Matrix.identity(ring, B.gens).scale(c))
        out += [(cB, cokernel(cB)[1]), (cB, cokernel(cB @ cB)[1]),
                (cB, FpMorphism.identity(B)), (cB, FpMorphism.zero(B, B))]
        # a kernel inclusion and the cover it resolves
        eps = free_cover(B)
        out.append((kernel(eps)[1], eps))
        # split sequences, and a middle object that differs
        C = _module(rng, ring, rng.randint(0, 2))
        out.append((split_inclusion([B, C], 0), split_projection([B, C], 1)))
        out.append((split_inclusion([B, C], 0), split_projection([C, B], 0)))
    if t is not None:
        t2 = ring.mul(t, t)
        Zt, Zt2, Zt3 = (FpModule(ring, 1, Matrix.from_rows(ring, [[x]]))
                        for x in (t, t2, ring.mul(t2, t)))
        out += [
            # 0 -> R -t^2-> R -> R/t -> 0: the image is smaller than ker(p)
            (mor(free(1), free(1), [[t2]]), mor(free(1), Zt, [[one]])),
            (mor(free(1), free(1), [[t]]), mor(free(1), Zt, [[one]])),
            # free rank right, torsion wrong: coker(i) = R/t^2 + R against R/t + R
            (mor(free(1), free(2), [[t2], [zero]]),
             mor(free(2), direct_sum_modules([Zt, free(1)]), [[one, zero], [zero, one]])),
            # torsion sources: R/t -t-> R/t^2 -> R/t exact, R/t -t^2-> R/t^3 not
            (mor(Zt, Zt2, [[t]]), mor(Zt2, Zt, [[one]])),
            (mor(Zt, Zt3, [[t2]]), mor(Zt3, Zt, [[one]])),
            (mor(Zt2, Zt2, [[t]]), mor(Zt2, Zt, [[one]])),
        ]
    # 0 -> R -> R^2 -> 0: epi onto zero, composite zero, image too small
    out.append((mor(free(1), free(2), [[one], [zero]]), FpMorphism.zero(free(2), free(0))))
    return out


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_check_ses_matches_the_kernel_route(ring):
    rng = random.Random(f"ses:{ring.kind}")
    reasons = {}
    for i, p in _sequences(rng, ring):
        want = _check_ses_by_kernel(i, p)
        assert check_ses(i, p) == want
        reasons[want.reason] = reasons.get(want.reason, 0) + 1
    every = {"", "middle objects differ", "first map is not mono", "second map is not epi",
             "composite is not zero", "image of first map is smaller than ker(p)"}
    assert set(reasons) == every, reasons


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_is_mono_by_ranks_matches_the_kernel(ring):
    rng = random.Random(f"mono:{ring.kind}")
    seen = set()
    for _ in range(80):
        A = FpModule.free(ring, rng.randint(0, 3))
        B = _module(rng, ring, rng.randint(0, 4))
        f = FpMorphism(A, B, _mat(rng, ring, B.gens, A.gens))
        want = kernel(f)[0].is_zero_module()
        assert is_mono(f) == want
        seen.add((want, B.rels.cols > 0))
    assert seen == {(True, False), (False, False), (True, True), (False, True)}
