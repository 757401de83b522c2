"""Extensions of binary multicomplexes: exactness checks and repackaging."""
import random

from binmc.extension import ExtensionObject, repack, split_extension, unpack
from binmc.fpmod import FpModule, FpMorphism
from binmc.gen import random_multi_extension, random_multicomplex
from binmc.matrix import Matrix
from binmc.multicomplex import BinaryMulticomplex, MultiMorphism, validate
from binmc.rings import GF, ZZ


def test_split_extension_verifies():
    rng = random.Random(51)
    A = random_multicomplex(rng, ZZ, 1, length=3, bricks=1)
    B = random_multicomplex(rng, ZZ, 1, length=2, bricks=1)
    E = split_extension(A, B)
    assert E.verify() is None
    assert E.sub.equivalent(A) and E.quot.equivalent(B)
    assert validate(E.total, "fp").ok


def test_conjugated_extension_verifies():
    rng = random.Random(53)
    for ring in (ZZ, GF(5)):
        A = random_multicomplex(rng, ring, 2, length=2, bricks=1)
        B = random_multicomplex(rng, ring, 2, length=2, bricks=1)
        E = random_multi_extension(rng, A, B)
        assert E.verify() is None
        assert validate(E.total, "fp").ok


def test_unpack_repack_roundtrip():
    rng = random.Random(57)
    A = random_multicomplex(rng, ZZ, 1, length=2, bricks=1)
    B = random_multicomplex(rng, ZZ, 1, length=2, bricks=1)
    E = random_multi_extension(rng, A, B)
    grid = unpack(E)
    E2 = repack(E.sub, E.total, E.quot, grid)
    assert E2.mono.equals(E.mono) and E2.epi.equals(E.epi)
    assert E2.verify() is None


def test_bad_projection_is_caught():
    free1 = FpModule.free(ZZ, 1)
    A = BinaryMulticomplex.of_module(free1)
    B = BinaryMulticomplex.of_module(free1)
    E = split_extension(A, B)
    # projection that is not surjective onto the quotient
    bad_epi = MultiMorphism(E.total, E.quot, {
        (): FpMorphism(E.total.obj(()), E.quot.obj(()),
                       Matrix.from_int_rows(ZZ, [[0, 2]]), _trusted=True)})
    broken = ExtensionObject(E.sub, E.total, E.quot, E.mono, bad_epi)
    failure = broken.verify()
    assert failure is not None and failure.kind == "ses"


def test_noncommuting_projection_is_caught():
    free1 = FpModule.free(ZZ, 1)
    ident = FpMorphism.identity(free1)
    B = BinaryMulticomplex.from_binary_chain(ZZ, [free1, free1], [ident], [ident])
    A = BinaryMulticomplex.zero(ZZ, 1)
    E = split_extension(A, B)
    assert E.verify() is None
    comps = dict(E.epi.components)
    # flipping the sign at one end keeps each fiber exact but breaks the square
    comps[(0,)] = comps[(0,)].scale(ZZ.from_int(-1))
    twisted = ExtensionObject(E.sub, E.total, E.quot, E.mono,
                              MultiMorphism(E.total, E.quot, comps))
    failure = twisted.verify()
    assert failure is not None and failure.kind == "epi-square"
