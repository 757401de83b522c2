"""Extensions of binary multicomplexes: exactness checks and repackaging."""
import random

from binmc import complexes, extension, fpmod
from binmc.cofinal import diagonal_represent
from binmc.extension import ExtensionObject, repack, split_extension, unpack
from binmc.fpmod import FpModule, FpMorphism
from binmc.gen import random_multi_extension, random_multicomplex, random_tn_class
from binmc.kgroups import RelationChain, SesStep, verify_chain
from binmc.matrix import Matrix
from binmc.multicomplex import BinaryMulticomplex, MultiMorphism, box_coords, validate
from binmc.rings import GF, ZZ, polynomial_ring
from binmc.serialize import chain_from_doc, chain_to_doc


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


F5X = polynomial_ring(GF(5))


def _stripped(E):
    """The same extension without its carried splittings."""
    return repack(E.sub, E.total, E.quot, unpack(E))


def _free_at(E, c):
    return all(M.objects[c].is_free_presentation() for M in E.members())


def _with(E, mono=None, epi=None, sect=None, retr=None):
    return ExtensionObject(E.sub, E.total, E.quot, mono or E.mono, epi or E.epi,
                           E.sect if sect is None else sect, E.retr if retr is None else retr)


def _rescaled(mor, coords, k):
    return MultiMorphism(mor.source, mor.target, {
        c: f.scale(k) if c in coords else f for c, f in mor.components.items()})


def _broken(E):
    """(label, extension) pairs that keep E's splittings beside a fault."""
    two = E.total.ring.from_int(2)
    c = next((c for c in sorted(E.epi.components) if not E.epi.components[c].mat.is_zero()),
             None)
    if c is None:
        return
    yield "epi doubled at one coordinate", _with(E, epi=_rescaled(E.epi, {c}, two))
    yield "epi doubled", _with(E, epi=_rescaled(E.epi, set(E.epi.components), two))
    yield "mono zeroed", _with(E, mono=MultiMorphism.zero(E.sub, E.total))
    yield "section doubled", _with(E, sect={**E.sect, c: E.sect[c].scale(two)})
    r = E.retr[c]
    yield "retraction misshapen", _with(
        E, retr={**E.retr, c: Matrix.zeros(E.total.ring, r.rows, r.cols + 1)})
    yield "section missing", _with(E, sect={k: s for k, s in E.sect.items() if k != c})
    yield "retraction missing", _with(E, retr={k: r for k, r in E.retr.items() if k != c})


def _extension_cases():
    rng = random.Random(227)
    for ring in (ZZ, GF(7), F5X):
        for dim, fp in ((1, False), (2, False), (1, True), (2, True)):
            A, B = (random_multicomplex(rng, ring, dim, length=2, bricks=1, allow_fp=fp)
                    for _ in range(2))
            E = split_extension(A, B)
            yield "split", E
            yield "conjugated", random_multi_extension(rng, A, B)
            yield from _broken(E)


def _count_check_ses(monkeypatch, modules):
    """A one-element list that counts the check_ses calls made through modules."""
    calls, check_ses = [0], fpmod.check_ses

    def counted_ses(i, p):
        calls[0] += 1
        return check_ses(i, p)

    for module in modules:
        monkeypatch.setattr(module, "check_ses", counted_ses)
    return calls


def test_carried_splittings_give_the_verdicts_of_check_ses(monkeypatch):
    calls = _count_check_ses(monkeypatch, [extension])
    seen, kinds, fallbacks = set(), set(), 0
    for label, E in _extension_cases():
        want = _stripped(E).verify()
        calls[0] = 0
        got = E.verify()
        assert got == want, label
        kinds.add(None if got is None else got.kind)
        seen.add(label)
        if label == "split":
            # a split extension settles every free coordinate by products, and
            # a coordinate whose members carry relations falls back
            assert got is None and calls[0] == sum(
                not _free_at(E, c) for c in box_coords(E.total.shape))
            fallbacks += calls[0]
    assert fallbacks > 0 and "mono zeroed" in seen and "retraction missing" in seen
    assert kinds == {None, "ses", "epi-square"}


def _chains():
    rng = random.Random(229)
    for ring in (ZZ, GF(7)):
        for dim in (1, 2):
            x, wits = random_tn_class(rng, ring, dim, terms=3, length=2, max_rank=2)
            yield diagonal_represent(x, wits)[1]


def _corrupted(chain):
    """The chain with the extension of its first SES step doubled in the
    projection (and its splitting kept), and with that step's sign flipped."""
    k, step = next((k, s) for k, s in enumerate(chain.steps) if isinstance(s, SesStep))
    E = step.ext
    doubled = _with(E, epi=_rescaled(E.epi, set(E.epi.components), E.total.ring.from_int(2)))
    for bad in (SesStep(doubled, step.sign), SesStep(E, -step.sign)):
        yield RelationChain(chain.start, chain.steps[:k] + [bad] + chain.steps[k + 1:],
                            chain.end)


def test_chains_verify_alike_from_memory_and_from_documents(monkeypatch):
    calls = _count_check_ses(monkeypatch, [fpmod, complexes, extension])
    reports = []
    for chain in _chains():
        calls[0] = 0
        report = verify_chain(chain)
        # every SES step is a split_extension between free members
        assert report.ok and calls[0] == 0, report.reason
        for variant in [chain, *_corrupted(chain)]:
            got = verify_chain(variant)
            assert got == verify_chain(chain_from_doc(chain_to_doc(variant)))
            reports.append(got.ok)
    assert True in reports and False in reports


def test_noncommuting_inclusion_is_caught():
    free1 = FpModule.free(ZZ, 1)
    ident = FpMorphism.identity(free1)
    A = BinaryMulticomplex.from_binary_chain(ZZ, [free1, free1], [ident], [ident])
    E = split_extension(A, BinaryMulticomplex.zero(ZZ, 1))
    comps = dict(E.mono.components)
    # flipping the sign at one end keeps each fiber exact but breaks the square
    comps[(0,)] = comps[(0,)].scale(ZZ.from_int(-1))
    twisted = ExtensionObject(E.sub, E.total, E.quot, MultiMorphism(E.sub, E.total, comps),
                              E.epi)
    failure = twisted.verify()
    assert (failure.kind, failure.coord, failure.detail) == (
        "mono-square", (), "inclusion does not commute with differentials")
