"""Binary multicomplex structure: validation, towers, embedding, images."""
import random
import tracemalloc

import pytest

from binmc import matrix, multicomplex
from binmc.cofinal import complement
from binmc.complexes import acyclicity_witness
from binmc.errors import NotAcyclic, ShapeError
from binmc.fpmod import FpModule, FpMorphism
from binmc.gen import conjugate_multicomplex, random_multicomplex
from binmc.kgroups import FormalClass, RelationChain, torsion, verify_chain
from binmc.matrix import Matrix, block_matrix
from binmc.multicomplex import (BinaryMulticomplex, MultiMorphism,
                                block_identity_morphism, box_coords,
                                collapse_along, common_shape, diagonal_embed, diagonality_report,
                                direct_sum_multi, expand_along,
                                image_multicomplex, layered_sum, pad_morphism,
                                pad_to, rediagonalize, shift, shift_morphism,
                                staircase, summand_inclusion,
                                summand_projection, validate)
from binmc.resolve import resolve_multi, verify_resolution
from binmc.rings import GF, QQ, ZZ, polynomial_ring
from binmc.serialize import digest, multicomplex_to_doc

F5X = polynomial_ring(GF(5))


def _square_free(ring, a00, a01, a10, a11):
    """2x2 box of rank-1 free modules; per-axis maps given as scalars."""
    free1 = FpModule.free(ring, 1)
    objects = {c: free1 for c in box_coords((2, 2))}

    def mor(v):
        return FpMorphism(free1, free1, Matrix.from_int_rows(ring, [[v]]), _trusted=True)

    tops = {(0, (1, 0)): mor(a00), (0, (1, 1)): mor(a01),
            (1, (0, 1)): mor(a10), (1, (1, 1)): mor(a11)}
    bots = dict(tops)
    return BinaryMulticomplex(ring, 2, (2, 2), objects, tops, bots)


def test_construction_rejects_bad_tables():
    free1 = FpModule.free(ZZ, 1)
    with pytest.raises(ShapeError):
        BinaryMulticomplex(ZZ, 1, (2,), {(0,): free1}, {}, {})  # missing object
    ident = FpMorphism.identity(free1)
    with pytest.raises(ShapeError):
        BinaryMulticomplex(ZZ, 1, (2,), {(0,): free1, (1,): free1}, {}, {})  # missing diff
    wrong = FpMorphism.zero(FpModule.free(ZZ, 2), free1)
    with pytest.raises(ShapeError):
        BinaryMulticomplex(ZZ, 1, (2,), {(0,): free1, (1,): free1},
                           {(0, (1,)): wrong}, {(0, (1,)): wrong})


def test_random_multicomplexes_validate():
    rng = random.Random(101)
    for trial in range(12):
        ring = [ZZ, GF(7), QQ][trial % 3]
        dim = 1 + trial % 2
        M = random_multicomplex(rng, ring, dim, length=3, max_rank=2,
                                allow_fp=(trial % 4 == 0))
        report = validate(M, "fp")
        assert report.ok, report.first()


def test_free_mode_requires_free_objects():
    rng = random.Random(33)
    M = random_multicomplex(rng, ZZ, 1, length=3, max_rank=2, allow_fp=False)
    assert validate(M, "free").ok
    torsion = FpModule(ZZ, 1, Matrix.from_int_rows(ZZ, [[2]]))
    N = BinaryMulticomplex.of_module(torsion)
    report = validate(N, "free")
    assert not report.ok and report.first().kind == "free"


def _scaled_free_inputs(seed, per_ring):
    """Free multicomplexes over the four rings, each with one differential
    scaled: by a non-unit of the ring (0, 2 or 6 over ZZ, 0 over the fields,
    0, 1 + x or x^2 over F5[x]), which may leave homology, or by a unit,
    which leaves every line exact."""
    rng = random.Random(seed)
    for ring, scalars in ((ZZ, [2, 6, 0, -1]), (GF(7), [0, 3]), (QQ, [0, 2]),
                          (F5X, [(1, 1), (0, 0, 1), F5X.zero, (2,)])):
        for _ in range(per_ring):
            M = random_multicomplex(rng, ring, rng.randint(1, 2), length=3, max_rank=2)
            tops, bots = dict(M.tops), dict(M.bots)
            fam = rng.choice((tops, bots))
            key = rng.choice(sorted(fam))
            c = rng.choice(scalars)
            fam[key] = fam[key].scale(ring.from_int(c) if isinstance(c, int) else c)
            yield BinaryMulticomplex(ring, M.dim, M.shape, M.objects, tops, bots)


def test_free_line_failures_match_the_witness():
    # validate locates a failing free line by invariant factors; the witness,
    # run here on every line that composes to zero, must name the same
    # coordinate and write the same detail
    located = {}
    for M in _scaled_free_inputs(61, 15):
        expected = []
        for axis in range(M.dim):
            for rest in sorted(M.rest_coords(axis)):
                for which in ("top", "bottom"):
                    line = M.line(axis, rest, which)
                    if any(not (line.diffs[k] @ line.diffs[k + 1]).is_zero()
                           for k in range(line.length - 2)):
                        continue
                    out = acyclicity_witness(line)
                    if not out.ok:
                        coord = rest[:axis] + (out.failing_degree,) + rest[axis:]
                        expected.append(("line", which, axis, coord, out.describe()))
        report = validate(M, "free")
        assert report == validate(M, "fp")
        got = [(f.kind, f.family, f.axis, f.coord, f.detail)
               for f in report.failures if f.kind == "line"]
        assert got == expected
        located[M.ring.kind] = located.get(M.ring.kind, 0) + len(got)
    assert len(located) == 4 and min(located.values()) > 0, located


def test_validate_of_broken_free_inputs_needs_no_full_smith_form(monkeypatch):
    # free lines are decided and located from invariant factors, which need
    # no U or V; squares and composites of free maps compare matrices
    eliminate, counts = matrix._eliminate, {True: 0, False: 0}

    def counted(A, full):
        counts[full] += 1
        return eliminate(A, full)

    inputs = list(_scaled_free_inputs(62, 6))
    monkeypatch.setattr(matrix, "_eliminate", counted)
    line_failures = 0
    for M in inputs:
        report = validate(M, "free")
        line_failures += sum(f.kind == "line" for f in report.failures)
    assert line_failures > 0
    assert counts[True] == 0 and counts[False] > 0, counts


def test_validate_reports_line_failure():
    free1 = FpModule.free(ZZ, 1)
    good = FpMorphism.identity(free1)
    bad = FpMorphism.zero(free1, free1)
    M = BinaryMulticomplex.from_binary_chain(ZZ, [free1, free1], [bad], [good])
    report = validate(M, "fp")
    assert not report.ok
    failure = report.first()
    assert failure.kind == "line" and failure.family == "top"

    # free lines are located by invariant factors, in the witness's words
    two = FpMorphism(free1, free1, Matrix.from_int_rows(ZZ, [[2]]), _trusted=True)
    cases = [
        ([free1, free1], [two], [good], "top", (0,),
         "homology at degree 0: free rank 0, torsion [2]"),
        ([free1, free1], [good], [bad], "bottom", (0,),
         "homology at degree 0: free rank 1, torsion []"),
        ([free1, free1, free1], [good, bad], [good, bad], "top", (2,),
         "homology at degree 2: free rank 1, torsion []"),
    ]
    for modules, tops, bots, family, coord, detail in cases:
        M = BinaryMulticomplex.from_binary_chain(ZZ, modules, tops, bots)
        for mode in ("fp", "free"):
            report = validate(M, mode)
            assert not report.ok
            failure = report.first()
            assert (failure.kind, failure.family, failure.axis) == ("line", family, 0)
            assert failure.coord == coord
            assert failure.detail == detail


def _two_line():
    """Z -2-> Z in both families: free, diagonal, and not exact at degree 0."""
    free1 = FpModule.free(ZZ, 1)
    two = FpMorphism(free1, free1, Matrix.from_int_rows(ZZ, [[2]]), _trusted=True)
    return BinaryMulticomplex.from_binary_chain(ZZ, [free1, free1], [two], [two])


def _raised(fn, *args):
    with pytest.raises(NotAcyclic) as info:
        fn(*args)
    return str(info.value)


def _embedded_two_tower(M):
    point = BinaryMulticomplex.of_module(M.objects[(0,)])
    diff = MultiMorphism(point, point, {(): M.tops[(0, (1,))]})
    return _raised(diagonal_embed, (point, point), (diff,), 0), M, "fp"


def _kernel_invalid(M):
    res = resolve_multi(M, check=False)
    message, = [f for f in verify_resolution(res).failures if f.startswith("kernel invalid: ")]
    return message, res.Pprime, "free"


# each boundary: (message, the multicomplex it validated, the mode it used)
BOUNDARIES = {
    "resolve_multi": lambda M: (_raised(resolve_multi, M), M, "fp"),
    "complement": lambda M: (_raised(complement, M, 0), M, "free"),
    "torsion": lambda M: (_raised(torsion, M), M, "free"),
    "diagonal_embed": _embedded_two_tower,
    "verify_chain": lambda M: (verify_chain(RelationChain(FormalClass.of(M), [],
                                                          FormalClass.of(M))).reason, M, "fp"),
    "verify_resolution": _kernel_invalid,
}


@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_every_boundary_words_a_validation_failure_alike(boundary):
    message, checked, mode = BOUNDARIES[boundary](_two_line())
    failure = str(validate(checked, mode).first())
    assert failure == ("line failure, top family, axis 0, at (0,): "
                       "homology at degree 0: free rank 0, torsion [2]")
    assert message.endswith(": " + failure)


def test_validate_reports_composite_failure():
    free1 = FpModule.free(ZZ, 1)
    ident = FpMorphism.identity(free1)
    M = BinaryMulticomplex.from_binary_chain(
        ZZ, [free1, free1, free1], [ident, ident], [ident, FpMorphism.zero(free1, free1)])
    report = validate(M, "fp")
    assert not report.ok
    assert any(f.kind == "composite" and f.family == "top" for f in report.failures)


def test_validate_reports_square_failure():
    M = _square_free(ZZ, 1, 1, 1, 1)
    assert validate(M, "free").ok
    broken = _square_free(ZZ, 1, -1, 1, 1)
    report = validate(broken, "free")
    assert not report.ok
    assert report.first().kind == "square"


def test_validate_walks_its_box_once(monkeypatch):
    # one box walk for the free scan and every pair of axes' squares, and one
    # walk of the line starts per axis: dim calls, not one per pair of axes
    calls = [0]
    real_box_coords = multicomplex.box_coords

    def counted(shape):
        calls[0] += 1
        return real_box_coords(shape)

    Z = BinaryMulticomplex.zero(ZZ, 64)
    monkeypatch.setattr(multicomplex, "box_coords", counted)
    assert validate(Z, "free").ok
    assert calls[0] <= 64, calls[0]


def test_diagonality_report():
    rng = random.Random(7)
    D = random_multicomplex(rng, ZZ, 2, length=3, diagonal_axes=(1,), bricks=1)
    report = diagonality_report(D)
    assert 1 in report.directions
    full = random_multicomplex(rng, GF(5), 2, length=2, diagonal_axes=(0, 1))
    assert diagonality_report(full).directions == frozenset({0, 1})


def test_expand_collapse_roundtrip():
    # the terms, the tower and the collapsed result all hold M's own morphisms
    rng = random.Random(17)
    for ring in (ZZ, GF(7), QQ, F5X):
        for dim in (1, 2, 3):
            M = random_multicomplex(rng, ring, dim, length=2, max_rank=2 if dim < 3 else 1,
                                    bricks=1, allow_fp=dim < 3 and ring is not QQ)
            for axis in range(dim):
                terms, tops, bots = expand_along(M, axis)
                for t, term in enumerate(terms):
                    for (a, r), f in term.tops.items():
                        e = (a if a < axis else a + 1, multicomplex._insert(r, axis, t))
                        assert f is M.tops[e] and term.bots[(a, r)] is M.bots[e]
                back = collapse_along(terms, tops, bots, axis)
                assert back == M
                assert all(back.tops[e] is f for e, f in M.tops.items())
                assert all(back.bots[e] is f for e, f in M.bots.items())


def test_shift_keeps_old_edges_and_shares_new_zero_edges():
    rng = random.Random(29)
    for ring, dim in ((ZZ, 1), (GF(7), 2), (F5X, 2), (QQ, 3)):
        M = random_multicomplex(rng, ring, dim, length=2, max_rank=1, bricks=1, allow_fp=True)
        offsets = tuple(range(1, dim + 1))
        moved = shift(M, offsets)
        for (a, c), f in M.tops.items():
            e = (a, tuple(x + o for x, o in zip(c, offsets)))
            assert moved.tops[e] is f and moved.bots[e] is M.bots[(a, c)]
        new = [e for e in moved.tops if e[1][e[0]] <= offsets[e[0]]
               or any(x < o for x, o in zip(e[1], offsets))]
        assert new and len(new) == len(moved.tops) - len(M.tops)
        assert all(moved.tops[e] is moved.bots[e] and moved.tops[e].is_zero() for e in new)


def test_gen_golden_digests():
    # pins random_multicomplex's documents; between them the cases build
    # tensor bricks, finitely presented double bricks, direct sums and
    # conjugations over every ring family
    cases = [(ZZ, 3, dict(length=2, max_rank=1, bricks=1), 1, "2513d66010d40884"),
             (ZZ, 2, dict(length=3, max_rank=2, bricks=2, allow_fp=True), 4, "1eb9ebe3e8595935"),
             (GF(7), 1, dict(length=4, max_rank=2, allow_fp=True), 9, "a81973bd52c226e4"),
             (QQ, 2, dict(length=2, max_rank=2, allow_fp=True, diagonal_axes=(1,)), 5,
              "52b7641e9a92de3b"),
             (F5X, 2, dict(length=2, max_rank=2, allow_fp=True), 2, "d2fbbc7518eda656")]
    for ring, dim, kw, seed, expected in cases:
        M = random_multicomplex(random.Random(seed), ring, dim, **kw)
        assert digest(multicomplex_to_doc(M))[:16] == expected, (ring, dim, seed)


def test_normalize_and_equivalence():
    rng = random.Random(23)
    M = random_multicomplex(rng, GF(3), 2, length=2, bricks=1)
    shifted = shift(M, (1, 2))
    assert shifted.shape == (M.shape[0] + 1, M.shape[1] + 2)
    assert validate(shifted, "fp").ok
    assert shifted.normalize() == M.normalize()
    assert shifted.equivalent(M)
    padded = pad_to(M, (M.shape[0] + 2, M.shape[1]))
    assert padded.equivalent(M)
    zero = BinaryMulticomplex.zero(ZZ, 2)
    assert shift(zero, (0, 0)) == zero
    # the no-op moves return their input itself
    assert shift(M, (0, 0)) is M and pad_to(M, M.shape) is M
    tight = shifted.normalize()
    assert tight.normalize() is tight
    f = MultiMorphism.identity(M)
    assert shift_morphism(f, (1, 2)).equals(MultiMorphism.identity(shifted))
    assert pad_morphism(f, padded.shape).equals(MultiMorphism.identity(padded))
    for bad in ((-1, 0), (1,), (0, 0, 0)):
        with pytest.raises(ShapeError, match="offsets must be nonnegative, one per axis"):
            shift(M, bad)
        with pytest.raises(ShapeError, match="offsets must be nonnegative, one per axis"):
            shift_morphism(f, bad)
    for bad in ((M.shape[0] - 1, M.shape[1]), M.shape[:1], M.shape + (1,)):
        with pytest.raises(ShapeError, match="pad_to cannot shrink the box"):
            pad_to(M, bad)
        with pytest.raises(ShapeError, match="pad_to cannot shrink the box"):
            pad_morphism(f, bad)
    # Z/1 has a generator but is the zero module, so normalize crops it away
    z1 = FpModule(ZZ, 1, Matrix.from_int_rows(ZZ, [[1]]))
    free1 = FpModule.free(ZZ, 1)
    ident = FpMorphism.identity(free1)
    line = BinaryMulticomplex.from_binary_chain(
        ZZ, [free1, free1, z1], [ident, FpMorphism.zero(z1, free1)],
        [ident, FpMorphism.zero(z1, free1)])
    N = line.normalize()
    assert N.shape == (2,) and N.objects == {(0,): free1, (1,): free1}
    assert N.tops == {(0, (1,)): ident} and N.bots == {(0, (1,)): ident}
    assert shift(line, (1,)).normalize() == N


def test_direct_sum_and_split_maps():
    rng = random.Random(29)
    A = random_multicomplex(rng, ZZ, 2, length=2, bricks=1)
    B = random_multicomplex(rng, ZZ, 2, length=3, bricks=1)
    S = direct_sum_multi([A, B])
    assert validate(S, "fp").ok
    for c in box_coords(S.shape):
        a = pad_to(A, S.shape).objects[c]
        b = pad_to(B, S.shape).objects[c]
        assert S.objects[c].gens == a.gens + b.gens
    incl = summand_inclusion([A, B], 0)
    proj = summand_projection([A, B], 0)
    assert incl.commutes() and proj.commutes()
    composed = proj @ incl
    ident = MultiMorphism.identity(pad_to(A, S.shape))
    assert composed.equals(ident)


def test_staircase_rows_give_a_diagonal_exact_layered_sum():
    rng = random.Random(37)
    z2 = FpModule(ZZ, 1, Matrix.from_int_rows(ZZ, [[2]]))
    torsion_line = BinaryMulticomplex.from_binary_chain(
        ZZ, [z2, z2], [FpMorphism.identity(z2)], [FpMorphism.identity(z2)])
    cases = [[random_multicomplex(rng, ZZ, 1, length=3, max_rank=2, allow_fp=True)],
             [random_multicomplex(rng, ZZ, 1, length=n, max_rank=2) for n in (2, 3, 2)],
             [torsion_line],
             [random_multicomplex(rng, F5X, 1, length=2, max_rank=2, allow_fp=True)]]
    for pieces in cases:
        L = len(pieces)
        padded = [pad_to(p, common_shape(pieces)) for p in pieces]
        for axis in (0, 1):
            # staircase pads the pieces itself
            M, rows, terms = staircase(pieces, axis)
            # layer j holds ("lo", j) = X_j and ("hi", j - 1) = X_{j-1}
            assert [[tag for tag, _ in row] for row in rows] == [
                [("lo", j)] * (j < L) + [("hi", j - 1)] * (j > 0) for j in range(L + 1)]
            assert all(X == padded[k] for row in rows for (_, k), X in row)
            assert validate(M, "fp").ok
            assert M.is_diagonal_in(axis)
            along = [k for k in M.tops if k[0] == axis]
            assert along and all(M.tops[k] is M.bots[k] for k in along)
            assert expand_along(M, axis)[0] == tuple(terms)
            for c in box_coords(M.shape):
                j, r = c[axis], c[:axis] + c[axis + 1:]
                assert M.objects[c].gens == sum(padded[k].objects[r].gens
                                                for k in (j, j - 1) if 0 <= k < L)


def test_layered_sum_shares_one_morphism_only_where_the_routes_agree():
    rng = random.Random(41)
    pieces = [random_multicomplex(rng, ZZ, 1, length=n, max_rank=2) for n in (2, 3)]
    pieces = [pad_to(p, common_shape(pieces)) for p in pieces]
    X = pieces[0]
    swap_rows = [[("x", X), ("y", X)], [("x", X), ("y", X)]]
    straight = {1: {("x", "x"), ("y", "y")}}
    crossed = {1: {("x", "y"), ("y", "x")}}
    _, rows, _ = staircase(pieces, 0)
    route = {j: {(("lo", j - 1), ("hi", j - 1))} for j in range(1, len(rows))}
    for axis in (0, 1):
        # equal routes, though not one object: one morphism for both families
        M, _ = layered_sum(rows, route, {j: set(r) for j, r in route.items()}, axis)
        along = [k for k in M.tops if k[0] == axis]
        assert along and all(M.tops[k] is M.bots[k] for k in along)
        # the identity on X (+) X on top and the swap at the bottom
        N, _ = layered_sum(swap_rows, straight, crossed, axis)
        assert validate(N, "fp").ok
        along = [k for k in N.tops if k[0] == axis]
        assert along and all(N.tops[k] is not N.bots[k] and N.tops[k].mat is not N.bots[k].mat
                             for k in along)
        assert not N.is_diagonal_in(axis)


@pytest.mark.parametrize("ring", [ZZ, GF(7), F5X], ids=["ZZ", "GF7", "F5X"])
def test_block_morphism_of_morphism_blocks(ring):
    # [[incl, 1], [0, zeta]] : P' (+) P -> P (+) target from a resolution's
    # chain maps: each component is the block matrix of the blocks' components
    rng = random.Random(f"blocks:{ring.kind}")
    res = resolve_multi(random_multicomplex(rng, ring, 2, length=2, max_rank=1,
                                            allow_fp=ring is ZZ))
    Pp, P, T = res.Pprime, res.P, res.target
    src, tgt = [("k", Pp), ("p", P)], [("p", P), ("t", T)]
    routed = {("p", "k"): res.incl, ("p", "p"): None, ("t", "p"): res.zeta}
    term_src, term_tgt = direct_sum_multi([Pp, P]), direct_sum_multi([P, T])
    f = block_identity_morphism(src, tgt, routed, term_src, term_tgt)
    assert f.source is term_src and f.target is term_tgt
    for c in box_coords(P.shape):
        gens = [Pp.objects[c].gens, P.objects[c].gens, T.objects[c].gens]
        want = block_matrix(ring, gens[1:], gens[:2],
                            {(0, 0): res.incl.components[c].mat,
                             (0, 1): Matrix.identity(ring, gens[1]),
                             (1, 1): res.zeta.components[c].mat})
        assert f.components[c].mat == want
    assert f.commutes()
    # a plain set of pairs still means identity blocks
    ident = block_identity_morphism(tgt, tgt, {("p", "p"), ("t", "t")}, term_tgt, term_tgt)
    assert ident.equals(MultiMorphism.identity(term_tgt))
    # one block that does not commute spoils the whole morphism
    for c, z in res.zeta.components.items():
        bent = MultiMorphism(P, T, {**res.zeta.components, c: z + z})
        if not bent.commutes():
            break
    assert not bent.commutes()
    assert not block_identity_morphism(src, tgt, {**routed, ("t", "p"): bent},
                                       term_src, term_tgt).commutes()
    # zeta in the block of P' is as wide as P, which P' is not
    assert any(Pp.objects[c].gens != P.objects[c].gens for c in box_coords(P.shape))
    with pytest.raises(ShapeError):
        block_identity_morphism(src, tgt, {("t", "k"): res.zeta}, term_src, term_tgt)


def _dense_key(M):
    """The reference key: canonical_key with every matrix in it replaced by
    its dense entry tuple."""
    n = M.normalize()
    objs = tuple((c, n.objects[c].gens, n.objects[c].rels.rows, n.objects[c].rels.cols,
                  n.objects[c].rels.entries) for c in sorted(n.objects))
    diffs = tuple((a, c, n.tops[(a, c)].mat.entries, n.bots[(a, c)].mat.entries)
                  for (a, c) in sorted(n.tops))
    return (n.dim, n.shape, objs, diffs)


@pytest.mark.parametrize("ring", [ZZ, GF(7), QQ, F5X], ids=["ZZ", "GF7", "QQ", "F5X"])
def test_canonical_keys_sort_and_match_as_the_dense_keys(ring):
    # FormalClass.entries() sorts by canonical_key, and a class document's
    # witnesses follow that order: keys that hold matrices must sort and
    # match exactly as the dense entry tuples did
    rng = random.Random(f"keys:{ring.kind}")
    members = []
    for _ in range(6):
        M = random_multicomplex(rng, ring, 1 + rng.randrange(2), length=2, max_rank=2,
                                allow_fp=ring is ZZ, bricks=1)
        members += [M, shift(M, (1,) * M.dim), conjugate_multicomplex(rng, M)[0]]
    order = sorted(range(len(members)), key=lambda i: members[i].canonical_key())
    assert order == sorted(range(len(members)), key=lambda i: _dense_key(members[i]))
    for M in members:
        for N in members:
            assert (M.canonical_key() == N.canonical_key()) == (_dense_key(M) == _dense_key(N))


def test_canonical_key_of_a_cell_heavy_multicomplex_is_small():
    # Z/2 -1-> Z/2 on 256 generators, each presented by a 256 x 65536 relation
    # matrix with 256 nonzeros: 2^25 declared cells, within serialize's caps;
    # a key with dense entries would hold every cell (over 256 MB)
    def line():
        rels = Matrix.from_row_pairs(ZZ, 2 ** 16, [[(i, 2)] for i in range(256)])
        mod = FpModule(ZZ, 256, rels)
        assert mod.canonical() == (0, (2,) * 256)  # normalize keeps both objects
        one = FpMorphism.identity(mod)
        return BinaryMulticomplex.from_binary_chain(ZZ, [mod, mod], [one], [one])

    M = line()
    tracemalloc.start()
    try:
        key = M.canonical_key()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    # a copy built from fresh matrices has an equal key
    other = line().canonical_key()
    assert other == key and hash(other) == hash(key) and not other < key


def test_top_slice_and_diagonal_embed():
    rng = random.Random(31)
    D = random_multicomplex(rng, ZZ, 2, length=3, diagonal_axes=(0,), bricks=1)
    terms, tops, _ = expand_along(D, 0)
    E = diagonal_embed(terms, tops, 0)
    assert E == rediagonalize(D, 0)
    assert 0 in diagonality_report(E).directions
    assert validate(E, "fp").ok
    # on an input not diagonal in the axis: the bottom family there becomes the top one
    N = random_multicomplex(rng, ZZ, 2, length=2, diagonal_axes=(1,), bricks=1)
    assert diagonality_report(N).counterexamples.keys() == {0}
    for a in range(2):
        terms, tops, _ = expand_along(N, a)
        assert rediagonalize(N, a) == collapse_along(terms, tops, tops, a)
    assert rediagonalize(N, 1) == N
    assert rediagonalize(N, 0) != N


def test_diagonal_embed_rejects_nonacyclic():
    free1 = FpModule.free(ZZ, 1)
    t0 = BinaryMulticomplex.of_module(free1)
    t1 = BinaryMulticomplex.of_module(free1)
    with pytest.raises(NotAcyclic):
        diagonal_embed((t0, t1), (MultiMorphism.zero(t1, t0),), 0)
    # the flattened multicomplex checks the differentials' endpoints
    t2 = BinaryMulticomplex.of_module(FpModule.free(ZZ, 2))
    with pytest.raises(ShapeError):
        diagonal_embed((t0, t2), (MultiMorphism.zero(t1, t0),), 0)


def test_image_of_isomorphism_is_everything():
    rng = random.Random(41)
    M = random_multicomplex(rng, ZZ, 2, length=2, bricks=1)
    Mp, iso, _ = conjugate_multicomplex(rng, M)
    I, incl = image_multicomplex(iso)
    assert incl.commutes()
    for c in box_coords(Mp.shape):
        assert I.objects[c].free_rank() == Mp.objects[c].free_rank()
    assert validate(I, "free").ok


def test_multimorphism_identity_and_composition():
    rng = random.Random(43)
    M = random_multicomplex(rng, ZZ, 1, length=3, bricks=1)
    Mp, iso, iso_inv = conjugate_multicomplex(rng, M)
    assert iso.commutes() and iso_inv.commutes()
    assert (iso_inv @ iso).equals(MultiMorphism.identity(M))
    assert (iso @ iso_inv).equals(MultiMorphism.identity(Mp))


def test_zero_and_module_constructors():
    Z = BinaryMulticomplex.zero(ZZ, 2)
    assert Z.is_zero() and Z.shape == (0, 0)
    assert validate(Z, "free").ok
    mod = FpModule.free(QQ, 2)
    P = BinaryMulticomplex.of_module(mod)
    assert P.dim == 0 and P.obj(()) is mod
    assert validate(P, "fp").ok
