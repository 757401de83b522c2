"""Tests for the resolution constructions and the class map."""
import hashlib
import random
from itertools import islice

import pytest

from binmc import extension, fpmod, matrix, multicomplex, resolve
from binmc.errors import NotAcyclic, ShapeError
from binmc.fpmod import FpModule, FpMorphism, factor_through_mono, free_cover, hsum, is_epi
from binmc.gen import random_fp_module, random_multicomplex
from binmc.matrix import Matrix
from binmc.multicomplex import (BinaryMulticomplex, MultiMorphism,
                                collapse_along, kernel_multicomplex, validate)
from binmc.resolve import (_ladder_composites, _ladder_tables, _staircase_tables, phi_class,
                           resolve_binary, resolve_multi, verify_resolution)
from binmc.rings import GF, QQ, ZZ, polynomial_ring
from binmc.serialize import digest, resolution_to_doc


def unit_complex(ring, u):
    """0 -> R -> R -> 0 with top differential 1 and bottom differential u."""
    R1 = FpModule.free(ring, 1)
    ident = FpMorphism.identity(R1)
    return BinaryMulticomplex.from_binary_chain(
        ring, [R1, R1], [ident], [ident.scale(u)])


def test_staircase_identity_complex():
    M = unit_complex(ZZ, 1)
    res = resolve_multi(M)
    assert res.offset == (1,)
    assert res.P.rank_grid() == {(0,): 1, (1,): 2, (2,): 1}
    assert res.Pprime.rank_grid() == {(0,): 1, (1,): 1, (2,): 0}
    # degree 1 of the cover maps both summands onto the old degree-0 object
    assert res.zeta.components[(1,)].mat.entries == (1, 1)
    rep = verify_resolution(res)
    assert rep.ok, rep.failures
    assert res.P.is_diagonal_in(0) and res.Pprime.is_diagonal_in(0)


def test_ladder_unit_complex():
    M = unit_complex(ZZ, ZZ.from_int(-1))
    res = resolve_binary(M)
    assert res.P.rank_grid() == {(0,): 2, (1,): 3, (2,): 1}
    # [d о eps_1, d' о eps_1, eps_0] = [1, -1, 1]
    assert res.zeta.components[(1,)].mat.entries == (1, -1, 1)
    rep = verify_resolution(res)
    assert rep.ok, rep.failures


def test_ladder_works_on_diagonal_input():
    M = unit_complex(ZZ, 1)
    res = resolve_binary(M)
    rep = verify_resolution(res)
    assert rep.ok, rep.failures
    # same input through the staircase: both give valid covers of one target
    res2 = resolve_multi(M)
    assert res.target == res2.target
    assert res.offset == res2.offset


def test_resolve_torsion_diagonal_complex():
    m6 = FpModule(ZZ, 1, Matrix(ZZ, 1, 1, [6]))
    ident = FpMorphism.identity(m6)
    M = BinaryMulticomplex.from_binary_chain(ZZ, [m6, m6], [ident], [ident])
    res = resolve_multi(M)
    rep = verify_resolution(res)
    assert rep.ok, rep.failures
    assert validate(res.P, "free").ok and validate(res.Pprime, "free").ok


def test_resolve_empty_and_zero_object():
    E = BinaryMulticomplex.zero(ZZ, 2)
    res = resolve_multi(E)
    assert verify_resolution(res).ok
    assert res.P.is_zero()
    Z0 = FpModule.zero(ZZ)
    single = BinaryMulticomplex(ZZ, 1, (1,), {(0,): Z0}, {}, {})
    res = resolve_multi(single)
    assert verify_resolution(res).ok
    assert all(m.gens == 0 for m in res.P.objects.values())


def test_resolve_rejects_bad_input():
    R1 = FpModule.free(ZZ, 1)
    zero_map = FpMorphism.zero(R1, R1)
    M = BinaryMulticomplex.from_binary_chain(ZZ, [R1, R1], [zero_map], [zero_map])
    with pytest.raises(NotAcyclic):
        resolve_binary(M)
    ident = FpMorphism.identity(R1)
    with pytest.raises(ShapeError):
        resolve_binary(BinaryMulticomplex.zero(ZZ, 2))


def test_delta_ladder_identities():
    # four single-module layers with explicit small matrices
    terms = [BinaryMulticomplex.of_module(FpModule.free(ZZ, 2)) for _ in range(4)]

    def mor(s, t, rows):
        return MultiMorphism(s, t, {(): FpMorphism(
            s.objects[()], t.objects[()], Matrix.from_int_rows(ZZ, rows),
            _trusted=True)})

    tops = [mor(terms[j + 1], terms[j], rows) for j, rows in enumerate(
        [[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[1, 1], [0, 0]]])]
    bots = [mor(terms[j + 1], terms[j], rows) for j, rows in enumerate(
        [[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [1, 1]]])]
    Q = BinaryMulticomplex.of_module(FpModule.free(ZZ, 2))
    eps = [mor(Q, terms[k + 1], rows) for k, rows in enumerate(
        [[[1, 0], [0, 1]], [[1, 1], [0, 1]], [[2, 0], [1, 1]]])]
    delta, delta_prime = _ladder_composites(eps, tops, bots)

    def alternating(outer, inner, k, l):
        # outer_{k-l+1} o inner_{k-l+2} o ... o eps_k, ending in outer_k when l is odd
        f = eps[k]
        for i in range(l):
            f = (outer if (l - 1 - i) % 2 == 0 else inner)[k - i] @ f
        return f

    lags = {(k, l) for k in range(1, len(eps)) for l in range(1, k + 1)}
    assert set(delta) == set(delta_prime) == lags
    for k, l in sorted(lags):
        assert delta[(k, l)].equals(alternating(tops, bots, k, l)), (k, l)
        assert delta_prime[(k, l)].equals(alternating(bots, tops, k, l)), (k, l)
    want = (tops[1] @ (bots[2] @ eps[2])).components[()]
    assert delta[(2, 2)].components[()].equals(want)
    want_p = (bots[1] @ (tops[2] @ eps[2])).components[()]
    assert delta_prime[(2, 2)].components[()].equals(want_p)


def test_resolve_random_binary():
    rng = random.Random(23)
    for trial in range(18):
        ring = [ZZ, GF(7), QQ][trial % 3]
        M = random_multicomplex(rng, ring, 1, length=4, max_rank=3,
                                allow_fp=(ring is ZZ))
        res = resolve_binary(M)
        rep = verify_resolution(res)
        assert rep.ok, (trial, rep.failures)


def test_resolve_random_multi():
    rng = random.Random(29)
    for trial in range(8):
        ring = [ZZ, GF(5)][trial % 2]
        M = random_multicomplex(rng, ring, 2, length=3, max_rank=2,
                                allow_fp=(ring is ZZ))
        res = resolve_multi(M)
        rep = verify_resolution(res)
        assert rep.ok, (trial, rep.failures)
    M = random_multicomplex(rng, ZZ, 3, length=2, max_rank=2, bricks=1)
    rep = verify_resolution(resolve_multi(M))
    assert rep.ok, rep.failures


def test_resolve_preserves_diagonality():
    rng = random.Random(31)
    for trial in range(6):
        ring = [ZZ, GF(3)][trial % 2]
        dim = 1 + trial % 2
        M = random_multicomplex(rng, ring, dim, length=3, max_rank=2, diagonal_axes=range(dim))
        dirs = M.diagonal_directions()
        assert dirs
        res = resolve_multi(M)
        rep = verify_resolution(res)
        assert rep.ok, rep.failures
        for a in dirs:
            # cover and kernel are free, so diagonality here is exact equality
            assert res.P.is_diagonal_in(a)
            assert res.Pprime.is_diagonal_in(a)


def test_phi_class_values():
    assert phi_class(FpModule.free(ZZ, 3)) == 3
    assert phi_class(FpModule.zero(ZZ)) == 0
    m6 = FpModule(ZZ, 1, Matrix(ZZ, 1, 1, [6]))
    assert phi_class(m6) == 0
    mixed = FpModule(ZZ, 2, Matrix.from_int_rows(ZZ, [[4], [0]]))
    assert phi_class(mixed) == 1


def test_phi_class_independent_of_cover():
    rng = random.Random(37)
    for trial in range(10):
        m = random_fp_module(rng, ZZ, max_gens=3)
        default = phi_class(m)
        extra = FpModule.free(ZZ, 1 + rng.randrange(2))
        noise = FpMorphism(extra, m, Matrix(ZZ, m.gens, extra.gens, [
            ZZ.from_int(rng.randrange(-2, 3)) for _ in range(m.gens * extra.gens)]))
        bigger = hsum([free_cover(m), noise])
        assert is_epi(bigger)
        assert phi_class(m, bigger) == default


def _if_else_routes(L):
    """The reference for _ladder_tables' routings, written out with one
    if/else branch for layer 0's targets where _ladder_tables renames them."""
    n = L - 1
    route_top, route_bot = {}, {}
    for j in range(1, L + 1):
        rt, rb = set(), set()
        for k in range(n, j - 1, -1):
            if j - 1 >= 1:
                rt.add((("a", k), ("b", k)))
                rb.add((("b", k), ("a", k)))
            else:
                rt.add((("end", k), ("b", k)))
                rb.add((("end", k), ("a", k)))
        if j - 1 >= 1:
            rt.add((("a", j - 1), ("top", j - 1)))
            rb.add((("b", j - 1), ("top", j - 1)))
        else:
            rt.add((("end", 0), ("top", 0)))
            rb.add((("end", 0), ("top", 0)))
        route_top[j] = rt
        route_bot[j] = rb
    return route_top, route_bot


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_ladder_tables_route_and_block_every_atom(L):
    # stand-ins name each block by where it comes from
    eps = [("eps", k) for k in range(L)]
    delta = {(k, l): ("delta", k, l) for k in range(1, L) for l in range(1, k + 1)}
    delta_prime = {key: ("delta'",) + key for key in delta}
    atoms, blocks, route_top, route_bot = _ladder_tables(L, eps, delta, delta_prime)
    assert (route_top, route_bot) == _if_else_routes(L)
    assert atoms[0] == [("end", k) for k in range(L - 1, -1, -1)] and blocks[0] == {}
    for j in range(1, L + 1):
        # every atom of a layer above 0 has its projection block, in atom order
        assert atoms[j] == list(blocks[j])
        assert blocks[j][("top", j - 1)] == ("eps", j - 1)
        for k in range(j, L):
            assert blocks[j][("a", k)] == ("delta", k, k - j + 1)
            assert blocks[j][("b", k)] == ("delta'", k, k - j + 1)
        # each route wires atoms of layer j into atoms of layer j - 1
        for route in (route_top[j], route_bot[j]):
            assert {s for _, s in route} <= set(atoms[j])
            assert {t for t, _ in route} <= set(atoms[j - 1])
    one = [Matrix.identity(ZZ, 1)] * L
    assert [sorted(b) for b in _staircase_tables(L, one, one)] == [
        sorted([("lo", j)] * (j < L) + [("hi", j - 1)] * (j > 0)) for j in range(L + 1)]


def test_resolve_multi_golden_digests():
    # pins the re-boxing of covers and target to exact bundle bytes; the last
    # two inputs are diagonal, so they take the staircase branch
    expected = ["0f422218f95dec53", "c35db9eb74c057c7", "97229dbb96d486af",
                "9ce5a547f8ed6e32", "a6cdf02142767e45", "2f2e27fc4cda4ceb",
                "ad655df75ba70a63", "cf7881d5989cf52c"]
    rng = random.Random(47)
    inputs = [random_multicomplex(rng, ring, dim, length=3 if dim == 1 else 2,
                                  max_rank=2 if dim == 1 else 1,
                                  allow_fp=ring is ZZ and dim == 1)
              for ring in (ZZ, GF(7), QQ) for dim in (1, 2)]
    inputs.append(random_multicomplex(rng, ZZ, 2, length=2, max_rank=1, diagonal_axes=(1,)))
    inputs.append(random_multicomplex(rng, GF(7), 1, length=3, max_rank=2, diagonal_axes=(0,)))
    results = [resolve_multi(M) for M in inputs]
    assert [sorted(r.diagonal_axes) for r in results[-2:]] == [[1], [0]]
    got = [digest(resolution_to_doc(r))[:16] for r in results]
    assert got == expected


def test_resolution_offset_is_one_in_every_axis():
    # every slice cover is its slice moved up by one in each axis, so the
    # covers need no alignment: the offset is (1,) * dim on both branches
    rng = random.Random(61)
    for ring in (ZZ, GF(7), polynomial_ring(GF(5))):
        for dim in (1, 2, 3):
            for allow_fp in (False, True):
                M = random_multicomplex(rng, ring, dim, length=2 if dim == 3 else 3,
                                        max_rank=1 if dim == 3 else 2, bricks=1,
                                        allow_fp=allow_fp)
                assert resolve_multi(M, check=False).offset == (1,) * dim
                assert resolve._resolve(M, branch="ladder").offset == (1,) * dim
    empty = BinaryMulticomplex.zero(ZZ, 2)
    assert resolve_multi(empty).offset == (0, 0)


def _dense(part):
    """A key part with every matrix in it replaced by its dense entry tuple."""
    if isinstance(part, Matrix):
        return part.entries
    return tuple(map(_dense, part)) if isinstance(part, tuple) else part


def test_canonical_key_golden_digests():
    # pins canonical_key(), and with it the order of FormalClass.entries(), on
    # the kernels P' of criterion-4-style resolutions over ZZ: eight of
    # dimension 2 and two of dimension 3, half with torsion objects.  The key
    # holds matrices, whose repr the first pins hash; the second pins are
    # those of the key's dense view, pinned when keys held dense entries
    expected = ["097d96cbf5711180", "406b737a9cbae2cd", "67a7c9acf8a1f9dd",
                "496236186448d471", "75d651660cf98678", "67ab5ec0b71c477f",
                "1831191ce7f22c3f", "648264cce5fbdbe2", "8062bacbfb2dce61",
                "77ac396e0371a930"]
    expected_dense = ["3d38e87c7eceb2f5", "5fa654573149b157", "09bbe9d08d15717f",
                      "bffb87cf23e1fcbf", "74e4892d0928aa3e", "032ff2aa3d3e743e",
                      "074e3443057b39bf", "281aad2fdc5d56b5", "803f8f17ab88bca2",
                      "1c8a37e61c6936d1"]
    rng = random.Random(104)
    got, got_dense = [], []
    for case in range(10):
        dim = 2 if case < 8 else 3
        M = random_multicomplex(rng, ZZ, dim, length=2 if dim == 3 else rng.randint(2, 3),
                                max_rank=2 if dim == 2 else 1, bricks=1,
                                allow_fp=case % 2 == 0)
        Pprime = resolve_multi(M, check=False).Pprime
        key = Pprime.canonical_key()
        got.append(hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:16])
        got_dense.append(hashlib.sha256(repr(_dense(key)).encode("utf-8")).hexdigest()[:16])
        # computed once, and equal, ordered and hashed as the plain tuple
        plain = tuple(key)
        assert Pprime.canonical_key() is key
        assert key == plain and plain == key and hash(key) == hash(plain)
        assert not key < plain and not plain < key and {plain: 1}[key] == 1
    assert got == expected
    assert got_dense == expected_dense


# eliminations without U and V per seed: validate(P), validate(P'), and verify_resolution
RESOLUTION_ELIMINATIONS = {2: ((108, 108), 108), 7: ((90, 108), 90)}


@pytest.mark.parametrize("seed", [2, 7])
def test_validate_of_a_resolution_needs_no_full_smith_form(monkeypatch, seed):
    # the resolve-large shapes: every line of P and P' is free, so validate
    # settles each one with the rank certificate, whose invariant factors need
    # an elimination without U and V (one per differential object: at seed 7
    # the input is diagonal in axis 0, and P's staircase there holds one
    # morphism for both families) and no full (U, S, V) decomposition
    per_part, in_all = RESOLUTION_ELIMINATIONS[seed]
    M = random_multicomplex(random.Random(seed), ZZ, 3, length=2, max_rank=1, bricks=1)
    eliminate, kern = matrix._eliminate, fpmod.kernel
    counts = {True: 0, False: 0, "kernel": 0}

    def counted(A, full):
        counts[full] += 1
        return eliminate(A, full)

    def counted_kernel(f):
        counts["kernel"] += 1
        return kern(f)

    # construction builds every kernel from carried sections: no elimination
    # and no fpmod.kernel at all
    monkeypatch.setattr(matrix, "_eliminate", counted)
    for module in (fpmod, resolve, multicomplex):
        monkeypatch.setattr(module, "kernel", counted_kernel)
    res = resolve_multi(M, check=False)
    assert counts == {True: 0, False: 0, "kernel": 0}
    for part, pinned in zip((res.P, res.Pprime), per_part):
        counts.update({True: 0, False: 0})
        assert validate(part, "free").ok
        assert counts == {True: 0, False: pinned, "kernel": 0}
    # the whole re-check: every coordinate is split by its carried section and
    # retraction, which takes products only, so check_ses never runs; the
    # free source validates, so P' follows from P and the source by two out of
    # three, and the only eliminations are those of validate(P), without U and
    # V: resolve_multi validated the source on entry, and its differentials
    # keep their invariant factors
    monkeypatch.setattr(matrix, "_eliminate", eliminate)
    fresh = resolve_multi(M)
    counts.update({True: 0, False: 0})
    ses_calls = [0]

    def counted_ses(i, p):
        ses_calls[0] += 1
        return fpmod.check_ses(i, p)

    monkeypatch.setattr(matrix, "_eliminate", counted)
    monkeypatch.setattr(extension, "check_ses", counted_ses)
    assert verify_resolution(fresh).ok
    assert counts == {True: 0, False: in_all, "kernel": 0}
    assert ses_calls[0] == 0


F5X = polynomial_ring(GF(5))


def _torsion_line(ring, t, u, v):
    """0 -> R -t-> R -> R/(t) -> 0 as a binary complex; the bottom family
    scales the projection by v and the multiplication by u."""
    R1 = FpModule.free(ring, 1)
    Q = FpModule(ring, 1, Matrix.from_rows(ring, [[t]]))
    proj = FpMorphism(R1, Q, Matrix.identity(ring, 1))
    mult = FpMorphism(R1, R1, Matrix.from_rows(ring, [[t]]))
    return BinaryMulticomplex.from_binary_chain(
        ring, [Q, R1, R1], [proj, mult], [proj.scale(v), mult.scale(u)])


def _doubled(M, ut, ub):
    """Two copies of M joined along a new last axis by ut * 1 (top) and ub * 1 (bottom)."""
    def scaled(u):
        return MultiMorphism(M, M, {c: FpMorphism.identity(m).scale(u)
                                    for c, m in M.objects.items()})
    return collapse_along((M, M), (scaled(ut),), (scaled(ub),), M.dim)


def _hand_built(ring, ts, u, v):
    """Torsion lines R -t-> R ->> R/(t), diagonal and skewed by the units u
    and v, and their doublings into dimensions 2 and 3."""
    out = []
    for t in ts:
        diag = _torsion_line(ring, t, ring.one, ring.one)
        skew = _torsion_line(ring, t, u, v)
        out += [diag, skew, _doubled(skew, u, u), _doubled(skew, u, v),
                _doubled(_doubled(diag, v, u), u, v)]
    return out


def _resolution_inputs():
    # non-constant F5[x] torsion by hand (gen makes constant polynomials only);
    # dimension 3 over QQ is the hand-built line, which is cheap for the
    # reference kernels, unlike random ones
    two, three = F5X.poly([2]), F5X.poly([3])
    inputs = _hand_built(F5X, [(0, 1), (1, 1), (0, 0, 1)], two, three)
    inputs += _hand_built(ZZ, [4], -1, -1) + _hand_built(QQ, [QQ.from_int(2)], 2, 3)
    rng = random.Random(211)
    for ring in (ZZ, GF(7), QQ, F5X):
        for dim in (1, 2, 3) if ring in (ZZ, GF(7)) else (1, 2):
            for diagonal in ((), (0,)):
                for allow_fp in (False, True):
                    inputs.append(random_multicomplex(
                        rng, ring, dim, length=3 if dim == 1 else 2,
                        max_rank=2 if dim == 1 else 1, bricks=1 if dim == 3 else None,
                        diagonal_axes=diagonal, allow_fp=allow_fp))
    inputs.append(BinaryMulticomplex.of_module(FpModule(ZZ, 2, Matrix.from_int_rows(ZZ, [[4], [6]]))))
    return inputs


def test_carried_inclusions_span_the_reference_kernels():
    # the carried inclusion at every coordinate spans the same lattice as the
    # reference kernel by elimination (each factors through the other); the
    # section splits zeta and the retraction, where there is one, splits incl
    branches = set()
    torsion_edges = 0
    for M in _resolution_inputs():
        assert validate(M, "fp").ok
        res = resolve_multi(M)
        assert verify_resolution(res).ok
        if M.dim:
            branches.add("staircase" if M.diagonal_directions() else "ladder")
        _, ref = kernel_multicomplex(res.zeta)
        for c, incl in res.incl.components.items():
            assert factor_through_mono(incl, ref.components[c]) is not None, c
            assert factor_through_mono(ref.components[c], incl) is not None, c
            z = res.zeta.components[c]
            split = FpMorphism(z.target, z.target, z.mat @ res.sect[c], _trusted=True)
            assert split.equals(FpMorphism.identity(z.target))
            if res.retr[c] is None:
                torsion_edges += 1
            else:
                assert res.retr[c] @ incl.mat == Matrix.identity(M.ring, incl.source.gens)
                assert (res.retr[c] @ res.sect[c]).is_zero()
    assert branches == {"staircase", "ladder"}
    assert torsion_edges


def _broken_inputs(dim3_rank=1):
    R1 = FpModule.free(ZZ, 1)
    zero, ident = FpMorphism.zero(R1, R1), FpMorphism.identity(R1)
    yield BinaryMulticomplex.from_binary_chain(ZZ, [R1, R1], [zero], [zero])
    yield BinaryMulticomplex.from_binary_chain(ZZ, [R1, R1, R1], [ident, ident], [ident, ident])
    # x^2 where x belongs: H_1 = F5[x]/(x), over a torsion object
    line = _torsion_line(F5X, (0, 1), F5X.one, F5X.one)
    sq = FpMorphism.identity(line.obj((2,))).scale((0, 1))
    tops = {k: f @ sq if k == (0, (2,)) else f for k, f in line.tops.items()}
    yield BinaryMulticomplex(F5X, 1, line.shape, line.objects, tops, tops)
    rng = random.Random(223)
    for trial in range(12):
        ring = [ZZ, GF(7)][trial % 2]
        dim = 1 + trial % 3
        M = random_multicomplex(rng, ring, dim, length=2, max_rank=2 if dim < 3 else dim3_rank,
                                bricks=1, allow_fp=trial % 4 == 0)
        key = next(k for k in sorted(M.tops) if not M.tops[k].mat.is_zero())
        tops = dict(M.tops)
        tops[key] = tops[key].scale(ring.from_int(2 if ring is ZZ else 0))
        yield BinaryMulticomplex(ring, M.dim, M.shape, M.objects, tops, M.bots)


def test_unchecked_resolution_of_a_non_acyclic_input_never_verifies():
    # construction lifts differentials by retractions without checking that
    # they restrict, so a non-acyclic input must be caught by verification
    # (an edge into a torsion coordinate is still lifted by a solve, which
    # may refuse with ShapeError; none of these inputs makes it refuse)
    for M in _broken_inputs():
        assert not validate(M, "fp").ok
        assert not verify_resolution(resolve_multi(M, check=False)).ok


def test_a_failing_inclusion_spares_the_kernel_validation(monkeypatch):
    # trial 2 of the broken inputs (ZZ, dim 3) at max_rank 2: P′'s lifted
    # differentials do not even compose to zero, and validating them costs
    # about a hundred times what P does; once incl fails to commute, P is the
    # only one validated
    M = next(islice(_broken_inputs(dim3_rank=2), 5, None))
    assert M.dim == 3 and M.ring is ZZ
    res, twin = resolve_multi(M, check=False), resolve_multi(M, check=False)
    eliminate = matrix._eliminate
    count = [0]

    def counted(A, full):
        count[0] += 1
        return eliminate(A, full)

    monkeypatch.setattr(matrix, "_eliminate", counted)
    assert validate(twin.P, "free").ok
    of_cover, count[0] = count[0], 0
    rep = verify_resolution(res)
    assert count[0] == of_cover > 0
    assert rep.failures == ("projection does not commute with the differentials",
                            "inclusion does not commute with the differentials")


def _verify_by_elimination(res):
    """verify_resolution without certificates: validate(P′) whenever incl is a
    chain map, and check_ses at every coordinate."""
    failures = []
    rep_p = validate(res.P, "free")
    if not rep_p.ok:
        failures.append(f"cover invalid: {rep_p.first()}")
    if res.incl.source != res.Pprime or res.incl.target != res.P:
        incl_fault = "inclusion endpoints are wrong"
    elif not res.incl.commutes():
        incl_fault = "inclusion does not commute with the differentials"
    else:
        incl_fault = None
        rep_k = validate(res.Pprime, "free")
        if not rep_k.ok:
            failures.append(f"kernel invalid: {rep_k.first()}")
    expected = multicomplex.pad_to(multicomplex.shift(res.source, res.offset), res.target.shape)
    if expected != res.target:
        failures.append("target is not the offset translate of the source")
    if res.zeta.source != res.P or res.zeta.target != res.target:
        failures.append("projection endpoints are wrong")
    elif not res.zeta.commutes():
        failures.append("projection does not commute with the differentials")
    if incl_fault:
        failures.append(incl_fault)
    if not failures:
        for c in sorted(multicomplex.box_coords(res.P.shape)):
            verdict = fpmod.check_ses(res.incl.components[c], res.zeta.components[c])
            if not verdict.ok:
                failures.append(f"sequence at {c} is not exact: {verdict.reason}")
                break
    for a in sorted(res.diagonal_axes):
        if not res.P.is_diagonal_in(a) or not res.Pprime.is_diagonal_in(a):
            failures.append(f"diagonality in axis {a} was not preserved")
    return tuple(failures)


def _replaced(res, **fields):
    kept = {name: getattr(res, name) for name in resolve.ResolutionResult.__slots__}
    return resolve.ResolutionResult(**{**kept, **fields})


def _with_component(mor, c, f):
    return MultiMorphism(mor.source, mor.target, {**mor.components, c: f})


def _first_nonzero(mor):
    return next(c for c in sorted(mor.components) if not mor.components[c].mat.is_zero())


def _differential_cases():
    """(label, resolution) pairs: passing ones over ZZ, GF(7) and F5[x],
    unchecked resolutions of broken inputs, and hand-broken results."""
    rng = random.Random(227)
    passing = [random_multicomplex(rng, ring, dim, length=3 if dim == 1 else 2,
                                   max_rank=2 if dim == 1 else 1, bricks=1 if dim == 3 else None,
                                   allow_fp=fp)
               for ring in (ZZ, GF(7)) for dim in (1, 2, 3) for fp in (False, True)]
    passing += _hand_built(F5X, [(0, 1), (1, 1)], F5X.poly([2]), F5X.poly([3]))[:3]
    for M in passing:
        yield "pass", resolve_multi(M)
    for M in _broken_inputs():
        yield "broken input", resolve_multi(M, check=False)
    for M in passing[:6]:
        res = resolve_multi(M)
        two = res.P.ring.from_int(2)
        # still a mono chain map, but its image is not ker zeta
        yield "incl scaled", _replaced(res, incl=MultiMorphism(
            res.Pprime, res.P, {c: f.scale(two) for c, f in res.incl.components.items()}))
        c = _first_nonzero(res.incl)
        f = res.incl.components[c]
        yield "incl zeroed", _replaced(res, incl=_with_component(
            res.incl, c, FpMorphism.zero(f.source, f.target)))
        c = _first_nonzero(res.zeta)
        f = res.zeta.components[c]
        yield "zeta zeroed", _replaced(res, zeta=_with_component(
            res.zeta, c, FpMorphism.zero(f.source, f.target)))
        c = next(c for c in sorted(res.sect) if not res.sect[c].is_zero())
        yield "section doubled", _replaced(res, sect={**res.sect, c: res.sect[c].scale(two)})
        c, r = next((c, r) for c, r in sorted(res.retr.items()) if r is not None)
        yield "retraction misshapen", _replaced(
            res, retr={**res.retr, c: Matrix.zeros(res.P.ring, r.rows, r.cols + 1)})
        yield "no splitting", _replaced(res, sect=None, retr=None)
        yield "incl endpoints", _replaced(res, incl=MultiMorphism.identity(res.P))
        yield "zeta endpoints", _replaced(res, zeta=MultiMorphism.identity(res.P))
        yield "axes claimed", _replaced(res, diagonal_axes=range(res.P.dim))
        # a retraction and a section that still split, but with r s != 0
        c = next((c for c, r in sorted(res.retr.items())
                  if r is not None and r.rows and res.zeta.components[c].mat.rows), None)
        if c is None:  # every coordinate with both ends nonzero lies over torsion
            continue
        I, Z = res.incl.components[c].mat, res.zeta.components[c].mat
        X = Matrix(res.P.ring, I.cols, Z.rows, [res.P.ring.one] * (I.cols * Z.rows))
        yield "retraction plus X zeta", _replaced(res, retr={**res.retr, c: res.retr[c] + X @ Z})
        yield "section plus incl Y", _replaced(res, sect={**res.sect, c: res.sect[c] + I @ X})
    # dimension 0 by hand: a zero inclusion, with r incl = 0; a projection
    # from the zero module, with zeta s = 0; and Z^2 ->> Z with nothing in
    # its kernel, where 0 + 1 generators miss the 2 of Z^2 (and
    # incl r + s zeta = diag(1, 0)); the other equations hold in all three
    point, nothing, plane = (BinaryMulticomplex.of_module(FpModule.free(ZZ, g))
                             for g in (1, 0, 2))
    yield "incl not mono", resolve.ResolutionResult(
        point, point, MultiMorphism.identity(point), MultiMorphism.zero(point, point),
        source=point, target=point, offset=(),
        sect={(): Matrix.identity(ZZ, 1)}, retr={(): Matrix.zeros(ZZ, 1, 1)})
    yield "zeta not epi", resolve.ResolutionResult(
        nothing, nothing, MultiMorphism.zero(nothing, point), MultiMorphism.identity(nothing),
        source=point, target=point, offset=(),
        sect={(): Matrix.zeros(ZZ, 0, 1)}, retr={(): Matrix.zeros(ZZ, 0, 0)})
    first = FpMorphism(plane.obj(()), point.obj(()), Matrix.from_int_rows(ZZ, [[1, 0]]))
    yield "middle not exact", resolve.ResolutionResult(
        plane, nothing, MultiMorphism(plane, point, {(): first}),
        MultiMorphism.zero(nothing, plane), source=point, target=point, offset=(),
        sect={(): Matrix.from_int_rows(ZZ, [[1], [0]])}, retr={(): Matrix.zeros(ZZ, 0, 2)})
    # incl = e1 + e2 into Z^2 ->> Z by e2^T: every equation but zeta incl = 0 holds
    diagonal = FpMorphism(point.obj(()), plane.obj(()), Matrix.from_int_rows(ZZ, [[1], [1]]))
    second = FpMorphism(plane.obj(()), point.obj(()), Matrix.from_int_rows(ZZ, [[0, 1]]))
    yield "incl not in the kernel", resolve.ResolutionResult(
        plane, point, MultiMorphism(plane, point, {(): second}),
        MultiMorphism(point, plane, {(): diagonal}), source=point, target=point, offset=(),
        sect={(): Matrix.from_int_rows(ZZ, [[0], [1]])},
        retr={(): Matrix.from_int_rows(ZZ, [[1, 0]])})
    # a kernel Z presented on two generators with a relation, so not free:
    # with incl = [0, 1] the sequence Z >-> Z ->> 0 is exact, with [0, 2]
    # it is not, and either way the kernel is invalid in free mode
    presented = BinaryMulticomplex.of_module(FpModule(ZZ, 2, Matrix.from_int_rows(ZZ, [[1], [0]])))
    for label, k in (("kernel presented", 1), ("kernel presented, incl doubled", 2)):
        into = FpMorphism(presented.obj(()), point.obj(()), Matrix.from_int_rows(ZZ, [[0, k]]))
        yield label, resolve.ResolutionResult(
            point, presented, MultiMorphism.zero(point, nothing),
            MultiMorphism(presented, point, {(): into}), source=nothing, target=nothing,
            offset=(), sect={(): Matrix.zeros(ZZ, 1, 0)}, retr={(): None})
    # a cover Z/2 that is not free, with nothing in its kernel
    two = BinaryMulticomplex.of_module(FpModule(ZZ, 1, Matrix(ZZ, 1, 1, [2])))
    yield "cover not free", resolve.ResolutionResult(
        two, nothing, MultiMorphism.identity(two), MultiMorphism.zero(nothing, two),
        source=two, target=two, offset=())
    m6 = FpModule(ZZ, 1, Matrix(ZZ, 1, 1, [6]))
    torsion = BinaryMulticomplex.from_binary_chain(
        ZZ, [m6, m6], [FpMorphism.identity(m6)], [FpMorphism.identity(m6)])
    yield "torsion target", resolve_multi(torsion)


def test_verify_resolution_agrees_with_elimination(monkeypatch):
    # splittings and two out of three must give the reports of validating P′
    # and running check_ses everywhere, failures and their order included
    ses_calls = [0]

    def counted_ses(i, p):
        ses_calls[0] += 1
        return fpmod.check_ses(i, p)

    monkeypatch.setattr(extension, "check_ses", counted_ses)
    seen, worded = {}, {}
    for label, res in _differential_cases():
        want = _verify_by_elimination(res)
        ses_calls[0] = 0
        got = verify_resolution(res)
        assert got.failures == want, label
        outcome = ("PASS" if got.ok else "sequence" if want[0].startswith("sequence at")
                   else "kernel" if want[0].startswith("kernel invalid") else "FAIL")
        seen.setdefault(label, set()).add(outcome)
        worded.setdefault(label, set()).update(got.failures)
        free = all(m.is_free_presentation() for m in res.target.objects.values())
        if label in ("section doubled", "retraction misshapen", "no splitting",
                     "torsion target", "retraction plus X zeta", "section plus incl Y"):
            # a splitting that fails its equations, or none, falls back
            assert got.ok and ses_calls[0] > 0, label
        if free and label in ("pass", "section doubled", "retraction misshapen",
                              "retraction plus X zeta", "section plus incl Y"):
            # only the coordinate whose splitting was broken falls back
            assert ses_calls[0] == (label != "pass"), label
    assert seen["pass"] == {"PASS"}
    assert "kernel" in seen["broken input"]
    assert seen["kernel presented"] == seen["kernel presented, incl doubled"] == {"kernel"}
    for label in ("incl scaled", "incl not mono", "zeta not epi", "middle not exact",
                  "incl not in the kernel"):
        assert seen[label] == {"sequence"}, label
    assert seen["incl zeroed"] == seen["zeta zeroed"] == {"FAIL"}
    for label, wording in (("incl endpoints", "inclusion endpoints are wrong"),
                           ("zeta endpoints", "projection endpoints are wrong"),
                           ("cover not free", "cover invalid: object at () is not free")):
        assert seen[label] == {"FAIL"} and wording in worded[label], label
    claims = {f"diagonality in axis {a} was not preserved" for a in range(3)}
    assert seen["axes claimed"] == {"PASS", "FAIL"} and worded["axes claimed"] <= claims


def test_a_splitting_that_misses_a_rank_is_refused():
    # Z^3 with incl = e1, s = e2, r = e1^T and zeta = e2^T: zeta incl = 0,
    # r incl = 1, zeta s = 1 and r s = 0 all hold, but [incl | s] is not
    # square, and e3 lies in ker zeta outside the image of incl
    space, point = (BinaryMulticomplex.of_module(FpModule.free(ZZ, g)) for g in (3, 1))
    incl = Matrix.from_int_rows(ZZ, [[1], [0], [0]])
    zeta = Matrix.from_int_rows(ZZ, [[0, 1, 0]])
    s, r = Matrix.from_int_rows(ZZ, [[0], [1], [0]]), Matrix.from_int_rows(ZZ, [[1, 0, 0]])
    res = resolve.ResolutionResult(
        space, point,
        MultiMorphism(space, point, {(): FpMorphism(space.obj(()), point.obj(()), zeta)}),
        MultiMorphism(point, space, {(): FpMorphism(point.obj(()), space.obj(()), incl)}),
        source=point, target=point, offset=(), sect={(): s}, retr={(): r})
    one = Matrix.identity(ZZ, 1)
    assert (zeta @ incl).is_zero() and (r @ s).is_zero()
    assert r @ incl == one and zeta @ s == one
    assert not extension._splits(res.incl.components[()], res.zeta.components[()], s, r)
    rep = verify_resolution(res)
    assert len(rep.failures) == 1 and rep.first().startswith("sequence at () is not exact")
