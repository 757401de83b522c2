"""Seeded random instance generation.

Everything takes an explicit random.Random so runs are reproducible.  The
generators build objects that are correct by construction (direct sums of
exact pieces, conjugated by verified automorphisms), which is what makes them
usable as oracles: an instance carries its expected invariants with it.
"""
from __future__ import annotations

import random

from .complexes import ChainComplex
from .errors import IllDefinedMorphism
from .extension import ExtensionObject, split_extension
from .fpmod import FpModule, FpMorphism, direct_sum_modules
from .kgroups import FormalClass
from .matrix import Matrix, block_diag, det, kron, smith
from .multicomplex import (BinaryMulticomplex, MultiMorphism, _assemble, _minus,
                           box_coords, direct_sum_multi)
from .rings import Ring, ZZ


def random_unimodular(rng: random.Random, ring: Ring, n: int, steps: int = 8):
    """(U, U inverse): U is a product of elementary matrices, built by row
    operations on the identity, and each one's inverse acts on the columns
    of the inverse."""
    rows = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
    inv = [r[:] for r in rows]
    for _ in range(steps if n > 1 else 0):
        op = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if op == 0:
            c = ring.from_int(rng.choice([-2, -1, 1, 2]))
            rows[i] = [ring.add(a, ring.mul(c, b)) for a, b in zip(rows[i], rows[j])]
            for r in inv:
                r[j] = ring.sub(r[j], ring.mul(c, r[i]))
        elif op == 1:
            rows[i], rows[j] = rows[j], rows[i]
            for r in inv:
                r[i], r[j] = r[j], r[i]
        else:
            rows[i] = [ring.neg(a) for a in rows[i]]
            for r in inv:
                r[i] = ring.neg(r[i])
    if n == 1 and rng.random() < 0.5:
        rows[0][0] = inv[0][0] = ring.neg(rows[0][0])
    return Matrix.from_rows(ring, rows), Matrix.from_rows(ring, inv)


def random_fp_module(rng: random.Random, ring: Ring, max_gens: int = 3) -> FpModule:
    g = rng.randint(0, max_gens)
    if g == 0:
        return FpModule.zero(ring)
    diag = []
    for _ in range(g):
        roll = rng.random()
        if roll < 0.45:
            diag.append(None)  # free generator
        else:
            diag.append(ring.from_int(rng.choice((2, 3, 4, 6))))
    cols = [c for c in diag if c is not None]
    rels = [[ring.zero] * len(cols) for _ in range(g)]
    c = 0
    for i, d in enumerate(diag):
        if d is not None:
            rels[i][c] = d
            c += 1
    # scramble the presentation without changing the module
    U, _ = random_unimodular(rng, ring, g, steps=4)
    return FpModule(ring, g, U @ Matrix.from_rows(ring, rels))


def random_automorphism(rng: random.Random, mod: FpModule):
    """(f, f_inverse), both verified well-defined; falls back to the identity."""
    ring = mod.ring
    n = mod.gens
    if n == 0 or mod.is_free_presentation():
        U, U_inv = random_unimodular(rng, ring, n)
        return (FpMorphism(mod, mod, U, _trusted=True),
                FpMorphism(mod, mod, U_inv, _trusted=True))
    f = FpMorphism.identity(mod)
    finv = FpMorphism.identity(mod)
    for _ in range(4):
        accepted = None
        for _ in range(6):
            if n > 1 and rng.random() < 0.7:
                i, j = rng.sample(range(n), 2)
                c = ring.from_int(rng.choice([-2, -1, 1, 2]))
                E = [[ring.one if a == b else ring.zero for b in range(n)] for a in range(n)]
                Einv = [r[:] for r in E]
                E[i][j] = c
                Einv[i][j] = ring.neg(c)
            else:
                i = rng.randrange(n)
                u = ring.from_int(-1) if not ring.is_field else \
                    ring.from_int(rng.randrange(1, getattr(ring, "p", 2)) or 1)
                if ring.is_zero(u) or not ring.is_unit(u):
                    continue
                E = [[ring.one if a == b else ring.zero for b in range(n)] for a in range(n)]
                Einv = [r[:] for r in E]
                E[i][i] = u
                Einv[i][i] = ring.unit_inverse(u)
            try:
                step = FpMorphism(mod, mod, Matrix.from_rows(ring, E))
                step_inv = FpMorphism(mod, mod, Matrix.from_rows(ring, Einv))
            except IllDefinedMorphism:
                continue
            accepted = (step, step_inv)
            break
        if accepted:
            f = accepted[0] @ f
            finv = finv @ accepted[1]
    return f, finv


def complex_direct_sum(complexes) -> ChainComplex:
    complexes = list(complexes)
    ring = complexes[0].ring
    L = max(c.length for c in complexes)
    padded = [_window(ring, L, 0, c.objects, c.diffs) for c in complexes]
    mods = [direct_sum_modules([p.objects[k] for p in padded]) for k in range(L)]
    diffs = [FpMorphism(mods[k + 1], mods[k], block_diag(ring, [p.diffs[k].mat for p in padded]),
                        _trusted=True) for k in range(L - 1)]
    return ChainComplex(ring, mods, diffs)


def _window(ring, length, at, mods, maps) -> ChainComplex:
    """The complex of the given length holding mods[i] in degree at + i and
    maps[i] : mods[i + 1] -> mods[i], zero outside that window; unchecked,
    since complex_direct_sum checks the sum of the pieces."""
    zero = FpModule.zero(ring)
    objects = [zero] * at + list(mods) + [zero] * (length - at - len(mods))
    diffs = [FpMorphism.zero(objects[k + 1], objects[k]) for k in range(length - 1)]
    diffs[at:at + len(maps)] = maps
    return ChainComplex(ring, objects, diffs, check=False)


def _piece_identity(ring, mod: FpModule, at: int, length: int) -> ChainComplex:
    return _window(ring, length, at, [mod, mod], [FpMorphism.identity(mod)])


def _piece_lone(ring, mod: FpModule, at: int, length: int) -> ChainComplex:
    return _window(ring, length, at, [mod], [])


def _piece_scale(ring, m: int, at: int, length: int) -> ChainComplex:
    free1 = FpModule.free(ring, 1)
    scale = FpMorphism(free1, free1, Matrix.from_rows(ring, [[ring.from_int(m)]]), _trusted=True)
    return _window(ring, length, at, [free1, free1], [scale])


def _piece_free_resolution(rng, ring, at: int, length: int, max_rank: int) -> ChainComplex:
    """0 -> R^a -> R^a -> coker -> 0 spanning degrees at..at+2; acyclic with torsion."""
    a = rng.randint(1, max(1, max_rank - 1))
    while True:
        A = Matrix.from_int_rows(ring, [[rng.randint(-3, 3) for _ in range(a)] for _ in range(a)])
        if not ring.is_zero(det(A)):
            break
    free_a = FpModule.free(ring, a)
    cok = FpModule(ring, a, A)
    return _window(ring, length, at, [cok, free_a, free_a],
                   [FpMorphism(free_a, cok, Matrix.identity(ring, a), _trusted=True),
                    FpMorphism(free_a, free_a, A, _trusted=True)])


def conjugate_complex(rng: random.Random, C: ChainComplex) -> ChainComplex:
    """Apply a random automorphism in every degree; homology is unchanged."""
    autos = [random_automorphism(rng, m) for m in C.objects]
    diffs = []
    for k in range(C.length - 1):
        f, _ = autos[k]
        _, ginv = autos[k + 1]
        diffs.append(f @ C.diffs[k] @ ginv)
    return ChainComplex(C.ring, C.objects, diffs)


def random_acyclic_complex(rng: random.Random, ring: Ring, length: int = 4,
                           max_rank: int = 3, allow_fp: bool = True) -> ChainComplex:
    """Direct sum of exact pieces, conjugated degreewise.  Acyclic by construction."""
    pieces = []
    n_pieces = rng.randint(1, 3)
    for _ in range(n_pieces):
        roll = rng.random()
        if allow_fp and ring == ZZ and roll < 0.3 and length >= 3:
            pieces.append(_piece_free_resolution(rng, ring, rng.randint(0, length - 3),
                                                 length, max_rank))
        elif allow_fp and roll < 0.55:
            mod = random_fp_module(rng, ring, max_gens=max_rank)
            pieces.append(_piece_identity(ring, mod, rng.randint(0, length - 2), length))
        else:
            mod = FpModule.free(ring, rng.randint(1, max_rank))
            pieces.append(_piece_identity(ring, mod, rng.randint(0, length - 2), length))
    return conjugate_complex(rng, complex_direct_sum(pieces))


def random_complex_with_known_homology(rng: random.Random, ring: Ring,
                                       length: int = 4, max_rank: int = 3):
    """(complex, expected) where expected[k] == (betti, torsion tuple) exactly.

    Built from pieces whose homology is known by construction and preserved by
    the degreewise conjugation.  Free objects only, so both homology
    algorithms apply.
    """
    pieces = []
    expected = {k: [0, []] for k in range(length)}
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if roll < 0.4:
            r = rng.randint(1, max_rank)
            pieces.append(_piece_identity(ring, FpModule.free(ring, r),
                                          rng.randint(0, length - 2), length))
        elif roll < 0.7 or ring.is_field:
            at = rng.randint(0, length - 1)
            r = rng.randint(1, max_rank)
            pieces.append(_piece_lone(ring, FpModule.free(ring, r), at, length))
            expected[at][0] += r
        else:
            at = rng.randint(0, length - 2)
            m = rng.choice([2, 3, 4, 6])
            pieces.append(_piece_scale(ring, m, at, length))
            expected[at][1].append(m)
    C = conjugate_complex(rng, complex_direct_sum(pieces))
    # canonical torsion order: sorted by divisibility is what Smith produces;
    # merge multiplicities the same way (2,6,4) -> invariant factors of the sum
    out = {}
    for k, (betti, tors) in expected.items():
        if tors:
            diag = Matrix.from_int_rows(ring, [[t if i == j else 0 for j in range(len(tors))]
                                               for i, t in enumerate(tors)])
            dec = smith(diag)
            canon = tuple(d for d in dec.diagonal()
                          if not ring.is_zero(d) and not ring.is_unit(d))
        else:
            canon = ()
        out[k] = (betti, canon)
    return C, out


# ---------------------------------------------------------------------------
# binary multicomplex generation
# ---------------------------------------------------------------------------

def _random_unit(rng: random.Random, ring: Ring):
    pool = [ring.from_int(v) for v in (1, -1, 2, -2, 3)]
    pool = [u for u in pool if not ring.is_zero(u) and ring.is_unit(u)]
    return rng.choice(pool)


def random_binary_base(rng: random.Random, ring: Ring, length: int,
                       max_rank: int = 2, diagonal: bool = False):
    """(ranks, top mats, bottom mats) for one axis: two acyclic families on
    shared free objects.  The bottom family is the top one when diagonal,
    otherwise a unit-rescaled, degreewise-conjugated copy (still acyclic)."""
    C = random_acyclic_complex(rng, ring, length=length, max_rank=max_rank, allow_fp=False)
    ranks = [m.gens for m in C.objects]
    tops = [d.mat for d in C.diffs]
    if diagonal:
        return ranks, tops, list(tops)
    pairs = [random_unimodular(rng, ring, r) for r in ranks]
    bots = []
    for k, d in enumerate(tops):
        tw = d.scale(_random_unit(rng, ring)) if rng.random() < 0.6 else d
        bots.append(pairs[k][0] @ tw @ pairs[k + 1][1])
    return ranks, tops, bots


def _tensor_brick(ring: Ring, bases):
    """Free binary multicomplex whose axis-a differentials act on one tensor
    factor; per-line acyclicity and all commutation squares hold by shape."""
    shape = tuple(len(b[0]) for b in bases)

    def rank_at(c):
        r = 1
        for a, x in enumerate(c):
            r *= bases[a][0][x]
        return r

    objects = {c: FpModule.free(ring, rank_at(c)) for c in box_coords(shape)}

    def diff(fam, axis, c):
        """The differential at (axis, c) of the family at index fam of a base."""
        factor = None
        for a, x in enumerate(c):
            piece = bases[a][fam][x - 1] if a == axis else Matrix.identity(ring, bases[a][0][x])
            factor = piece if factor is None else kron(factor, piece)
        return FpMorphism(objects[c], objects[_minus(c, axis)], factor, _trusted=True)

    return _assemble(ring, shape, objects, lambda a, c: (diff(1, a, c), diff(2, a, c)))


def _double_brick(rng: random.Random, ring: Ring, dim: int, length: int,
                  max_rank: int, diagonal_axes) -> BinaryMulticomplex:
    """Finitely presented brick: an acyclic complex along axis 0, doubled
    across unit-scalar identity maps in every other axis."""
    C = random_acyclic_complex(rng, ring, length=length, max_rank=max_rank, allow_fp=True)
    shape = (C.length,) + (2,) * (dim - 1)
    units = {}
    for a in range(1, dim):
        ut = _random_unit(rng, ring)
        ub = ut if a in diagonal_axes else _random_unit(rng, ring)
        units[a] = (ut, ub)
    base_scale = ring.one if 0 in diagonal_axes else _random_unit(rng, ring)
    objects = {c: C.objects[c[0]] for c in box_coords(shape)}

    def edge(a, c):
        if a == 0:
            d = C.diffs[c[0] - 1]
            return d, (d if 0 in diagonal_axes else d.scale(base_scale))
        ident = FpMorphism.identity(objects[c])
        return tuple(ident.scale(u) for u in units[a])

    return _assemble(ring, shape, objects, edge)


def conjugate_multicomplex(rng: random.Random, M: BinaryMulticomplex):
    """(M', iso, iso_inv): same grid, differentials conjugated coordinatewise.

    Validity and diagonal directions are preserved because both families are
    conjugated by the same automorphisms.
    """
    autos = {c: random_automorphism(rng, m) for c, m in M.objects.items()}

    def edge(a, c):
        f, g_inv = autos[_minus(c, a)][0], autos[c][1]
        return f @ M.tops[(a, c)] @ g_inv, f @ M.bots[(a, c)] @ g_inv

    Mp = _assemble(M.ring, M.shape, M.objects, edge)
    iso = MultiMorphism(M, Mp, {c: autos[c][0] for c in autos})
    iso_inv = MultiMorphism(Mp, M, {c: autos[c][1] for c in autos})
    return Mp, iso, iso_inv


def random_multicomplex(rng: random.Random, ring: Ring, dim: int,
                        length: int = 3, max_rank: int = 2,
                        diagonal_axes=(), allow_fp: bool = False,
                        bricks: int = None) -> BinaryMulticomplex:
    """Valid-by-construction binary multicomplex of the given dimension.

    Axes listed in diagonal_axes get equal top and bottom differentials.
    With allow_fp, some bricks carry non-free objects (torsion presentations).
    """
    diagonal_axes = frozenset(diagonal_axes)
    if dim == 0:
        mod = random_fp_module(rng, ring) if allow_fp else \
            FpModule.free(ring, rng.randint(0, max_rank))
        return BinaryMulticomplex.of_module(mod)
    parts = []
    n_bricks = bricks if bricks is not None else rng.randint(1, 2)
    for _ in range(n_bricks):
        if allow_fp and rng.random() < 0.5:
            parts.append(_double_brick(rng, ring, dim, rng.randint(2, max(2, length)),
                                       max_rank, diagonal_axes))
        else:
            bases = []
            for a in range(dim):
                ext = rng.randint(2, max(2, length)) if a == 0 else rng.randint(2, min(3, max(2, length)))
                bases.append(random_binary_base(rng, ring, ext, max_rank,
                                                diagonal=a in diagonal_axes))
            parts.append(_tensor_brick(ring, bases))
    M = direct_sum_multi(parts) if len(parts) > 1 else parts[0]
    Mp, _, _ = conjugate_multicomplex(rng, M)
    return Mp


def random_multi_extension(rng: random.Random, sub: BinaryMulticomplex,
                           quot: BinaryMulticomplex):
    """A not-visibly-split extension: the split one, conjugated in the middle."""
    E = split_extension(sub, quot)
    total, iso, iso_inv = conjugate_multicomplex(rng, E.total)
    return ExtensionObject(E.sub, total, E.quot, iso @ E.mono, E.epi @ iso_inv)


def random_tn_class(rng: random.Random, ring: Ring, dim: int, terms: int = 2,
                    length: int = 2, max_rank: int = 2):
    """(x, witnesses): a certified signed sum of diagonal generators.

    Each generator is diagonal in one random axis; witnesses list that axis
    per entry of x.entries(), which is what tn_membership_certificate and
    diagonal_represent consume.
    """
    by_key, drawn = {}, []
    for _ in range(terms):
        axis = rng.randrange(dim)
        g = random_multicomplex(rng, ring, dim, length=length, max_rank=max_rank,
                                diagonal_axes=(axis,))
        drawn.append((g, rng.choice((1, -1))))
        by_key[g.canonical_key()] = axis
    x = FormalClass(dim, drawn)
    witnesses = [by_key[M.canonical_key()] for M, _ in x.entries()]
    return x, witnesses
