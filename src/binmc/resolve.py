"""Witness-producing resolutions of acyclic binary multicomplexes.

Every valid multicomplex M receives a short exact sequence

    Pprime >--incl--> P --zeta--> target

in which P and Pprime have free objects and validate in free mode, and
target is M translated up by one in every axis: the cover extends one layer
below the input support along the expansion axis, and each slice cover one
layer below its own.  The result records that offset, (1,) * dim, or all
zeros for an input with a zero extent, which is its own resolution.

Two constructions are used along the chosen axis.  For an axis where the two
differentials agree, each cover summand is a two-layer identity complex
("staircase"), so the cover is diagonal in that axis; its layout is
multicomplex.staircase_rows, the same one cofinal's shift complex uses.
Otherwise each summand is a doubled complex whose top and bottom
differentials are the shift patterns [[0,1],[0,0]] and [[0,0],[1,0]], glued
to the target by an alternating ladder of composites of the two
differentials.  Both covers are assembled by multicomplex.layered_sum, and
each layer of the projection zeta by multicomplex.block_identity_morphism
from its blocks keyed by summand tag.  Higher dimensions recurse: the
epimorphism provider for an n-dimensional input is the (n-1)-dimensional
resolution of its slices, and the base provider for modules is the free
cover.  The slice covers are re-wrapped onto the translated input's slices
without a comparison; verify_resolution checks the target.

Kernels are assembled by products, not eliminated.  Each resolution
carries, per coordinate, a section s of its projection (zeta s = 1 modulo
the target's relations) and, where one exists, a retraction rho of its
inclusion (rho incl = 1).  At layer j >= 1 the new projection is [A | E], with E the
projection of a lower resolution whose inclusion K_E, section s and
retraction rho_E are known; then

    ker [A | E] = [[1, 0], [-s A, K_E]],  section [0; s],
    retraction [[1, 0], [rho_E s A, rho_E]] = [[1, 0], [0, rho_E]],

because rho s = 0 throughout: it holds for a module's empty retraction and
[0; s] keeps it.  At layer 0, which maps to the zero slice, the kernel is
everything.  The kernel's differentials are rho d incl.  A module has the
section 1 of its free cover, and a free module the zero kernel and the empty
retraction; only a module with relations computes its kernel, and the
coordinates above a torsion target have no retraction, so the edges into
them are lifted by a solve.  verify_resolution hands s and rho to the
extension P′ >-> P ->> target, whose check (extension._splits) tests them as a
splitting certificate rather than trusting them, and it infers P′ from the
splitting, P and the source.
"""
from __future__ import annotations

from .errors import ShapeError
from .extension import ExtensionObject
from .fpmod import FpModule, FpMorphism, free_cover, is_epi, kernel
from .matrix import Matrix, block_diag, block_matrix
from .multicomplex import (BinaryMulticomplex, MultiMorphism, ValidationReport,
                           _insert, _rebox, _restrict, block_identity_morphism,
                           box_coords, common_shape, expand_along, layered_sum,
                           pad_morphism, pad_to, shift, staircase_rows, validate)


class ResolutionResult:
    """A verified-checkable SES presenting target as a quotient of P.

    diagonal_axes lists the axes in which the construction promises to keep
    P and Pprime diagonal (every diagonal axis of the source, unless the
    doubled-cover branch was forced on a diagonal input).

    sect and retr hold, per coordinate, a section of zeta and a retraction
    of incl (or None), in the format of ExtensionObject's.  The next level
    builds its kernel from them, and verify_resolution passes them to the
    extension check as a splitting; they are not serialized.
    """

    __slots__ = ("P", "Pprime", "zeta", "incl", "source", "target", "offset",
                 "diagonal_axes", "sect", "retr")

    def __init__(self, P, Pprime, zeta, incl, source, target, offset,
                 diagonal_axes=frozenset(), sect=None, retr=None):
        self.P = P
        self.Pprime = Pprime
        self.zeta = zeta
        self.incl = incl
        self.source = source
        self.target = target
        self.offset = tuple(offset)
        self.diagonal_axes = frozenset(diagonal_axes)
        self.sect = sect
        self.retr = retr

    def __repr__(self):
        return (f"ResolutionResult(dim={self.P.dim}, shape={self.P.shape}, "
                f"offset={self.offset})")


def verify_resolution(res: ResolutionResult) -> ValidationReport:
    """Re-check every claim a ResolutionResult makes.  The sequence at each
    coordinate is decided by ExtensionObject.first_inexact, which tries the
    carried splitting before check_ses.  P′ is validated unless two out
    of three settle it: incl is a mono chain map, and each line of P′ sits in
    a short exact sequence whose other lines (of P and of the target) are
    acyclic.  The target is then the source translated and padded with zero
    objects, which keeps validity, so the smaller source is what validates."""
    failures = []
    rep_p = validate(res.P, "free")
    if not rep_p.ok:
        failures.append(f"cover invalid: {rep_p.first()}")
    # P′'s differentials were lifted through incl, so they mean nothing (and
    # may cost a great deal to validate) unless incl is a chain map
    if res.incl.source != res.Pprime or res.incl.target != res.P:
        incl_fault = "inclusion endpoints are wrong"
    elif not res.incl.commutes():
        incl_fault = "inclusion does not commute with the differentials"
    else:
        incl_fault = None
    expected = pad_to(shift(res.source, res.offset), res.target.shape)
    if expected != res.target:
        failures.append("target is not the offset translate of the source")
    if res.zeta.source != res.P or res.zeta.target != res.target:
        failures.append("projection endpoints are wrong")
    elif not res.zeta.commutes():
        failures.append("projection does not commute with the differentials")
    if incl_fault:
        failures.append(incl_fault)
    inexact = None if failures else ExtensionObject(
        res.Pprime, res.P, res.target, res.incl, res.zeta, res.sect, res.retr).first_inexact()
    if incl_fault is None and (
            failures or inexact
            or not all(m.is_free_presentation() for m in res.Pprime.objects.values())
            or not validate(res.source, "free").ok):
        rep_k = validate(res.Pprime, "free")
        if not rep_k.ok:
            # reported as if validated first, which leaves the sequence unchecked
            failures.insert(0 if rep_p.ok else 1, f"kernel invalid: {rep_k.first()}")
            inexact = None
    if inexact:
        failures.append("sequence at {} is not exact: {}".format(*inexact))
    for a in sorted(res.diagonal_axes):
        if not res.P.is_diagonal_in(a) or not res.Pprime.is_diagonal_in(a):
            failures.append(f"diagonality in axis {a} was not preserved")
    return ValidationReport(not failures, tuple(failures))


def _ladder_composites(eps, tops, bots):
    """(delta, delta_prime): the alternating composites Q_k -> term_{k+1-l}
    at (k, l).  delta(k,1) = top o eps_k, delta'(k,1) = bottom o eps_k, and
    each further lag prepends the other family's differential:
    delta(k,l+1) = top o delta'(k,l), delta'(k,l+1) = bottom o delta(k,l).
    """
    delta, delta_prime = {}, {}
    for k in range(1, len(eps)):
        delta[(k, 1)] = tops[k] @ eps[k]
        delta_prime[(k, 1)] = bots[k] @ eps[k]
        for l in range(1, k):
            delta[(k, l + 1)] = tops[k - l] @ delta_prime[(k, l)]
            delta_prime[(k, l + 1)] = bots[k - l] @ delta[(k, l)]
    return delta, delta_prime


def _module_resolution(M0: BinaryMulticomplex) -> ResolutionResult:
    mod = M0.obj(())
    ring, g = mod.ring, mod.gens
    eps = free_cover(mod)
    if mod.is_free_presentation():
        K = FpModule.free(ring, 0)
        incl = FpMorphism(K, eps.source, Matrix.zeros(ring, g, 0), _trusted=True)
        retr = Matrix.zeros(ring, 0, g)
    else:
        K, incl = kernel(eps)
        retr = None
    P = BinaryMulticomplex.of_module(eps.source)
    Pp = BinaryMulticomplex.of_module(K)
    return ResolutionResult(
        P, Pp,
        MultiMorphism(P, M0, {(): eps}),
        MultiMorphism(Pp, P, {(): incl}),
        source=M0, target=M0, offset=(),
        sect={(): Matrix.identity(ring, g)}, retr={(): retr})


def _staircase_tables(L, eps, big_tops):
    """Projection blocks, by summand tag, onto the staircase_rows cover along
    a diagonal axis (post-shift degrees 0..L)."""
    blocks = [{("lo", j): big_tops[j] @ eps[j]} if j < L else {} for j in range(L + 1)]
    for j in range(1, L + 1):
        blocks[j][("hi", j - 1)] = eps[j - 1]
    return blocks


def _ladder_tables(L, eps, delta, delta_prime):
    """Atom lists, ladder projection blocks by summand tag, and the two shift
    routings for the doubled covers along a non-diagonal axis."""
    atoms = [[("end", k) for k in range(L - 1, -1, -1)]]
    blocks = [{}]  # degree 0 projects to the zero slice
    for j in range(1, L + 1):
        row = {}
        for k in range(L - 1, j - 1, -1):
            row[("a", k)] = delta[(k, k - j + 1)]
            row[("b", k)] = delta_prime[(k, k - j + 1)]
        row[("top", j - 1)] = eps[j - 1]
        atoms.append(list(row))
        blocks.append(row)

    def route(j, x, y):
        """Into layer j - 1: (y, k) -> (x, k) for k >= j and ("top", j - 1) ->
        (x, j - 1), where layer 0 holds ("end", k) in place of (x, k)."""
        t = "end" if j == 1 else x
        return {((t, k), (y, k)) for k in range(j, L)} | {((t, j - 1), ("top", j - 1))}

    return (atoms, blocks, {j: route(j, "a", "b") for j in range(1, L + 1)},
            {j: route(j, "b", "a") for j in range(1, L + 1)})


def _carried(cover: ResolutionResult, shape) -> dict:
    """(inclusion matrix, section, retraction) of a cover at each coordinate
    of the box of the given shape; outside the cover's box, of zero modules."""
    empty = Matrix.zeros(cover.P.ring, 0, 0)
    return {r: (cover.incl.components[r].mat, cover.sect[r], cover.retr[r])
            if r in cover.sect else (empty, empty, empty) for r in box_coords(shape)}


def _kernel_from_section(Z: Matrix, lower):
    """(inclusion, section, retraction) of ker Z at one coordinate.

    Z = [A | E], where lower = (K_E, s, rho_E) carries E's kernel inclusion,
    a section with E s = 1 modulo the target's relations, and a retraction
    with rho_E K_E = 1 (or None); lower is None on layer 0, where Z maps to
    the zero module.
    """
    ring, n = Z.ring, Z.cols
    if lower is None:
        ident = Matrix.identity(ring, n)
        return ident, Matrix.zeros(ring, n, Z.rows), ident
    K, s, rho = lower
    a = n - s.rows
    sA = s @ Z.submatrix(0, Z.rows, 0, a)
    ident = Matrix.identity(ring, a)
    heights = [a, s.rows]
    incl = block_matrix(ring, heights, [a, K.cols], {(0, 0): ident, (1, 0): -sA, (1, 1): K})
    sect = block_matrix(ring, heights, [Z.rows], {(1, 0): s})
    if rho is not None:
        # [[1, 0], [rho_E s A, rho_E]], where rho_E s = 0 (see the module notes)
        rho = block_diag(ring, [ident, rho])
    return incl, sect, rho


def _resolve(M: BinaryMulticomplex, branch=None) -> ResolutionResult:
    if M.dim == 0:
        return _module_resolution(M)
    if any(s == 0 for s in M.shape):
        ident = MultiMorphism(M, M, {})
        return ResolutionResult(M, M, ident, ident, source=M, target=M,
                                offset=(0,) * M.dim,
                                diagonal_axes=range(M.dim), sect={}, retr={})
    diag = M.diagonal_directions()
    if branch is None:
        branch = "staircase" if diag else "ladder"
    axis = min(diag) if branch == "staircase" else M.dim - 1
    covers = [_resolve(term) for term in expand_along(M, axis)[0]]
    L = len(covers)
    # every cover's target is its slice moved up by one in each of its axes
    r_star = common_shape([c.P for c in covers])
    eps = [pad_morphism(c.zeta, r_star) for c in covers]
    lower = [_carried(c, r_star) for c in covers]
    offset = (1,) * M.dim
    final_shape = r_star[:axis] + (L + 1,) + r_star[axis:]
    target = _rebox(M, offset, final_shape)
    big_terms, big_tops, big_bots = expand_along(target, axis)
    eps = [MultiMorphism(e.source, big_terms[t + 1], e.components) for t, e in enumerate(eps)]
    Q = [f.source for f in eps]

    if branch == "staircase":
        rows, route = staircase_rows(Q)
        route_top = route_bot = route
        blocks = _staircase_tables(L, eps, big_tops)
    else:
        tags, blocks, route_top, route_bot = _ladder_tables(
            L, eps, *_ladder_composites(eps, big_tops, big_bots))
        rows = [[(tag, Q[tag[1]]) for tag in row] for row in tags]
    P, terms = layered_sum(rows, route_top, route_bot, axis)

    zeta_comps, incls, sect, retr = {}, {}, {}, {}
    for j in range(L + 1):
        layer = block_identity_morphism(rows[j], [("big", big_terms[j])],
                                        {("big", tag): f for tag, f in blocks[j].items()},
                                        terms[j], big_terms[j])
        for r, f in layer.components.items():
            c = _insert(r, axis, j)
            zeta_comps[c] = f
            K, sect[c], retr[c] = _kernel_from_section(f.mat, lower[j - 1][r] if j else None)
            incls[c] = FpMorphism(FpModule.free(M.ring, K.cols), f.source, K, _trusted=True)
    zeta = MultiMorphism(P, target, zeta_comps)
    Pprime, incl = _restrict(P, incls, "source differential does not restrict to the kernel",
                             retr)
    claimed = diag if branch == "staircase" else frozenset()
    return ResolutionResult(P, Pprime, zeta, incl, source=M, target=target,
                            offset=offset, diagonal_axes=claimed, sect=sect, retr=retr)


_INVALID_INPUT = "input is not a valid acyclic binary multicomplex"


def resolve_multi(M: BinaryMulticomplex, check: bool = True) -> ResolutionResult:
    """Resolution in any dimension; staircase along a diagonal axis when one
    exists, doubled covers along the highest axis otherwise."""
    if check:
        validate(M, "fp").require(_INVALID_INPUT)
    return _resolve(M)


def resolve_binary(M: BinaryMulticomplex, check: bool = True) -> ResolutionResult:
    """One-dimensional resolution by doubled covers (works for any input)."""
    if M.dim != 1:
        raise ShapeError("resolve_binary expects a one-dimensional input")
    if check:
        validate(M, "fp").require(_INVALID_INPUT)
    return _resolve(M, branch="ladder")


def phi_class(M: FpModule, cover: FpMorphism = None) -> int:
    """rank(P) - rank(P') for a free presentation P' >-> P ->> M.

    The value is independent of the chosen cover; by default the free cover
    on the module's generators is used.
    """
    if cover is None:
        cover = free_cover(M)
    else:
        if cover.target != M:
            raise ShapeError("cover must surject onto the module")
        if not cover.source.is_free_presentation():
            raise ShapeError("cover source must be free")
        if not is_epi(cover):
            raise ShapeError("cover must be an epimorphism")
    K, _ = kernel(cover)
    if not K.is_free_presentation():
        raise ShapeError("kernel of the cover is not free over this ring")
    return cover.source.gens - K.gens
