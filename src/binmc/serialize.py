"""Deterministic JSON document forms for the shareable objects.

Every document is plain JSON, UTF-8, with a version tag under "schema".
Ring elements are exact text: integers as decimal strings, rationals as
"a/b", prime-field elements as decimal strings, polynomials as ascending
coefficient lists.  Structural numbers (dimensions, shapes, coordinates,
ranks, signs) are ordinary JSON integers.  Serialization is canonical --
sorted keys, fixed separators, records emitted in sorted coordinate order --
so equal objects produce byte-identical documents and digests.

Parsing is strict: every malformed field raises ParseError carrying a
human-readable location (JSON line/column for syntax, a record path for
semantic problems).  Integer literals must be exactly as written here (no
'+', leading zeros, separators or whitespace), so equal objects have equal
input digests too.  A document that nests too deeply, or declares a support
box larger than its object list, is refused before any work is done.  Parsed
morphisms go through the ordinary constructors, so ill-defined maps and
mismatched shapes are rejected, not smuggled in.

Matrix entries cost one comparison per cell and one parse per nonzero.  A
parse compares each cell with the ring's zero literal ("0", "0/1" or []),
skips an all-zero row with one count, and parses only the other cells; an
emit starts each row as the zero literal repeated and converts only the
nonzero entries.  Neither ever builds a dense row of ring elements.
"""
from __future__ import annotations

import hashlib
import json
import math

from .errors import IllDefinedMorphism, ParseError, RingError, ShapeError
from .extension import ExtensionObject
from .fpmod import FpModule, FpMorphism
from .kgroups import (DiagonalStep, FormalClass, IsoStep, RelationChain,
                      SesStep)
from .matrix import Matrix
from .multicomplex import BinaryMulticomplex, MultiMorphism
from .resolve import ResolutionResult
from .rings import Ring, ring_from_descriptor

MULTICOMPLEX_SCHEMA = "binmc.multicomplex/1"
MATRIX_SCHEMA = "binmc.matrix/1"
RESOLUTION_SCHEMA = "binmc.resolution/1"
CHAIN_SCHEMA = "binmc.chain/1"
CLASS_SCHEMA = "binmc.class/1"
REPORT_SCHEMA = "binmc.report/1"


def canonical_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def digest(doc) -> str:
    return hashlib.sha256(canonical_dumps(doc).encode("utf-8")).hexdigest()


def load_text(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, f"line {e.lineno}, column {e.colno}")
    except RecursionError:
        raise ParseError("document nests too deeply", "document")
    except ValueError as e:  # e.g. an integer past the int conversion limit
        raise ParseError(str(e), "document")
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be an object", "document")
    return doc


def _need(doc, key, kind, where):
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"missing field {key!r}", where)
    value = doc[key]
    if kind is int and isinstance(value, bool):
        raise ParseError(f"field {key!r} must be an integer", where)
    if kind is not None and not isinstance(value, kind):
        raise ParseError(f"field {key!r} has the wrong type", where)
    return value


def _expect_schema(doc, schema, where):
    found = _need(doc, "schema", str, where)
    if found != schema:
        raise ParseError(f"expected schema {schema!r}, found {found!r}", where)


# -- rings ----------------------------------------------------------------


def ring_to_doc(ring: Ring) -> dict:
    return ring.descriptor()


def ring_from_doc(doc, where="ring") -> Ring:
    try:
        return ring_from_descriptor(doc)
    except RingError as e:
        raise ParseError(str(e), where)


# -- matrices and modules --------------------------------------------------


def matrix_to_doc(A: Matrix) -> dict:
    ring = A.ring
    to, zero, cols = ring.element_to_doc, ring.element_to_doc(ring.zero), A.cols
    fresh = isinstance(zero, list)  # every zero polynomial cell gets its own []
    rows = []
    for pairs in A.row_pairs():
        row = [[] for _ in range(cols)] if fresh else [zero] * cols
        for j, x in pairs:
            row[j] = to(x)
        rows.append(row)
    return {"rows": A.rows, "cols": cols, "entries": rows}


def matrix_from_doc(ring: Ring, doc, where="matrix") -> Matrix:
    rows = _need(doc, "rows", int, where)
    cols = _need(doc, "cols", int, where)
    entries = _need(doc, "entries", list, where)
    if rows < 0 or cols < 0 or len(entries) != rows:
        raise ParseError(f"expected {rows} rows of entries", where)
    # the zero literal parses to zero and never fails, so only the other
    # cells are parsed, in row order: the first bad cell is still reported
    zero, parse = ring.element_to_doc(ring.zero), ring.element_from_doc
    out = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"row {i} must hold {cols} entries", where)
        pairs = []
        if row.count(zero) != cols:
            try:
                for j in [j for j, cell in enumerate(row) if cell != zero]:
                    x = parse(row[j])
                    if x:  # QQ "0/5" and F_p[x] ["0"] parse to zero
                        pairs.append((j, x))
            except RingError as e:
                raise ParseError(str(e), f"{where}.entries[{i}][{j}]")
        out.append(pairs)
    return Matrix.from_row_pairs(ring, cols, out)


def matrix_document(A: Matrix) -> dict:
    return {"schema": MATRIX_SCHEMA, "ring": ring_to_doc(A.ring),
            "matrix": matrix_to_doc(A)}


def matrix_from_document(doc) -> Matrix:
    _expect_schema(doc, MATRIX_SCHEMA, "matrix document")
    ring = ring_from_doc(_need(doc, "ring", dict, "matrix document"))
    return matrix_from_doc(ring, _need(doc, "matrix", dict, "matrix document"))


def module_to_doc(m: FpModule) -> dict:
    return {"gens": m.gens, "rels": matrix_to_doc(m.rels)}


def module_from_doc(ring: Ring, doc, where="module") -> FpModule:
    gens = _need(doc, "gens", int, where)
    rels = matrix_from_doc(ring, _need(doc, "rels", dict, where), where + ".rels")
    try:
        return FpModule(ring, gens, rels)
    except ShapeError as e:
        raise ParseError(str(e), where)


# -- multicomplexes ---------------------------------------------------------


def _coord_doc(c) -> list:
    return list(c)


def _coord_from_doc(doc, dim, where) -> tuple:
    if (not isinstance(doc, list) or len(doc) != dim
            or any(isinstance(x, bool) or not isinstance(x, int) for x in doc)):
        raise ParseError(f"coordinate must be a list of {dim} integers", where)
    return tuple(doc)


def multicomplex_to_doc(M: BinaryMulticomplex) -> dict:
    objects = [{"at": _coord_doc(c), **module_to_doc(M.objects[c])}
               for c in sorted(M.objects)]
    diffs = [{"axis": a, "at": _coord_doc(c),
              "top": matrix_to_doc(M.tops[(a, c)].mat),
              "bottom": matrix_to_doc(M.bots[(a, c)].mat)}
             for (a, c) in sorted(M.tops)]
    return {"schema": MULTICOMPLEX_SCHEMA, "ring": ring_to_doc(M.ring),
            "dim": M.dim, "shape": list(M.shape),
            "objects": objects, "differentials": diffs}


def multicomplex_from_doc(doc, where="multicomplex") -> BinaryMulticomplex:
    _expect_schema(doc, MULTICOMPLEX_SCHEMA, where)
    ring = ring_from_doc(_need(doc, "ring", dict, where), where + ".ring")
    dim = _need(doc, "dim", int, where)
    if dim < 0:
        raise ParseError("dimension must be nonnegative", where)
    shape = _need(doc, "shape", list, where)
    if len(shape) != dim or any(isinstance(s, bool) or not isinstance(s, int) or s < 0
                                for s in shape):
        raise ParseError(f"shape must list {dim} nonnegative extents", where)
    shape = tuple(shape)
    records = _need(doc, "objects", list, where)
    # the box is materialized only once its volume is known to match the
    # object list, so a tiny document cannot declare a huge support box
    volume = math.prod(shape)
    if volume != len(records):
        raise ParseError(f"shape {list(shape)} needs {volume} objects, "
                         f"found {len(records)}", where)

    objects = {}
    for k, rec in enumerate(records):
        spot = f"{where}.objects[{k}]"
        c = _coord_from_doc(_need(rec, "at", list, spot), dim, spot)
        if c in objects:
            raise ParseError(f"duplicate object at {c}", spot)
        objects[c] = module_from_doc(ring, rec, spot)

    tops, bots = {}, {}
    for k, rec in enumerate(_need(doc, "differentials", list, where)):
        spot = f"{where}.differentials[{k}]"
        a = _need(rec, "axis", int, spot)
        c = _coord_from_doc(_need(rec, "at", list, spot), dim, spot)
        if not 0 <= a < dim or c[a] < 1:
            raise ParseError(f"axis {a} at {c} does not name an interior edge", spot)
        if (a, c) in tops:
            raise ParseError(f"duplicate differential at axis {a}, {c}", spot)
        tgt = c[:a] + (c[a] - 1,) + c[a + 1:]
        if c not in objects or tgt not in objects:
            raise ParseError(f"differential at axis {a}, {c} misses its endpoints", spot)
        for fam, out in (("top", tops), ("bottom", bots)):
            mat = matrix_from_doc(ring, _need(rec, fam, dict, spot), f"{spot}.{fam}")
            try:
                out[(a, c)] = FpMorphism(objects[c], objects[tgt], mat)
            except (ShapeError, IllDefinedMorphism) as e:
                raise ParseError(str(e), f"{spot}.{fam}")

    try:
        return BinaryMulticomplex(ring, dim, shape, objects, tops, bots)
    except ShapeError as e:
        raise ParseError(str(e), where)


# -- morphisms of multicomplexes --------------------------------------------


def components_to_doc(f: MultiMorphism) -> list:
    return [{"at": _coord_doc(c), "matrix": matrix_to_doc(f.components[c].mat)}
            for c in sorted(f.components)]


def components_from_doc(source: BinaryMulticomplex, target: BinaryMulticomplex,
                        doc, where="morphism") -> MultiMorphism:
    if not isinstance(doc, list):
        raise ParseError("morphism components must be a list", where)
    comps = {}
    for k, rec in enumerate(doc):
        spot = f"{where}[{k}]"
        c = _coord_from_doc(_need(rec, "at", list, spot), source.dim, spot)
        if c not in source.objects or c not in target.objects:
            raise ParseError(f"component at {c} is outside the support box", spot)
        if c in comps:
            raise ParseError(f"duplicate component at {c}", spot)
        mat = matrix_from_doc(source.ring, _need(rec, "matrix", dict, spot),
                              spot + ".matrix")
        try:
            comps[c] = FpMorphism(source.objects[c], target.objects[c], mat)
        except (ShapeError, IllDefinedMorphism) as e:
            raise ParseError(str(e), spot)
    try:
        return MultiMorphism(source, target, comps)
    except ShapeError as e:
        raise ParseError(str(e), where)


# -- resolution bundles ------------------------------------------------------


def resolution_to_doc(res: ResolutionResult) -> dict:
    return {"schema": RESOLUTION_SCHEMA,
            "ring": ring_to_doc(res.P.ring),
            "source": multicomplex_to_doc(res.source),
            "target": multicomplex_to_doc(res.target),
            "cover": multicomplex_to_doc(res.P),
            "kernel": multicomplex_to_doc(res.Pprime),
            "zeta": components_to_doc(res.zeta),
            "incl": components_to_doc(res.incl),
            "offset": list(res.offset),
            "diagonal_axes": sorted(res.diagonal_axes)}


def resolution_from_doc(doc, where="resolution") -> ResolutionResult:
    _expect_schema(doc, RESOLUTION_SCHEMA, where)
    source = multicomplex_from_doc(_need(doc, "source", dict, where), where + ".source")
    target = multicomplex_from_doc(_need(doc, "target", dict, where), where + ".target")
    offset = _need(doc, "offset", list, where)
    if len(offset) != source.dim or any(isinstance(o, bool) or not isinstance(o, int) or o < 0
                                        for o in offset):
        raise ParseError("offset must list one nonnegative shift per axis", where)
    # checked before verify_resolution re-boxes the source, so a huge offset
    # costs nothing: the target's box was already bounded by its own object list
    if target.dim != source.dim or any(s + o > t for s, o, t in
                                       zip(source.shape, offset, target.shape)):
        raise ParseError(f"target shape {list(target.shape)} does not contain the source "
                         f"shape {list(source.shape)} moved by offset {offset}", where)
    P = multicomplex_from_doc(_need(doc, "cover", dict, where), where + ".cover")
    Pprime = multicomplex_from_doc(_need(doc, "kernel", dict, where), where + ".kernel")
    zeta = components_from_doc(P, target, _need(doc, "zeta", list, where), where + ".zeta")
    incl = components_from_doc(Pprime, P, _need(doc, "incl", list, where), where + ".incl")
    axes = _need(doc, "diagonal_axes", list, where)
    if any(isinstance(a, bool) or not isinstance(a, int) or not 0 <= a < source.dim
           for a in axes):
        raise ParseError("diagonal_axes must list axes of the source", where)
    return ResolutionResult(P, Pprime, zeta, incl, source=source, target=target,
                            offset=tuple(offset), diagonal_axes=frozenset(axes))


# -- formal classes and relation chains --------------------------------------


def formal_class_to_doc(x: FormalClass) -> dict:
    return {"dim": x.dim,
            "entries": [{"coeff": c, "multicomplex": multicomplex_to_doc(M)}
                        for M, c in x.entries()]}


def formal_class_from_doc(doc, where="class") -> FormalClass:
    dim = _need(doc, "dim", int, where)
    if dim < 0:
        raise ParseError("dimension must be nonnegative", where)
    x = FormalClass.zero(dim)
    for k, rec in enumerate(_need(doc, "entries", list, where)):
        spot = f"{where}.entries[{k}]"
        coeff = _need(rec, "coeff", int, spot)
        M = multicomplex_from_doc(_need(rec, "multicomplex", dict, spot),
                                  spot + ".multicomplex")
        try:
            x = x + FormalClass.of(M, coeff)
        except ShapeError as e:
            raise ParseError(str(e), spot)
    return x


def class_document(x: FormalClass, witnesses) -> dict:
    return {"schema": CLASS_SCHEMA, **formal_class_to_doc(x),
            "witnesses": list(witnesses)}


def class_from_document(doc):
    _expect_schema(doc, CLASS_SCHEMA, "class document")
    x = formal_class_from_doc(doc, "class document")
    witnesses = _need(doc, "witnesses", list, "class document")
    if any(isinstance(w, bool) or not isinstance(w, int) for w in witnesses):
        raise ParseError("witnesses must list one axis per class entry", "class document")
    return x, witnesses


def _step_to_doc(step) -> dict:
    if step.kind == "ses":
        return {"kind": "ses", "sign": step.sign,
                "sub": multicomplex_to_doc(step.ext.sub),
                "total": multicomplex_to_doc(step.ext.total),
                "quot": multicomplex_to_doc(step.ext.quot),
                "mono": components_to_doc(step.ext.mono),
                "epi": components_to_doc(step.ext.epi)}
    if step.kind == "diagonal":
        return {"kind": "diagonal", "sign": step.sign, "axis": step.axis,
                "member": multicomplex_to_doc(step.member)}
    if step.kind == "iso":
        return {"kind": "iso", "sign": step.sign,
                "source": multicomplex_to_doc(step.forward.source),
                "target": multicomplex_to_doc(step.forward.target),
                "forward": components_to_doc(step.forward),
                "backward": components_to_doc(step.backward)}
    raise ShapeError(f"unknown step kind {step.kind!r}")


def _step_from_doc(doc, where):
    kind = _need(doc, "kind", str, where)
    sign = _need(doc, "sign", int, where)
    if sign not in (1, -1):
        raise ParseError("step sign must be 1 or -1", where)
    try:
        if kind == "ses":
            sub = multicomplex_from_doc(_need(doc, "sub", dict, where), where + ".sub")
            total = multicomplex_from_doc(_need(doc, "total", dict, where), where + ".total")
            quot = multicomplex_from_doc(_need(doc, "quot", dict, where), where + ".quot")
            mono = components_from_doc(sub, total, _need(doc, "mono", list, where),
                                       where + ".mono")
            epi = components_from_doc(total, quot, _need(doc, "epi", list, where),
                                      where + ".epi")
            return SesStep(ExtensionObject(sub, total, quot, mono, epi), sign)
        if kind == "diagonal":
            member = multicomplex_from_doc(_need(doc, "member", dict, where),
                                           where + ".member")
            return DiagonalStep(member, _need(doc, "axis", int, where), sign)
        if kind == "iso":
            source = multicomplex_from_doc(_need(doc, "source", dict, where),
                                           where + ".source")
            target = multicomplex_from_doc(_need(doc, "target", dict, where),
                                           where + ".target")
            forward = components_from_doc(source, target,
                                          _need(doc, "forward", list, where),
                                          where + ".forward")
            backward = components_from_doc(target, source,
                                           _need(doc, "backward", list, where),
                                           where + ".backward")
            return IsoStep(forward, backward, sign)
    except ShapeError as e:
        raise ParseError(str(e), where)
    raise ParseError(f"unknown step kind {kind!r}", where)


def chain_to_doc(chain: RelationChain) -> dict:
    return {"schema": CHAIN_SCHEMA,
            "start": formal_class_to_doc(chain.start),
            "end": formal_class_to_doc(chain.end),
            "steps": [_step_to_doc(s) for s in chain.steps]}


def chain_from_doc(doc, where="chain") -> RelationChain:
    _expect_schema(doc, CHAIN_SCHEMA, where)
    start = formal_class_from_doc(_need(doc, "start", dict, where), where + ".start")
    end = formal_class_from_doc(_need(doc, "end", dict, where), where + ".end")
    steps = [_step_from_doc(rec, f"{where}.steps[{k}]")
             for k, rec in enumerate(_need(doc, "steps", list, where))]
    return RelationChain(start, steps, end)


# -- dispatch ----------------------------------------------------------------


_PARSERS = {
    MULTICOMPLEX_SCHEMA: multicomplex_from_doc,
    MATRIX_SCHEMA: matrix_from_document,
    RESOLUTION_SCHEMA: resolution_from_doc,
    CHAIN_SCHEMA: chain_from_doc,
    CLASS_SCHEMA: class_from_document,
}


def parse_any(doc):
    """(schema, object) for any recognized document."""
    schema = _need(doc, "schema", str, "document")
    parser = _PARSERS.get(schema)
    if parser is None:
        raise ParseError(f"unrecognized schema {schema!r}", "document")
    return schema, parser(doc)
