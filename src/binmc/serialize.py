"""Deterministic JSON document forms for the shareable objects.

Every document is plain JSON, UTF-8, with a version tag under "schema".
Ring elements are exact text: integers as decimal strings, rationals as
"a/b", prime-field elements as decimal strings, polynomials as ascending
coefficient lists.  Structural numbers (dimensions, shapes, coordinates,
ranks, signs, columns, member indices) are ordinary JSON integers.
Serialization is canonical -- sorted keys, fixed separators, records
emitted in sorted coordinate order -- so equal objects produce
byte-identical documents and digests.

Writers emit version 2 of every schema; readers accept version 1 as well.
The two versions differ in how a matrix is written:

- version 2: ``{"cols": n, "rows": [[j, v, j, v, ...], ...]}``, one list per
  row holding its nonzero entries only, each as a column ``j`` (ascending,
  ``0 <= j < n``) followed by its literal ``v``.  A document costs
  O(nonzeros) in bytes, in parsing and in emitting.
- version 1: ``{"rows": m, "cols": n, "entries": [[v, ...], ...]}``, every
  cell written, zeros included.  Parsing compares each cell with the ring's
  zero literal and parses only the others, so it costs one comparison per
  cell and one parse per nonzero.

A version-2 relation chain also writes each distinct multicomplex once, in a
``members`` list ordered by first use; the start and end classes and the
steps name members by index where version 1 nests a whole multicomplex
document.  Members are shared when their documents are equal, which for
canonical documents is exact equality of the multicomplexes (box, objects
and both families), not equivalence under ``canonical_key``.  Every document
nested in another, such as the multicomplexes of a resolution bundle, must
carry the version of the document that holds it.

Parsing is strict: every malformed field raises ParseError carrying a
human-readable location (JSON line/column for syntax, a record path for
semantic problems, down to the row and pair of a version-2 matrix).  Integer
literals must be exactly as written here (no '+', leading zeros, separators
or whitespace), and a version-2 row may not list a zero entry, so equal
objects have equal input digests too.  A document that nests too deeply,
declares a dimension above MAX_DIM, a support box larger than its object
list, a matrix wider than MAX_COLUMNS, or more than MAX_CELLS matrix cells
in all is refused before any work is done.  Parsed morphisms go through the
ordinary constructors, so ill-defined maps and mismatched shapes are
rejected, not smuggled in, and a class is one FormalClass construction over
all its entries, with a mixing error located at the entry that mixes.
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
from .multicomplex import BinaryMulticomplex, MultiMorphism, _minus
from .resolve import ResolutionResult
from .rings import Ring, ring_from_descriptor

SCHEMA_VERSION = 2  # what writers emit; readers also accept version 1


def _tag(kind: str, version: int = SCHEMA_VERSION) -> str:
    return f"binmc.{kind}/{version}"


MULTICOMPLEX_SCHEMA = _tag("multicomplex")
MATRIX_SCHEMA = _tag("matrix")
RESOLUTION_SCHEMA = _tag("resolution")
CHAIN_SCHEMA = _tag("chain")
CLASS_SCHEMA = _tag("class")
REPORT_SCHEMA = _tag("report")

# A version-2 matrix lists its nonzeros but only declares its width, so a few
# bytes could declare a matrix whose Smith form builds a V with one row per
# column, or whose dense views (torsion's determinant, a matrix's repr)
# hold every cell.  Each matrix is checked against both caps
# before its rows are read.  Measured: the resolution bundle of dim-4 seed 2
# (random_multicomplex(Random(2), ZZ, 4, length=2, max_rank=1, bricks=1))
# declares 62,016,768 cells and at most 972 columns, and rechecks; MAX_CELLS
# leaves it room to double.  That of dim-4 seed 1 declares 558,150,912 cells
# and is refused.  Near the caps, `snf` of one fully nonzero row 2**16 wide
# takes 0.8 s and 73 MB, and `represent-diagonal` of a 10 KB class whose
# two relation matrices declare 2**24 cells each takes 1.5 s and 64 MB,
# since canonical_key holds matrices and not their dense entries.
MAX_COLUMNS = 2 ** 16
MAX_CELLS = 2 ** 27
# A box is walked once per axis or pair of axes (validate, the edge tables),
# so work grows as dim**3 even where the box holds no object, and a document
# declares dim in a few bytes.  Every test, workload and script uses dim <= 5.
MAX_DIM = 32


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


def _need_dim(doc, where) -> int:
    dim = _need(doc, "dim", int, where)
    if dim < 0:
        raise ParseError("dimension must be nonnegative", where)
    if dim > MAX_DIM:
        raise ParseError(f"dimension {dim} declared, over the cap of {MAX_DIM}", where)
    return dim


def _expect_schema(doc, schema, where):
    found = _need(doc, "schema", str, where)
    if found != schema:
        raise ParseError(f"expected schema {schema!r}, found {found!r}", where)


class _Reader:
    """How one document is read: its schema version, and the matrix cells
    (rows times columns) it has declared so far, against MAX_CELLS."""
    __slots__ = ("version", "cells")

    def __init__(self, version: int = SCHEMA_VERSION):
        self.version = version
        self.cells = 0

    @staticmethod
    def of(doc, kind: str, where) -> "_Reader":
        """The reader of a top-level document of this kind, at either version."""
        found = _need(doc, "schema", str, where)
        for version in (SCHEMA_VERSION, 1):
            if found == _tag(kind, version):
                return _Reader(version)
        raise ParseError(f"expected schema {_tag(kind)!r} or {_tag(kind, 1)!r}, "
                         f"found {found!r}", where)

    def expect(self, doc, kind: str, where):
        """A nested document must carry the version of the one that holds it."""
        _expect_schema(doc, _tag(kind, self.version), where)

    def declare(self, rows: int, cols: int, where):
        if cols > MAX_COLUMNS:
            raise ParseError(f"{cols} columns declared, over the cap of {MAX_COLUMNS}", where)
        self.cells += rows * cols
        if self.cells > MAX_CELLS:
            raise ParseError(f"the document declares {self.cells} matrix cells up to here, "
                             f"over the cap of {MAX_CELLS}", where)


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
    to = A.ring.element_to_doc
    return {"cols": A.cols,
            "rows": [[v for j, x in pairs for v in (j, to(x))] for pairs in A.row_pairs()]}


def _sparse_matrix_from_doc(ring: Ring, doc, where, reader) -> Matrix:
    cols = _need(doc, "cols", int, where)
    rows = _need(doc, "rows", list, where)
    if cols < 0:
        raise ParseError("cols must be nonnegative", where)
    reader.declare(len(rows), cols, where)
    parse = ring.element_from_doc
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) % 2:
            raise ParseError("a row must list column, entry pairs", f"{where}.rows[{i}]")
        pairs, last = [], -1
        for k in range(0, len(row), 2):
            j = row[k]
            if type(j) is not int or not last < j < cols:  # bool is not int here
                if type(j) is not int:
                    problem = f"column {j!r} is not an integer"
                elif not 0 <= j < cols:
                    problem = f"column {j} is outside 0..{cols - 1}"
                else:
                    problem = f"column {j} does not ascend from column {last}"
                raise ParseError(problem, f"{where}.rows[{i}], pair {k // 2}")
            try:
                x = parse(row[k + 1])
            except RingError as e:
                raise ParseError(str(e), f"{where}.rows[{i}], pair {k // 2}")
            if not x:  # QQ "0/5" and F_p[x] ["0"] are zeros too
                raise ParseError(f"entry {row[k + 1]!r} at column {j} is zero",
                                 f"{where}.rows[{i}], pair {k // 2}")
            pairs.append((j, x))
            last = j
        out.append(pairs)
    return Matrix.from_row_pairs(ring, cols, out)


def _dense_matrix_from_doc(ring: Ring, doc, where, reader) -> Matrix:
    rows = _need(doc, "rows", int, where)
    cols = _need(doc, "cols", int, where)
    entries = _need(doc, "entries", list, where)
    if rows < 0 or cols < 0 or len(entries) != rows:
        raise ParseError(f"expected {rows} rows of entries", where)
    reader.declare(rows, cols, where)
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


def matrix_from_doc(ring: Ring, doc, where="matrix", reader=None) -> Matrix:
    """The matrix record doc, at reader's version (by default a fresh version-2 reader)."""
    reader = reader or _Reader()
    read = _dense_matrix_from_doc if reader.version == 1 else _sparse_matrix_from_doc
    return read(ring, doc, where, reader)


def matrix_document(A: Matrix) -> dict:
    return {"schema": MATRIX_SCHEMA, "ring": ring_to_doc(A.ring),
            "matrix": matrix_to_doc(A)}


def matrix_from_document(doc) -> Matrix:
    reader = _Reader.of(doc, "matrix", "matrix document")
    ring = ring_from_doc(_need(doc, "ring", dict, "matrix document"))
    return matrix_from_doc(ring, _need(doc, "matrix", dict, "matrix document"), "matrix",
                           reader)


def module_to_doc(m: FpModule) -> dict:
    return {"gens": m.gens, "rels": matrix_to_doc(m.rels)}


def module_from_doc(ring: Ring, doc, where, reader) -> FpModule:
    gens = _need(doc, "gens", int, where)
    rels = matrix_from_doc(ring, _need(doc, "rels", dict, where), where + ".rels", reader)
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


def multicomplex_from_doc(doc, where="multicomplex", reader=None) -> BinaryMulticomplex:
    """A multicomplex document, standing alone or nested in one that reader reads."""
    if reader is None:
        reader = _Reader.of(doc, "multicomplex", where)
    else:
        reader.expect(doc, "multicomplex", where)
    ring = ring_from_doc(_need(doc, "ring", dict, where), where + ".ring")
    dim = _need_dim(doc, where)
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
        objects[c] = module_from_doc(ring, rec, spot, reader)

    tables = {"top": {}, "bottom": {}}
    for k, rec in enumerate(_need(doc, "differentials", list, where)):
        spot = f"{where}.differentials[{k}]"
        a = _need(rec, "axis", int, spot)
        c = _coord_from_doc(_need(rec, "at", list, spot), dim, spot)
        if not 0 <= a < dim or c[a] < 1:
            raise ParseError(f"axis {a} at {c} does not name an interior edge", spot)
        if (a, c) in tables["top"]:
            raise ParseError(f"duplicate differential at axis {a}, {c}", spot)
        tgt = _minus(c, a)
        if c not in objects or tgt not in objects:
            raise ParseError(f"differential at axis {a}, {c} misses its endpoints", spot)
        for fam, out in tables.items():
            mat = matrix_from_doc(ring, _need(rec, fam, dict, spot), f"{spot}.{fam}", reader)
            try:
                out[(a, c)] = FpMorphism(objects[c], objects[tgt], mat)
            except (ShapeError, IllDefinedMorphism) as e:
                raise ParseError(str(e), f"{spot}.{fam}")

    try:
        return BinaryMulticomplex(ring, dim, shape, objects, tables["top"], tables["bottom"])
    except ShapeError as e:
        raise ParseError(str(e), where)


# -- morphisms of multicomplexes --------------------------------------------


def components_to_doc(f: MultiMorphism) -> list:
    return [{"at": _coord_doc(c), "matrix": matrix_to_doc(f.components[c].mat)}
            for c in sorted(f.components)]


def components_from_doc(source: BinaryMulticomplex, target: BinaryMulticomplex,
                        doc, where, reader) -> MultiMorphism:
    comps = {}
    for k, rec in enumerate(doc):
        spot = f"{where}[{k}]"
        c = _coord_from_doc(_need(rec, "at", list, spot), source.dim, spot)
        if c not in source.objects or c not in target.objects:
            raise ParseError(f"component at {c} is outside the support box", spot)
        if c in comps:
            raise ParseError(f"duplicate component at {c}", spot)
        mat = matrix_from_doc(source.ring, _need(rec, "matrix", dict, spot),
                              spot + ".matrix", reader)
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
    reader = _Reader.of(doc, "resolution", where)

    def part(key):
        return multicomplex_from_doc(_need(doc, key, dict, where), f"{where}.{key}", reader)

    source, target = part("source"), part("target")
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
    P, Pprime = part("cover"), part("kernel")
    zeta = components_from_doc(P, target, _need(doc, "zeta", list, where), where + ".zeta",
                               reader)
    incl = components_from_doc(Pprime, P, _need(doc, "incl", list, where), where + ".incl",
                               reader)
    axes = _need(doc, "diagonal_axes", list, where)
    if any(isinstance(a, bool) or not isinstance(a, int) or not 0 <= a < source.dim
           for a in axes):
        raise ParseError("diagonal_axes must list axes of the source", where)
    return ResolutionResult(P, Pprime, zeta, incl, source=source, target=target,
                            offset=tuple(offset), diagonal_axes=frozenset(axes))


# -- formal classes and relation chains --------------------------------------
#
# A multicomplex field of a class entry or a chain step is written by a
# member function: inline as a whole document, or, in a version-2 chain, as
# an index into the chain's member list.  Readers take the matching function
# member(record, key, where) -> BinaryMulticomplex.


def _inline(reader):
    def member(rec, key, where):
        return multicomplex_from_doc(_need(rec, key, dict, where), f"{where}.{key}", reader)
    return member


def _listed(members):
    def member(rec, key, where):
        k = _need(rec, key, int, where)
        if not 0 <= k < len(members):
            raise ParseError(f"member index {k} is out of range for {len(members)} members",
                             f"{where}.{key}")
        return members[k]
    return member


def formal_class_to_doc(x: FormalClass, member) -> dict:
    return {"dim": x.dim,
            "entries": [{"coeff": c, "multicomplex": member(M)} for M, c in x.entries()]}


def formal_class_from_doc(doc, where, member) -> FormalClass:
    dim = _need_dim(doc, where)
    spot = where

    def terms():
        nonlocal spot  # the entry being read, where a mixing error is located
        for k, rec in enumerate(_need(doc, "entries", list, where)):
            spot = f"{where}.entries[{k}]"
            coeff = _need(rec, "coeff", int, spot)
            yield member(rec, "multicomplex", spot), coeff

    try:
        return FormalClass(dim, terms())
    except ShapeError as e:
        raise ParseError(str(e), spot)


def class_document(x: FormalClass, witnesses) -> dict:
    return {"schema": CLASS_SCHEMA, **formal_class_to_doc(x, multicomplex_to_doc),
            "witnesses": list(witnesses)}


def class_from_document(doc):
    reader = _Reader.of(doc, "class", "class document")
    x = formal_class_from_doc(doc, "class document", _inline(reader))
    witnesses = _need(doc, "witnesses", list, "class document")
    if any(isinstance(w, bool) or not isinstance(w, int) for w in witnesses):
        raise ParseError("witnesses must list one axis per class entry", "class document")
    return x, witnesses


def _step_to_doc(step, member) -> dict:
    if step.kind == "ses":
        return {"kind": "ses", "sign": step.sign,
                "sub": member(step.ext.sub),
                "total": member(step.ext.total),
                "quot": member(step.ext.quot),
                "mono": components_to_doc(step.ext.mono),
                "epi": components_to_doc(step.ext.epi)}
    if step.kind == "diagonal":
        return {"kind": "diagonal", "sign": step.sign, "axis": step.axis,
                "member": member(step.member)}
    if step.kind == "iso":
        return {"kind": "iso", "sign": step.sign,
                "source": member(step.forward.source),
                "target": member(step.forward.target),
                "forward": components_to_doc(step.forward),
                "backward": components_to_doc(step.backward)}
    raise ShapeError(f"unknown step kind {step.kind!r}")


def _step_from_doc(doc, where, member, reader):
    kind = _need(doc, "kind", str, where)
    sign = _need(doc, "sign", int, where)
    if sign not in (1, -1):
        raise ParseError("step sign must be 1 or -1", where)

    def maps(source, target, key):
        return components_from_doc(source, target, _need(doc, key, list, where),
                                   f"{where}.{key}", reader)

    try:
        if kind == "ses":
            sub, total, quot = (member(doc, key, where) for key in ("sub", "total", "quot"))
            return SesStep(ExtensionObject(sub, total, quot, maps(sub, total, "mono"),
                                           maps(total, quot, "epi")), sign)
        if kind == "diagonal":
            return DiagonalStep(member(doc, "member", where), _need(doc, "axis", int, where),
                                sign)
        if kind == "iso":
            source, target = member(doc, "source", where), member(doc, "target", where)
            return IsoStep(maps(source, target, "forward"), maps(target, source, "backward"),
                           sign)
    except ShapeError as e:
        raise ParseError(str(e), where)
    raise ParseError(f"unknown step kind {kind!r}", where)


def chain_to_doc(chain: RelationChain) -> dict:
    members, index, seen = [], {}, {}

    def member(M):
        """M's index in members; equal multicomplexes have equal canonical documents."""
        k = seen.get(id(M))  # the chain keeps M alive, so its id is not reused
        if k is None:
            doc = multicomplex_to_doc(M)
            k = seen[id(M)] = index.setdefault(canonical_dumps(doc), len(members))
            if k == len(members):
                members.append(doc)
        return k

    start = formal_class_to_doc(chain.start, member)
    end = formal_class_to_doc(chain.end, member)
    steps = [_step_to_doc(s, member) for s in chain.steps]
    return {"schema": CHAIN_SCHEMA, "members": members, "start": start, "end": end,
            "steps": steps}


def chain_from_doc(doc, where="chain") -> RelationChain:
    reader = _Reader.of(doc, "chain", where)
    if reader.version == 1:
        member = _inline(reader)
    else:
        member = _listed([multicomplex_from_doc(m, f"{where}.members[{k}]", reader)
                          for k, m in enumerate(_need(doc, "members", list, where))])
    start = formal_class_from_doc(_need(doc, "start", dict, where), where + ".start", member)
    end = formal_class_from_doc(_need(doc, "end", dict, where), where + ".end", member)
    steps = [_step_from_doc(rec, f"{where}.steps[{k}]", member, reader)
             for k, rec in enumerate(_need(doc, "steps", list, where))]
    return RelationChain(start, steps, end)


# -- dispatch ----------------------------------------------------------------


_PARSERS = {_tag(kind, version): (_tag(kind), parser)
            for kind, parser in (("multicomplex", multicomplex_from_doc),
                                 ("matrix", matrix_from_document),
                                 ("resolution", resolution_from_doc),
                                 ("chain", chain_from_doc),
                                 ("class", class_from_document))
            for version in (1, SCHEMA_VERSION)}


def parse_any(doc):
    """(schema, object) for any recognized document, at either version; the
    schema returned is the current tag of the document's kind."""
    found = _need(doc, "schema", str, "document")
    if found not in _PARSERS:
        raise ParseError(f"unrecognized schema {found!r}", "document")
    schema, parser = _PARSERS[found]
    return schema, parser(doc)
