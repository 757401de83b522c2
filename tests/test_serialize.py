import random
from fractions import Fraction

import pytest

from binmc import serialize as ser
from binmc.errors import ParseError, RingError
from binmc.extension import split_extension
from binmc.gen import (conjugate_multicomplex, random_multicomplex,
                       random_tn_class)
from binmc.kgroups import (DiagonalStep, FormalClass, IsoStep, RelationChain,
                           SesStep, verify_chain)
from binmc.matrix import Matrix
from binmc.resolve import resolve_binary, resolve_multi, verify_resolution
from binmc.rings import PolynomialRing, PrimeField, QQ, ZZ

RINGS = [ZZ, QQ, PrimeField(7), PolynomialRing(PrimeField(5))]


def test_ring_documents_round_trip():
    for ring in RINGS:
        doc = ser.ring_to_doc(ring)
        assert ser.ring_from_doc(doc) == ring


def test_matrix_document_round_trip_all_rings():
    rng = random.Random(3)
    for ring in RINGS:
        entries = [ring.from_int(rng.randrange(-3, 4)) for _ in range(6)]
        A = Matrix(ring, 2, 3, entries)
        doc = ser.matrix_document(A)
        B = ser.matrix_from_document(doc)
        assert B == A
        assert ser.canonical_dumps(ser.matrix_document(B)) == ser.canonical_dumps(doc)
    # nonconstant polynomial entries survive the trip
    px = PolynomialRing(PrimeField(5))
    e = px.element_from_doc
    A = Matrix(px, 1, 2, [e(["2", "1"]), e(["0", "0", "3"])])
    assert ser.matrix_from_document(ser.matrix_document(A)) == A


def test_multicomplex_round_trip_free_and_fp():
    rng = random.Random(11)
    for ring in RINGS:
        for dim in (1, 2):
            M = random_multicomplex(rng, ring, dim, length=2, max_rank=2)
            doc = ser.multicomplex_to_doc(M)
            M2 = ser.multicomplex_from_doc(doc)
            assert M2 == M
            assert (ser.canonical_dumps(ser.multicomplex_to_doc(M2))
                    == ser.canonical_dumps(doc))
    for seed in range(6):
        M = random_multicomplex(random.Random(seed), ZZ, 1, length=4,
                                max_rank=2, allow_fp=True)
        assert ser.multicomplex_from_doc(ser.multicomplex_to_doc(M)) == M


def test_resolution_bundle_round_trip():
    rng = random.Random(5)
    N = random_multicomplex(rng, ZZ, 1, length=3, max_rank=2, allow_fp=True)
    res = resolve_binary(N)
    doc = ser.resolution_to_doc(res)
    res2 = ser.resolution_from_doc(doc)
    assert res2.P == res.P and res2.Pprime == res.Pprime
    assert res2.source == res.source and res2.target == res.target
    assert res2.offset == res.offset
    assert res2.diagonal_axes == res.diagonal_axes
    assert verify_resolution(res2).ok
    assert ser.canonical_dumps(ser.resolution_to_doc(res2)) == ser.canonical_dumps(doc)

    M = random_multicomplex(rng, ZZ, 2, length=2, max_rank=2)
    doc2 = ser.resolution_to_doc(resolve_multi(M))
    back = ser.resolution_from_doc(doc2)
    assert ser.canonical_dumps(ser.resolution_to_doc(back)) == ser.canonical_dumps(doc2)


def test_class_document_round_trip():
    rng = random.Random(21)
    x, wits = random_tn_class(rng, ZZ, 2, terms=2, length=2, max_rank=2)
    doc = ser.class_document(x, wits)
    x2, w2 = ser.class_from_document(doc)
    assert x2 == x
    assert w2 == list(wits)
    assert ser.canonical_dumps(ser.class_document(x2, w2)) == ser.canonical_dumps(doc)


def test_chain_document_round_trip_every_step_kind():
    rng = random.Random(7)
    A = random_multicomplex(rng, ZZ, 1, length=2, max_rank=2)
    B = random_multicomplex(rng, ZZ, 1, length=2, max_rank=2)
    ext = split_extension(A, B)
    Bp, iso, iso_inv = conjugate_multicomplex(rng, B)
    D = random_multicomplex(rng, ZZ, 1, length=2, max_rank=2, diagonal_axes=(0,))
    chain = RelationChain(
        FormalClass.of(ext.total) + FormalClass.of(D) + FormalClass.of(B),
        [SesStep(ext, 1), DiagonalStep(D, 0, -1), IsoStep(iso, iso_inv, 1)],
        FormalClass.of(A) + FormalClass.of(B) + FormalClass.of(Bp))
    assert verify_chain(chain).ok
    doc = ser.chain_to_doc(chain)
    chain2 = ser.chain_from_doc(doc)
    assert verify_chain(chain2).ok
    assert ser.canonical_dumps(ser.chain_to_doc(chain2)) == ser.canonical_dumps(doc)


def test_parse_any_dispatch():
    rng = random.Random(9)
    M = random_multicomplex(rng, ZZ, 1, length=2, max_rank=2)
    x, wits = random_tn_class(rng, ZZ, 1, terms=1, length=2, max_rank=2)
    docs = [ser.multicomplex_to_doc(M),
            ser.matrix_document(Matrix.identity(ZZ, 2)),
            ser.resolution_to_doc(resolve_binary(M)),
            ser.class_document(x, wits)]
    for doc in docs:
        schema, _ = ser.parse_any(doc)
        assert schema == doc["schema"]
    with pytest.raises(ParseError):
        ser.parse_any({"schema": "binmc.unknown/1"})


def test_digest_is_deterministic_and_content_sensitive():
    rng = random.Random(13)
    M = random_multicomplex(rng, ZZ, 2, length=2, max_rank=2)
    doc = ser.multicomplex_to_doc(M)
    assert ser.digest(doc) == ser.digest(ser.multicomplex_to_doc(M))
    other = ser.multicomplex_to_doc(M)
    other["dim"] = other["dim"]  # no-op, same digest
    assert ser.digest(other) == ser.digest(doc)
    other["shape"] = list(other["shape"])
    other["objects"][0]["gens"] += 1
    assert ser.digest(other) != ser.digest(doc)


def test_syntax_errors_carry_line_and_column():
    with pytest.raises(ParseError) as e:
        ser.load_text("{oops")
    assert "line 1" in str(e.value) and "column" in str(e.value)
    with pytest.raises(ParseError):
        ser.load_text("[1, 2]")  # top level must be an object


def test_semantic_errors_carry_document_paths():
    rng = random.Random(17)
    M = random_multicomplex(rng, ZZ, 1, length=2, max_rank=2)
    doc = ser.multicomplex_to_doc(M)

    bad = ser.multicomplex_from_doc  # short name for repeated calls

    broken = ser.multicomplex_to_doc(M)
    broken["differentials"][0]["top"]["entries"][0][0] = "x"
    with pytest.raises(ParseError) as e:
        bad(broken)
    assert "differentials[0].top" in str(e.value)

    broken = ser.multicomplex_to_doc(M)
    del broken["objects"][0]
    with pytest.raises(ParseError) as e:
        bad(broken)
    assert "endpoints" in str(e.value) or "objects" in str(e.value)

    broken = ser.multicomplex_to_doc(M)
    broken["differentials"][0]["axis"] = 5
    with pytest.raises(ParseError) as e:
        bad(broken)
    assert "axis" in str(e.value)

    broken = ser.multicomplex_to_doc(M)
    broken["schema"] = "binmc.matrix/1"
    with pytest.raises(ParseError) as e:
        bad(broken)
    assert "schema" in str(e.value)

    broken = ser.multicomplex_to_doc(M)
    del broken["ring"]
    with pytest.raises(ParseError) as e:
        bad(broken)
    assert "ring" in str(e.value)


def test_ill_defined_differential_is_rejected_with_location():
    # objects: Z at spot 0, Z/2 at spot 1; the map Z/2 -> Z sending the
    # generator to 1 does not kill the relation, so parsing must refuse it.
    doc = {
        "schema": ser.MULTICOMPLEX_SCHEMA,
        "ring": {"kind": "integers"},
        "dim": 1, "shape": [2],
        "objects": [
            {"at": [0], "gens": 1, "rels": {"rows": 1, "cols": 0, "entries": [[]]}},
            {"at": [1], "gens": 1, "rels": {"rows": 1, "cols": 1, "entries": [["2"]]}},
        ],
        "differentials": [
            {"axis": 0, "at": [1],
             "top": {"rows": 1, "cols": 1, "entries": [["1"]]},
             "bottom": {"rows": 1, "cols": 1, "entries": [["1"]]}},
        ],
    }
    with pytest.raises(ParseError) as e:
        ser.multicomplex_from_doc(doc)
    assert "differentials[0]" in str(e.value)
    assert "relations" in str(e.value)


def test_witness_and_sign_validation():
    rng = random.Random(19)
    x, wits = random_tn_class(rng, ZZ, 1, terms=1, length=2, max_rank=2)
    doc = ser.class_document(x, wits)
    doc["witnesses"] = ["0"]
    with pytest.raises(ParseError):
        ser.class_from_document(doc)

    M = random_multicomplex(rng, ZZ, 1, length=2, max_rank=2,
                            diagonal_axes=(0,))
    cdoc = ser.chain_to_doc(RelationChain(
        FormalClass.of(M), [DiagonalStep(M, 0, -1)], FormalClass.zero(1)))
    cdoc["steps"][0]["sign"] = 2
    with pytest.raises(ParseError) as e:
        ser.chain_from_doc(cdoc)
    assert "sign" in str(e.value)


def test_negative_dimensions_are_refused_with_location():
    # the chain between two empty classes of dimension -3 once verified
    empty = {"dim": -3, "entries": []}
    docs = {"chain.start": {"schema": ser.CHAIN_SCHEMA, "start": empty, "end": empty,
                            "steps": []},
            "class document": {"schema": ser.CLASS_SCHEMA, **empty, "witnesses": []},
            "multicomplex": {"schema": ser.MULTICOMPLEX_SCHEMA, "ring": {"kind": "integers"},
                             **empty, "shape": [], "objects": [], "differentials": []}}
    for where, doc in docs.items():
        with pytest.raises(ParseError) as e:
            ser.parse_any(doc)
        assert str(e.value) == f"{where}: dimension must be nonnegative"


def test_non_canonical_entry_is_rejected_with_location():
    # "1_000" is no integer literal; "7" and "-1" are integers not reduced modulo 7
    for ring, literal in ((ZZ, "1_000"), (PrimeField(7), "7"), (PrimeField(7), "-1")):
        M = random_multicomplex(random.Random(17), ring, 1, length=2, max_rank=2)
        doc = ser.multicomplex_to_doc(M)
        doc["differentials"][0]["top"]["entries"][0][0] = literal
        with pytest.raises(ParseError) as e:
            ser.multicomplex_from_doc(doc)
        assert "differentials[0].top.entries[0][0]" in str(e.value)
        assert repr(literal) in str(e.value)


# -- the sparse document layer against the per-cell reference ----------------


def _reference_matrix_to_doc(A):
    """Every cell converted, as the document layer once did."""
    to = A.ring.element_to_doc
    return {"rows": A.rows, "cols": A.cols,
            "entries": [[to(x) for x in row] for row in A.row_list()]}


def _reference_matrix_from_doc(ring, doc, where="matrix"):
    """Every cell parsed into a dense list, as the document layer once did."""
    rows = ser._need(doc, "rows", int, where)
    cols = ser._need(doc, "cols", int, where)
    entries = ser._need(doc, "entries", list, where)
    if rows < 0 or cols < 0 or len(entries) != rows:
        raise ParseError(f"expected {rows} rows of entries", where)
    flat = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"row {i} must hold {cols} entries", where)
        for j, cell in enumerate(row):
            try:
                flat.append(ring.element_from_doc(cell))
            except RingError as e:
                raise ParseError(str(e), f"{where}.entries[{i}][{j}]")
    return Matrix(ring, rows, cols, flat)


F7, F5X = PrimeField(7), PolynomialRing(PrimeField(5))


def _random_element(rng, ring):
    """A nonzero element, usually small, sometimes with a large numerator."""
    k = rng.choice([1, 2, 3, -1, -4, 10 ** 30 + 7])
    if ring is QQ:
        return Fraction(k, rng.choice([1, 2, 9]))
    if isinstance(ring, PolynomialRing):
        coeffs = [rng.randrange(5) for _ in range(rng.randrange(3))] + [rng.randrange(1, 5)]
        return ring.poly(coeffs)
    return ring.from_int(k) or ring.one


def _random_matrix(rng, ring, rows, cols, density):
    """density of nonzero entries, with every third row (when rows > 2) all zero."""
    out = [[_random_element(rng, ring) if i % 3 != 2 and rng.random() < density
            else ring.zero for _ in range(cols)] for i in range(rows)]
    return Matrix(ring, rows, cols, [x for row in out for x in row])


def _outcome(parse, ring, doc):
    try:
        A = parse(ring, doc, "m")
    except ParseError as e:
        return ("error", str(e))
    return ("matrix", A, hash(A))


def _bad_cells(ring):
    common = ["01", "-0", "+1", "1_0", 5, 0, None, True, "", "x", [], {}]
    if ring is F7:
        return common + ["7", "-1"]
    if ring is QQ:
        return common + ["1/0", "1/2/3", "01/2", "1/-0", "-0/3"]
    if ring is F5X:
        return [c for c in common if c != []] + [["1", "5"], ["01"], ["+1"], [1], [None],
                                                 "0", [["1"]]]
    return common + ["1.0", " 1"]


@pytest.mark.parametrize("ring", [ZZ, F7, QQ, F5X], ids=lambda r: r.kind)
def test_sparse_parse_and_emit_match_the_per_cell_reference(ring):
    rng = random.Random(401)
    shapes = [(0, 0), (0, 4), (4, 0), (1, 1), (3, 5), (6, 2), (7, 9)]
    mats = [_random_matrix(rng, ring, r, c, d) for r, c in shapes for d in (0.0, 0.15, 1.0)]
    for A in mats:
        doc = ser.matrix_to_doc(A)
        assert (ser.canonical_dumps(doc)
                == ser.canonical_dumps(_reference_matrix_to_doc(A)))
        lists = [c for row in doc["entries"] for c in row if isinstance(c, list)]
        assert len({id(c) for c in lists}) == len(lists)
        assert len({id(row) for row in doc["entries"]}) == A.rows
        new = _outcome(ser.matrix_from_doc, ring, doc)
        assert new == _outcome(_reference_matrix_from_doc, ring, doc)
        assert new[1] == A

    def same(doc):
        new = _outcome(ser.matrix_from_doc, ring, doc)
        assert new == _outcome(_reference_matrix_from_doc, ring, doc), doc
        return new

    zero_literals = {QQ: ["0", "0/5"], F5X: [["0"], ["0", "0"]]}.get(ring, [])
    for A in mats:
        if not A.rows or not A.cols:
            continue
        for cell in _bad_cells(ring) + zero_literals:
            doc = ser.matrix_to_doc(A)
            i, j = rng.randrange(A.rows), rng.randrange(A.cols)
            doc["entries"][i][j] = cell
            same(doc)
            if cell in zero_literals or (i, j) == (A.rows - 1, A.cols - 1):
                continue
            # a second bad cell later in row order does not change the report
            doc["entries"][-1][-1] = "bad"
            assert same(doc)[1].startswith(f"m.entries[{i}][{j}]: ")
        for cell in zero_literals:
            doc = ser.matrix_to_doc(A)
            for row in doc["entries"]:
                row[:] = [cell] * A.cols
            assert same(doc)[1] == Matrix.zeros(ring, A.rows, A.cols)
        # ragged and malformed rows, and a wrong row count
        for k, mangle in enumerate([lambda r: r.append(r[0]), lambda r: r.pop(),
                                    lambda r: r.clear()]):
            doc = ser.matrix_to_doc(A)
            mangle(doc["entries"][k % A.rows])
            assert same(doc)[0] == "error"
        for row in ("0", None, {}):
            doc = ser.matrix_to_doc(A)
            doc["entries"][-1] = row
            assert same(doc)[0] == "error"
        doc = ser.matrix_to_doc(A)
        doc["rows"] += 1
        assert same(doc)[0] == "error"


@pytest.mark.parametrize("ring", [ZZ, F7, QQ, F5X], ids=lambda r: r.kind)
def test_parsing_parses_each_cell_that_is_not_the_zero_literal_once(monkeypatch, ring):
    # the O(nonzeros) property: a zero cell costs one comparison, never a parse
    M = random_multicomplex(random.Random(409), ring, 2, length=3, max_rank=2,
                            allow_fp=True)
    doc = ser.multicomplex_to_doc(M)
    matrices = [rec["rels"] for rec in doc["objects"]]
    matrices += [rec[fam] for rec in doc["differentials"] for fam in ("top", "bottom")]
    zero = ring.element_to_doc(ring.zero)
    cells = [c for m in matrices for row in m["entries"] for c in row]
    nonzero = sum(c != zero for c in cells)
    assert 0 < nonzero < len(cells) // 2
    calls = []
    parse = type(ring).element_from_doc

    def counted(self, cell):
        calls.append(cell)
        return parse(self, cell)

    monkeypatch.setattr(type(ring), "element_from_doc", counted)
    assert ser.multicomplex_from_doc(doc) == M
    assert len(calls) == nonzero
