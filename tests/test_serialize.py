import random
from fractions import Fraction

import pytest

from binmc import serialize as ser
from binmc.cofinal import diagonal_represent
from binmc.errors import ParseError, RingError, ShapeError
from binmc.extension import split_extension
from binmc.gen import (conjugate_multicomplex, random_multicomplex,
                       random_tn_class)
from binmc.kgroups import (DiagonalStep, FormalClass, IsoStep, RelationChain,
                           SesStep, verify_chain)
from binmc.matrix import Matrix
from binmc.multicomplex import shift
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


def test_a_step_of_unknown_kind_is_refused_by_the_writer():
    class BraidStep(DiagonalStep):
        kind = "braid"
        __slots__ = ()

    M = random_multicomplex(random.Random(13), ZZ, 1, length=2, max_rank=2,
                            diagonal_axes=(0,))
    chain = RelationChain(FormalClass.of(M), [BraidStep(M, 0, -1)], FormalClass.zero(1))
    with pytest.raises(ShapeError, match="unknown step kind 'braid'"):
        ser.chain_to_doc(chain)


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
    next(row for row in broken["differentials"][0]["top"]["rows"] if row)[1] = "x"
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
    for version in (1, 2):
        _refuse_ill_defined(version)


def _refuse_ill_defined(version):
    if version == 1:
        free, two, one = ({"rows": 1, "cols": c, "entries": [e]}
                          for c, e in ((0, []), (1, ["2"]), (1, ["1"])))
    else:
        free, two, one = ({"cols": c, "rows": [r]} for c, r in ((0, []), (1, [0, "2"]),
                                                                (1, [0, "1"])))
    doc = {
        "schema": f"binmc.multicomplex/{version}",
        "ring": {"kind": "integers"},
        "dim": 1, "shape": [2],
        "objects": [
            {"at": [0], "gens": 1, "rels": free},
            {"at": [1], "gens": 1, "rels": two},
        ],
        "differentials": [
            {"axis": 0, "at": [1], "top": one, "bottom": one},
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
    for version in (1, 2):
        _refuse_negative_dimensions(version)


def _refuse_negative_dimensions(version):
    # the chain between two empty classes of dimension -3 once verified
    empty = {"dim": -3, "entries": []}
    members = {"members": []} if version == 2 else {}
    docs = {"chain.start": {"schema": f"binmc.chain/{version}", "start": empty, "end": empty,
                            "steps": [], **members},
            "class document": {"schema": f"binmc.class/{version}", **empty, "witnesses": []},
            "multicomplex": {"schema": f"binmc.multicomplex/{version}",
                             "ring": {"kind": "integers"},
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
        rows = doc["differentials"][0]["top"]["rows"]
        i = next(i for i, row in enumerate(rows) if row)
        rows[i][1] = literal
        with pytest.raises(ParseError) as e:
            ser.multicomplex_from_doc(doc)
        assert f"differentials[0].top.rows[{i}], pair 0" in str(e.value)
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


def _v1_matrix_from_doc(ring, doc, where="matrix"):
    return ser.matrix_from_doc(ring, doc, where, ser._Reader(1))


@pytest.mark.parametrize("ring", [ZZ, F7, QQ, F5X], ids=lambda r: r.kind)
def test_sparse_parse_and_emit_match_the_per_cell_reference(ring):
    # the version-1 reader against the per-cell reference, and the version-2
    # writer and reader against the matrix the reference wrote
    rng = random.Random(401)
    shapes = [(0, 0), (0, 4), (4, 0), (1, 1), (3, 5), (6, 2), (7, 9)]
    mats = [_random_matrix(rng, ring, r, c, d) for r, c in shapes for d in (0.0, 0.15, 1.0)]
    for A in mats:
        ref = _reference_matrix_to_doc(A)
        new = _outcome(_v1_matrix_from_doc, ring, ref)
        assert new == _outcome(_reference_matrix_from_doc, ring, ref)
        assert new[1] == A
        doc = ser.matrix_to_doc(A)
        assert ser.matrix_from_doc(ring, doc) == A
        assert doc["cols"] == A.cols and len(doc["rows"]) == A.rows
        assert [row[::2] for row in doc["rows"]] == [
            [j for j, x in enumerate(cells) if x] for cells in A.row_list()]
        lists = [v for row in doc["rows"] for v in row[1::2] if isinstance(v, list)]
        assert len({id(c) for c in lists}) == len(lists)
        assert len({id(row) for row in doc["rows"]}) == A.rows

    def same(doc):
        new = _outcome(_v1_matrix_from_doc, ring, doc)
        assert new == _outcome(_reference_matrix_from_doc, ring, doc), doc
        return new

    zero_literals = {QQ: ["0", "0/5"], F5X: [["0"], ["0", "0"]]}.get(ring, [])
    for A in mats:
        if not A.rows or not A.cols:
            continue
        for cell in _bad_cells(ring) + zero_literals:
            doc = _reference_matrix_to_doc(A)
            i, j = rng.randrange(A.rows), rng.randrange(A.cols)
            doc["entries"][i][j] = cell
            same(doc)
            if cell in zero_literals or (i, j) == (A.rows - 1, A.cols - 1):
                continue
            # a second bad cell later in row order does not change the report
            doc["entries"][-1][-1] = "bad"
            assert same(doc)[1].startswith(f"m.entries[{i}][{j}]: ")
        for cell in zero_literals:
            doc = _reference_matrix_to_doc(A)
            for row in doc["entries"]:
                row[:] = [cell] * A.cols
            assert same(doc)[1] == Matrix.zeros(ring, A.rows, A.cols)
        # ragged and malformed rows, and a wrong row count
        for k, mangle in enumerate([lambda r: r.append(r[0]), lambda r: r.pop(),
                                    lambda r: r.clear()]):
            doc = _reference_matrix_to_doc(A)
            mangle(doc["entries"][k % A.rows])
            assert same(doc)[0] == "error"
        for row in ("0", None, {}):
            doc = _reference_matrix_to_doc(A)
            doc["entries"][-1] = row
            assert same(doc)[0] == "error"
        doc = _reference_matrix_to_doc(A)
        doc["rows"] += 1
        assert same(doc)[0] == "error"


def _matrix_records(doc):
    return ([rec["rels"] for rec in doc["objects"]]
            + [rec[fam] for rec in doc["differentials"] for fam in ("top", "bottom")])


@pytest.mark.parametrize("ring", [ZZ, F7, QQ, F5X], ids=lambda r: r.kind)
def test_parsing_parses_each_cell_that_is_not_the_zero_literal_once(monkeypatch, ring):
    # the O(nonzeros) property: a zero cell costs one comparison in version 1
    # and is not written in version 2, and each nonzero is parsed once
    M = random_multicomplex(random.Random(409), ring, 2, length=3, max_rank=2,
                            allow_fp=True)
    v1, v2 = _v1(ser.multicomplex_to_doc, M), ser.multicomplex_to_doc(M)
    zero = ring.element_to_doc(ring.zero)
    cells = [c for m in _matrix_records(v1) for row in m["entries"] for c in row]
    nonzero = sum(c != zero for c in cells)
    assert 0 < nonzero < len(cells) // 2
    assert sum(len(row) for m in _matrix_records(v2) for row in m["rows"]) == 2 * nonzero
    calls = []
    parse = type(ring).element_from_doc

    def counted(self, cell):
        calls.append(cell)
        return parse(self, cell)

    monkeypatch.setattr(type(ring), "element_from_doc", counted)
    for doc in (v1, v2):
        calls.clear()
        assert ser.multicomplex_from_doc(doc) == M
        assert len(calls) == nonzero


# -- version 1 beside version 2 ------------------------------------------------


def _v1(write, *args):
    """What write(*args) gives under the version-1 writers: every matrix cell
    by cell through the reference emitter, and every schema tag at version 1."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ser, "matrix_to_doc", _reference_matrix_to_doc)
        for name in ("MULTICOMPLEX_SCHEMA", "MATRIX_SCHEMA", "RESOLUTION_SCHEMA",
                     "CLASS_SCHEMA", "CHAIN_SCHEMA"):
            mp.setattr(ser, name, getattr(ser, name).replace("/2", "/1"))
        return write(*args)


def _v1_chain_doc(chain):
    """A version-1 chain document: each multicomplex written inline wherever it
    occurs (call it through _v1)."""
    inline = ser.multicomplex_to_doc
    return {"schema": ser.CHAIN_SCHEMA,
            "start": ser.formal_class_to_doc(chain.start, inline),
            "end": ser.formal_class_to_doc(chain.end, inline),
            "steps": [ser._step_to_doc(s, inline) for s in chain.steps]}


def _class_and_chain(ring, seed):
    x, wits = random_tn_class(random.Random(seed), ring, 2, terms=2, length=2, max_rank=1)
    return x, wits, diagonal_represent(x, wits, ring=ring)[1]


@pytest.mark.parametrize("ring", [ZZ, F7, QQ, F5X], ids=lambda r: r.kind)
def test_version_1_and_2_documents_read_back_to_equal_objects(ring):
    rng = random.Random(431)
    M = random_multicomplex(rng, ring, 2, length=2, max_rank=2, allow_fp=ring is ZZ)
    A = _random_matrix(rng, ring, 4, 5, 0.4)
    res = resolve_multi(M)
    x, wits, chain = _class_and_chain(ring, 433)

    def pair(write, *args):
        v1, v2 = _v1(write, *args), write(*args)
        assert v1["schema"].endswith("/1") and v2["schema"].endswith("/2")
        assert ser.canonical_dumps(v1) != ser.canonical_dumps(v2)
        (s1, one), (s2, two) = ser.parse_any(v1), ser.parse_any(v2)
        assert s1 == s2 == v2["schema"]
        return one, two

    M1, M2 = pair(ser.multicomplex_to_doc, M)
    assert M1 == M2 == M and M1.canonical_key() == M2.canonical_key() == M.canonical_key()
    assert pair(ser.matrix_document, A) == (A, A)
    r1, r2 = pair(ser.resolution_to_doc, res)
    for part in ("source", "target", "P", "Pprime", "offset", "diagonal_axes"):
        assert getattr(r1, part) == getattr(r2, part) == getattr(res, part), part
    for part in ("zeta", "incl"):
        want = {c: f.mat for c, f in getattr(res, part).components.items()}
        for got in (r1, r2):
            assert {c: f.mat for c, f in getattr(got, part).components.items()} == want
    for part in ("P", "Pprime"):
        assert getattr(r1, part).canonical_key() == getattr(res, part).canonical_key()
    (x1, w1), (x2, w2) = pair(ser.class_document, x, wits)
    assert x1 == x2 == x and w1 == w2 == list(wits)
    assert [N.canonical_key() for N, _ in x1.entries()] == [
        N.canonical_key() for N, _ in x.entries()]
    c1 = ser.chain_from_doc(_v1(_v1_chain_doc, chain))
    c2 = ser.chain_from_doc(ser.chain_to_doc(chain))
    assert c1.start == c2.start == chain.start and c1.end == c2.end == chain.end
    assert ser.chain_to_doc(c1) == ser.chain_to_doc(c2) == ser.chain_to_doc(chain)


def _chain_variants(chain):
    """chain, and copies with the first step's sign flipped, the last step
    dropped, and the end class replaced by the start class."""
    first = chain.steps[0]
    flipped = (SesStep(first.ext, -first.sign) if first.kind == "ses"
               else DiagonalStep(first.member, first.axis, -first.sign))
    return [chain,
            RelationChain(chain.start, [flipped] + chain.steps[1:], chain.end),
            RelationChain(chain.start, chain.steps[:-1], chain.end),
            RelationChain(chain.start, chain.steps, chain.start)]


def test_verify_chain_reports_agree_on_version_1_and_2_documents():
    oks = []
    for k, ring in enumerate((ZZ, F7, QQ, F5X)):
        for chain in _chain_variants(_class_and_chain(ring, 437 + k)[2]):
            want = verify_chain(chain)
            v1 = ser.chain_from_doc(_v1(_v1_chain_doc, chain))
            v2 = ser.chain_from_doc(ser.chain_to_doc(chain))
            assert verify_chain(v1) == verify_chain(v2) == want
            oks.append(want.ok)
    assert oks.count(True) == 4 and oks.count(False) == 12


def test_chain_members_are_shared_by_exact_equality_only():
    M = random_multicomplex(random.Random(439), ZZ, 1, length=2, max_rank=2,
                            diagonal_axes=(0,))
    twin = ser.multicomplex_from_doc(ser.multicomplex_to_doc(M))  # equal, not identical
    moved = shift(M, (1,))  # equivalent under canonical_key, not equal
    assert twin == M and twin is not M
    assert moved.canonical_key() == M.canonical_key() and moved != M
    chain = RelationChain(FormalClass.of(M),
                          [DiagonalStep(M, 0, -1), DiagonalStep(twin, 0, 1),
                           DiagonalStep(moved, 0, -1), DiagonalStep(moved, 0, 1)],
                          FormalClass.of(M))
    doc = ser.chain_to_doc(chain)
    assert doc["members"] == [ser.multicomplex_to_doc(M), ser.multicomplex_to_doc(moved)]
    assert [step["member"] for step in doc["steps"]] == [0, 0, 1, 1]
    assert doc["start"]["entries"][0]["multicomplex"] == 0
    back = ser.chain_from_doc(doc)
    assert [s.member for s in back.steps] == [M, M, moved, moved]
    assert verify_chain(back) == verify_chain(chain)
    # a diagonal_represent chain names each distinct multicomplex once
    _, _, chain = _class_and_chain(ZZ, 441)
    doc = ser.chain_to_doc(chain)
    members = [ser.multicomplex_from_doc(m) for m in doc["members"]]
    assert all(a != b for k, a in enumerate(members) for b in members[k + 1:])
    v1_members = ser.canonical_dumps(_v1(_v1_chain_doc, chain)).count('"schema":')
    assert len(members) < v1_members - 1


def _located(parse, doc):
    with pytest.raises(ParseError) as e:
        parse(doc)
    return str(e.value)


def test_version_2_parse_errors_are_located_to_the_row_and_pair():
    A = Matrix.from_int_rows(ZZ, [[0, 3, 0, 5], [0, 0, 0, 0], [2, 0, 0, 0]])
    doc = ser.matrix_document(A)
    assert doc["matrix"]["rows"] == [[1, "3", 3, "5"], [], [0, "2"]]
    bad = {
        "column 4 is outside 0..3": [1, "3", 4, "5"],
        "column -1 is outside 0..3": [1, "3", -1, "5"],
        "column 1 does not ascend from column 3": [3, "5", 1, "3"],
        "column 1 does not ascend from column 1": [1, "3", 1, "5"],
        "entry '0' at column 3 is zero": [1, "3", 3, "0"],
        "column '3' is not an integer": [1, "3", "3", "5"],
        "column True is not an integer": [1, "3", True, "5"],
        "column 3.0 is not an integer": [1, "3", 3.0, "5"],
        "bad integer literal '05'": [1, "3", 3, "05"],
    }
    for message, row in bad.items():
        broken = ser.load_text(ser.canonical_dumps(doc))
        broken["matrix"]["rows"][0] = row
        assert _located(ser.matrix_from_document, broken) == f"matrix.rows[0], pair 1: {message}"
    for row in ([1, "3", 3], "1", None):
        broken = ser.load_text(ser.canonical_dumps(doc))
        broken["matrix"]["rows"][2] = row
        assert _located(ser.matrix_from_document, broken) == (
            "matrix.rows[2]: a row must list column, entry pairs")
    # zeros that are not the zero literal are refused as well
    for ring, zero in ((QQ, "0/5"), (F5X, ["0"])):
        broken = {"schema": ser.MATRIX_SCHEMA, "ring": ser.ring_to_doc(ring),
                  "matrix": {"cols": 2, "rows": [[1, zero]]}}
        assert _located(ser.matrix_from_document, broken).startswith("matrix.rows[0], pair 0: ")
    # a member index out of range, negative or boolean
    M = random_multicomplex(random.Random(443), ZZ, 1, length=2, max_rank=2,
                            diagonal_axes=(0,))
    chain = ser.chain_to_doc(RelationChain(FormalClass.of(M), [DiagonalStep(M, 0, -1)],
                                           FormalClass.zero(1)))
    for value, message in ((1, "chain.steps[0].member: member index 1 is out of range "
                               "for 1 members"),
                           (-1, "chain.steps[0].member: member index -1 is out of range "
                                "for 1 members"),
                           (True, "chain.steps[0]: field 'member' must be an integer"),
                           ("0", "chain.steps[0]: field 'member' has the wrong type")):
        broken = ser.load_text(ser.canonical_dumps(chain))
        broken["steps"][0]["member"] = value
        assert _located(ser.chain_from_doc, broken) == message
    broken = ser.load_text(ser.canonical_dumps(chain))
    broken["start"]["entries"][0]["multicomplex"] = 3
    assert _located(ser.chain_from_doc, broken) == (
        "chain.start.entries[0].multicomplex: member index 3 is out of range for 1 members")
    # a nested document carries the version of the one that holds it
    broken = ser.load_text(ser.canonical_dumps(chain))
    broken["members"][0]["schema"] = "binmc.multicomplex/1"
    assert "chain.members[0]: expected schema 'binmc.multicomplex/2'" in _located(
        ser.chain_from_doc, broken)


def test_declared_sizes_over_the_caps_are_refused_with_location():
    # a few bytes declare a matrix wider than MAX_COLUMNS ...
    wide = {"schema": ser.MATRIX_SCHEMA, "ring": {"kind": "integers"},
            "matrix": {"cols": 10 ** 9, "rows": [[0, "1"]]}}
    assert _located(ser.matrix_from_document, wide) == (
        f"matrix: 1000000000 columns declared, over the cap of {ser.MAX_COLUMNS}")
    M = random_multicomplex(random.Random(447), ZZ, 1, length=2, max_rank=2)
    doc = ser.multicomplex_to_doc(M)
    doc["objects"][1]["rels"]["cols"] = ser.MAX_COLUMNS + 1
    assert _located(ser.multicomplex_from_doc, doc) == (
        f"multicomplex.objects[1].rels: {ser.MAX_COLUMNS + 1} columns declared, "
        f"over the cap of {ser.MAX_COLUMNS}")
    # ... or more than MAX_CELLS cells across its matrices, here with one
    # empty row too many for the cap at the widest width allowed
    rows = ser.MAX_CELLS // ser.MAX_COLUMNS
    at_cap = {"schema": ser.MATRIX_SCHEMA, "ring": {"kind": "integers"},
              "matrix": {"cols": ser.MAX_COLUMNS, "rows": [[]] * rows}}
    assert ser.matrix_from_document(at_cap) == Matrix.zeros(ZZ, rows, ser.MAX_COLUMNS)
    at_cap["matrix"]["rows"] = [[]] * (rows + 1)
    assert _located(ser.matrix_from_document, at_cap) == (
        f"matrix: the document declares {(rows + 1) * ser.MAX_COLUMNS} matrix cells up to "
        f"here, over the cap of {ser.MAX_CELLS}")
    # the cap counts the whole document: two relation matrices each under it,
    # whose sum is over it, are refused at the second
    g = rows // 2 + 1
    free = {"cols": ser.MAX_COLUMNS, "rows": [[]] * g}
    ident = {"cols": g, "rows": [[i, "1"] for i in range(g)]}
    doc = {"schema": ser.MULTICOMPLEX_SCHEMA, "ring": {"kind": "integers"}, "dim": 1,
           "shape": [2], "objects": [{"at": [t], "gens": g, "rels": free} for t in (0, 1)],
           "differentials": [{"axis": 0, "at": [1], "top": ident, "bottom": ident}]}
    assert _located(ser.multicomplex_from_doc, doc) == (
        f"multicomplex.objects[1].rels: the document declares {2 * g * ser.MAX_COLUMNS} "
        f"matrix cells up to here, over the cap of {ser.MAX_CELLS}")
