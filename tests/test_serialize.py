import random

import pytest

from binmc import serialize as ser
from binmc.errors import ParseError
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
