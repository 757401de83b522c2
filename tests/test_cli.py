import copy
import json
import random

from binmc import serialize as ser
from binmc.cli import main, ring_from_name, verdict_bytes
from binmc.cofinal import MAX_COEFFICIENT_SUM, rel_class
from binmc.extension import split_extension
from binmc.fpmod import FpModule, FpMorphism
from binmc.gen import random_multicomplex, random_tn_class
from binmc.kgroups import FormalClass, RelationChain, SesStep
from binmc.matrix import Matrix
from binmc.multicomplex import BinaryMulticomplex, direct_sum_multi, validate
from binmc.resolve import resolve_multi
from binmc.rings import GF, ZZ


def _write(path, doc):
    path.write_text(ser.canonical_dumps(doc), encoding="utf-8")
    return str(path)


def _load(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _scalar_line(ring, t, u):
    """R -t-> R in the top family and R -u-> R in the bottom one."""
    top = Matrix(ring, 1, 1, [t])
    bot = Matrix(ring, 1, 1, [u])
    m = FpModule.free(ring, 1)
    return BinaryMulticomplex(ring, 1, (2,), {(0,): m, (1,): m},
                              {(0, (1,)): FpMorphism(m, m, top)},
                              {(0, (1,)): FpMorphism(m, m, bot)})


def test_gen_check_homology_recheck_flow(tmp_path):
    out = str(tmp_path / "m.json")
    assert main(["gen", "--seed", "5", "--out", out]) == 0
    assert main(["check", out]) == 0
    assert main(["homology", out]) == 0
    assert main(["recheck", out]) == 0


def test_gen_is_deterministic(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["gen", "--seed", "77", "--dim", "2", "--out", a]) == 0
    assert main(["gen", "--seed", "77", "--dim", "2", "--out", b]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_check_lists_diagonal_directions(tmp_path, capsys):
    out = str(tmp_path / "d.json")
    assert main(["gen", "--seed", "4", "--dim", "2", "--diagonal", "0", "1",
                 "--out", out]) == 0
    capsys.readouterr()
    assert main(["check", out]) == 0
    text = capsys.readouterr().out
    assert "diagonal-directions: 0, 1" in text
    assert text.rstrip().endswith("PASS")


def test_resolve_bundle_rechecks(tmp_path):
    rng = random.Random(0)
    M = random_multicomplex(rng, ZZ, 1, length=4, max_rank=2, allow_fp=True)
    src = _write(tmp_path / "fp.json", ser.multicomplex_to_doc(M))
    bundle = str(tmp_path / "res.json")
    assert main(["resolve", src, "--out", bundle]) == 0
    assert main(["recheck", bundle]) == 0


def test_resolve_multi_dim2(tmp_path):
    rng = random.Random(2)
    M = random_multicomplex(rng, ZZ, 2, length=2, max_rank=2, allow_fp=True)
    src = _write(tmp_path / "m2.json", ser.multicomplex_to_doc(M))
    bundle = str(tmp_path / "res2.json")
    assert main(["resolve-multi", src, "--out", bundle]) == 0
    assert main(["recheck", bundle]) == 0


def test_cofinalize_reports_parity_and_output_checks(tmp_path, capsys):
    M = random_multicomplex(random.Random(1), ZZ, 2, length=2, max_rank=2)
    assert not rel_class(M).is_zero()
    src = _write(tmp_path / "odd.json", ser.multicomplex_to_doc(M))
    comp = str(tmp_path / "T.json")
    capsys.readouterr()
    assert main(["cofinalize", src, "--direction", "1", "--out", comp]) == 0
    text = capsys.readouterr().out
    assert "sum-ranks-even" in text and "0 after" in text
    assert main(["check", comp]) == 0


def test_represent_diagonal_chain_verifies(tmp_path, capsys):
    x, wits = random_tn_class(random.Random(21), ZZ, 2, terms=2,
                              length=2, max_rank=2)
    src = _write(tmp_path / "cls.json", ser.class_document(x, wits))
    chain = str(tmp_path / "chain.json")
    capsys.readouterr()
    assert main(["represent-diagonal", src, "--out", chain]) == 0
    text = capsys.readouterr().out
    assert "result-diagonal" in text
    assert main(["verify-chain", chain]) == 0


def test_represent_diagonal_refuses_bad_witnesses(tmp_path):
    x, wits = random_tn_class(random.Random(23), ZZ, 2, terms=1,
                              length=2, max_rank=2)
    doc = ser.class_document(x, [9])  # axis out of range
    src = _write(tmp_path / "bad.json", doc)
    assert main(["represent-diagonal", src]) == 1


def test_represent_diagonal_refuses_a_non_acyclic_generator(tmp_path, capsys):
    # Z --0--> Z in both families: diagonal in its witnessed axis, not acyclic
    m = FpModule.free(ZZ, 1)
    zero = {(0, (1,)): FpMorphism.zero(m, m)}
    line = BinaryMulticomplex(ZZ, 1, (2,), {(0,): m, (1,): m}, zero, dict(zero))
    negative = _write(tmp_path / "neg.json", ser.class_document(-FormalClass.of(line), [0]))
    capsys.readouterr()
    assert main(["represent-diagonal", negative]) == 1
    assert "complement needs a valid multicomplex" in capsys.readouterr().err
    positive = _write(tmp_path / "pos.json", ser.class_document(FormalClass.of(line), [0]))
    assert main(["represent-diagonal", positive]) == 1
    assert "[FAIL] chain-verifies" in capsys.readouterr().out


def test_represent_diagonal_caps_the_coefficient_sum(tmp_path, capsys):
    # the fold behind the chain grows about as the cube of the coefficient
    # sum, so a class over the cap is an input error naming the entry that
    # crosses it, and a class exactly at the cap is still represented
    one = _scalar_line(ZZ, ZZ.one, ZZ.one)
    two = direct_sum_multi([one, one])
    at_cap = FormalClass.of(one, MAX_COEFFICIENT_SUM - 5) + FormalClass.of(two, -5)
    cls = _write(tmp_path / "cap.json", ser.class_document(at_cap, [0, 0]))
    chain = str(tmp_path / "chain.json")
    assert main(["represent-diagonal", cls, "--out", chain]) == 0
    assert main(["verify-chain", chain]) == 0
    over = at_cap + FormalClass.of(two, -1)
    coeffs = [c for _, c in over.entries()]
    k = next(k for k in range(len(coeffs))
             if sum(map(abs, coeffs[:k + 1])) > MAX_COEFFICIENT_SUM)
    coeff, total = coeffs[k], sum(map(abs, coeffs[:k + 1]))
    cls = _write(tmp_path / "over.json", ser.class_document(over, [0, 0]))
    capsys.readouterr()
    assert main(["represent-diagonal", cls, "--out", chain]) == 2
    assert capsys.readouterr().err == (
        f"input error: class entry {k} (coefficient {coeff}) brings the sum of "
        f"|coefficients| to {total}, over the cap of {MAX_COEFFICIENT_SUM}\n")


def test_snf_reports_invariants(tmp_path):
    A = Matrix(ZZ, 3, 2, [ZZ.from_int(v) for v in [4, 2, 2, 2, 0, 6]])
    src = _write(tmp_path / "mat.json", ser.matrix_document(A))
    rep = str(tmp_path / "rep.json")
    assert main(["snf", src, "--report", rep]) == 0
    report = _load(tmp_path / "rep.json")
    inv = report["witnesses"]["invariants"]
    assert len(inv) == 2
    U = ser.matrix_from_doc(ZZ, report["witnesses"]["U"])
    S = ser.matrix_from_doc(ZZ, report["witnesses"]["S"])
    V = ser.matrix_from_doc(ZZ, report["witnesses"]["V"])
    assert U @ A @ V == S


def test_snf_diagonal_form_reads_stored_entries_only(tmp_path, monkeypatch, capsys):
    # the verdict walks S's nonzeros; only the invariants read cells of S,
    # one per diagonal position
    calls = []
    get = Matrix.get

    def counted(self, i, j):
        calls.append((i, j))
        return get(self, i, j)

    A = Matrix(ZZ, 3, 2, [ZZ.from_int(v) for v in [4, 2, 2, 2, 0, 6]])
    src = _write(tmp_path / "mat.json", ser.matrix_document(A))
    monkeypatch.setattr(Matrix, "get", counted)
    capsys.readouterr()
    assert main(["snf", src]) == 0
    assert "[ok]   diagonal-form: rank 2" in capsys.readouterr().out
    assert calls == [(0, 0), (1, 1)]


def test_torsion_pins_the_unit_convention(tmp_path):
    src = _write(tmp_path / "u.json",
                 ser.multicomplex_to_doc(_scalar_line(ZZ, ZZ.one, ZZ.from_int(-1))))
    rep = str(tmp_path / "rep.json")
    assert main(["torsion", src, "--report", rep]) == 0
    assert _load(tmp_path / "rep.json")["witnesses"]["torsion"] == "-1"


def test_exit_codes(tmp_path, capsys):
    good = str(tmp_path / "m.json")
    assert main(["gen", "--seed", "5", "--out", good]) == 0

    # corrupt one differential entry: parses, fails verification; the first
    # pair of row 0 is column 0, so this is the cell (0, 0)
    doc = _load(tmp_path / "m.json")
    row = doc["differentials"][0]["top"]["rows"][0]
    assert row[0] == 0
    row[1] = "7"
    bad = _write(tmp_path / "bad.json", doc)
    assert main(["check", bad]) == 1

    syntax = tmp_path / "syntax.json"
    syntax.write_text("{oops", encoding="utf-8")
    assert main(["check", str(syntax)]) == 2

    assert main(["check", str(tmp_path / "missing.json")]) == 2
    assert main(["gen", "--ring", "F9", "--out", str(tmp_path / "x.json")]) == 2
    for flag, value in (("--dim", "-1"), ("--max-rank", "0"), ("--max-rank", "-2"),
                        ("--length", "1"), ("--length", "0"), ("--length", "-2")):
        capsys.readouterr()
        assert main(["gen", flag, value, "--out", str(tmp_path / "x.json")]) == 2
        assert capsys.readouterr().err.startswith(f"input error: {flag}: ")
    assert not (tmp_path / "x.json").exists()
    assert main(["verify-chain", good]) == 2  # wrong schema
    assert main(["nonsense"]) == 2

    # torsion needs dimension 1
    two = str(tmp_path / "two.json")
    assert main(["gen", "--seed", "5", "--dim", "2", "--out", two]) == 0
    assert main(["torsion", two]) == 2

    # cofinalize refuses non-free objects
    rng = random.Random(0)
    M = random_multicomplex(rng, ZZ, 1, length=4, max_rank=2, allow_fp=True)
    assert not all(m.is_free_presentation() for m in M.objects.values())
    fp = _write(tmp_path / "fp.json", ser.multicomplex_to_doc(M))
    assert main(["cofinalize", fp, "--direction", "0"]) == 1


def test_homology_reports_the_line_failures_of_validate(tmp_path):
    # Z -2-> Z, Z -3-> Z is not exact; Z -1-> Z -1-> Z is not a complex
    m = FpModule.free(ZZ, 1)
    one = FpMorphism.identity(m)
    broken = BinaryMulticomplex.from_binary_chain(ZZ, [m, m, m], [one, one], [one, one])
    for M in (_scalar_line(ZZ, ZZ.from_int(2), ZZ.from_int(3)), broken):
        src = _write(tmp_path / "line.json", ser.multicomplex_to_doc(M))
        report = tmp_path / "report.json"
        assert main(["homology", src, "--report", str(report)]) == 1
        failures = validate(M).failures
        assert [(v["name"], v["ok"], v["detail"]) for v in _load(report)["verdicts"]] == [
            (f"axis-0-{which}", False, str(next(f for f in failures if f.family == which)))
            for which in ("top", "bottom")]


def _verdicts(tmp_path, argv):
    report = tmp_path / "verdicts.json"
    main(argv + ["--report", str(report)])
    return [(v["name"], v["ok"], v["detail"]) for v in _load(report)["verdicts"]]


def test_recheck_gives_the_producing_commands_verdicts(tmp_path):
    def agree(doc, made):
        assert _verdicts(tmp_path, ["recheck", doc]) == made
        return made

    m = str(tmp_path / "m.json")
    assert main(["gen", "--seed", "3", "--dim", "2", "--fp", "--out", m]) == 0
    assert agree(m, _verdicts(tmp_path, ["check", m]))[0][1]
    two = _scalar_line(ZZ, ZZ.from_int(2), ZZ.from_int(2))
    two = _write(tmp_path / "two.json", ser.multicomplex_to_doc(two))
    assert agree(two, _verdicts(tmp_path, ["check", two]))[0] == (
        "validates", False, "line failure, top family, axis 0, at (0,): "
                            "homology at degree 0: free rank 0, torsion [2]")

    A = Matrix(ZZ, 2, 2, [ZZ.from_int(v) for v in [2, 4, 6, 8]])
    mat = _write(tmp_path / "mat.json", ser.matrix_document(A))
    assert len(agree(mat, _verdicts(tmp_path, ["snf", mat]))) == 2

    res = str(tmp_path / "res.json")
    assert agree(res, _verdicts(tmp_path, ["resolve-multi", m, "--out", res]))[0][1]

    x, wits = random_tn_class(random.Random(21), ZZ, 2, terms=2, length=2, max_rank=2)
    cls = _write(tmp_path / "cls.json", ser.class_document(x, wits))
    chain = str(tmp_path / "chain.json")
    made = _verdicts(tmp_path, ["represent-diagonal", cls, "--out", chain])
    assert agree(cls, made[:1])[0][:2] == ("certificate", True)
    assert agree(chain, _verdicts(tmp_path, ["verify-chain", chain]))[0][1]

    x, _ = random_tn_class(random.Random(22), ZZ, 1, terms=1, length=2, max_rank=1)
    wrong = _write(tmp_path / "wrong.json",
                   ser.chain_to_doc(RelationChain(x, [], FormalClass.zero(1))))
    assert agree(wrong, _verdicts(tmp_path, ["verify-chain", wrong])) == [
        ("chain-verifies", False,
         "global: rewriting bookkeeping does not reach the declared end class")]


def test_reports_are_byte_identical_on_same_seed(tmp_path):
    src = str(tmp_path / "m.json")
    assert main(["gen", "--seed", "8", "--dim", "2", "--out", src]) == 0
    runs = []
    for name in ("r1.json", "r2.json"):
        rep = str(tmp_path / name)
        assert main(["check", src, "--seed", "7", "--report", rep]) == 0
        runs.append(verdict_bytes(_load(tmp_path / name)))
    assert runs[0] == runs[1]

    x, wits = random_tn_class(random.Random(31), ZZ, 2, terms=2,
                              length=2, max_rank=2)
    cls = _write(tmp_path / "cls.json", ser.class_document(x, wits))
    runs = []
    for name in ("r3.json", "r4.json"):
        rep = str(tmp_path / name)
        assert main(["represent-diagonal", cls, "--seed", "7",
                     "--report", rep]) == 0
        runs.append(verdict_bytes(_load(tmp_path / name)))
    assert runs[0] == runs[1]


def test_seed_defaults_to_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("BINMC_SEED", "41")
    a = str(tmp_path / "a.json")
    assert main(["gen", "--out", a]) == 0
    monkeypatch.delenv("BINMC_SEED")
    b = str(tmp_path / "b.json")
    assert main(["gen", "--seed", "41", "--out", b]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_bad_environment_seed_is_an_input_error(tmp_path, monkeypatch, capsys):
    path = str(tmp_path / "m.json")
    assert main(["gen", "--seed", "5", "--out", path]) == 0
    monkeypatch.setenv("BINMC_SEED", "abc")
    capsys.readouterr()
    assert main(["check", path]) == 2
    assert capsys.readouterr().err == "input error: BINMC_SEED: not an integer: 'abc'\n"
    # an explicit --seed never reads the environment
    assert main(["check", path, "--seed", "3"]) == 0


def test_empty_class_represents_over_named_ring(tmp_path, capsys):
    doc = ser.class_document(FormalClass.zero(2), [])
    src = _write(tmp_path / "zero.json", doc)
    capsys.readouterr()
    assert main(["represent-diagonal", src, "--ring", "F7",
                 "--direction", "1"]) == 0
    assert "result-diagonal" in capsys.readouterr().out
    # Z -1-> Z entered with coefficients 1 and -1 cancels to an empty class,
    # which takes the named ring, not the integers of its dropped entries
    line = ser.multicomplex_to_doc(_scalar_line(ZZ, 1, 1))
    doc = {"schema": ser.CLASS_SCHEMA, "dim": 1, "witnesses": [],
           "entries": [{"coeff": 1, "multicomplex": line}, {"coeff": -1, "multicomplex": line}]}
    src = _write(tmp_path / "cancelled.json", doc)
    report = tmp_path / "r.json"
    assert main(["represent-diagonal", src, "--ring", "F7", "--report", str(report)]) == 0
    representative = _load(report)["witnesses"]["representative"]
    assert representative["ring"] == {"kind": "prime-field", "p": "7"}
    assert ring_from_name("F7") is GF(7)  # the instance documents parse to


def test_oversized_box_is_an_input_error(tmp_path, monkeypatch, capsys):
    from binmc import multicomplex

    def guarded_box_coords(shape):
        volume = 1
        for s in shape:
            volume *= s
        assert volume <= 10_000, "parser materialized an oversized box"
        return real_box_coords(shape)

    real_box_coords = multicomplex.box_coords
    monkeypatch.setattr(multicomplex, "box_coords", guarded_box_coords)
    doc = {"schema": "binmc.multicomplex/1", "ring": {"kind": "integers"},
           "dim": 2, "shape": [100000, 100000], "objects": [], "differentials": []}
    path = _write(tmp_path / "huge.json", doc)
    capsys.readouterr()
    assert main(["check", path]) == 2
    assert "needs 10000000000 objects, found 0" in capsys.readouterr().err
    assert main(["resolve-multi", path, "--out", str(tmp_path / "r.json")]) == 2


def test_deep_or_overlong_json_is_an_input_error(tmp_path, capsys):
    depth = 100_000
    cases = [("[" * depth + "]" * depth, "nests too deeply"),
             ('{"schema": ' + "[" * depth + "]" * depth + "}", "nests too deeply"),
             ('{"dim": ' + "1" * 5000 + "}", "digits")]
    for text, message in cases:
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert main(["check", str(path)]) == 2
        assert message in capsys.readouterr().err


def test_hostile_ring_primes_are_input_errors(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    for name, message in [("F618970019642690137449562111", "2**31"),
                          ("F" + "1" * 5000, "bad prime literal"),
                          ("F007", "not canonical"),
                          ("F007[x]", "not canonical")]:
        capsys.readouterr()
        assert main(["gen", "--ring", name, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "--ring" in err and message in err
    good = str(tmp_path / "m.json")
    assert main(["gen", "--seed", "5", "--out", good]) == 0
    doc = _load(tmp_path / "m.json")
    doc["ring"] = {"kind": "prime-field", "p": "618970019642690137449562111"}
    huge = _write(tmp_path / "huge.json", doc)
    capsys.readouterr()
    assert main(["check", huge]) == 2
    assert "2**31" in capsys.readouterr().err


def test_non_utf8_document_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"schema": "caf\xe9"}')
    capsys.readouterr()
    assert main(["check", str(path)]) == 2
    assert "UTF-8" in capsys.readouterr().err


def test_hostile_resolution_offsets_are_input_errors(tmp_path, monkeypatch, capsys):
    from binmc import multicomplex
    M = random_multicomplex(random.Random(2), ZZ, 2, length=2, max_rank=1)
    src = _write(tmp_path / "m.json", ser.multicomplex_to_doc(M))
    bundle = tmp_path / "res.json"
    assert main(["resolve-multi", src, "--out", str(bundle)]) == 0
    assert main(["recheck", str(bundle)]) == 0
    doc = _load(bundle)
    doc["offset"] = [0, 0]  # inside the target's box, but not the right translate
    capsys.readouterr()
    assert main(["recheck", _write(tmp_path / "zero.json", doc)]) == 1
    assert ("[FAIL] resolution-verifies: target is not the offset translate of the source"
            in capsys.readouterr().out)

    def no_rebox(*args):
        raise AssertionError("a hostile offset reached the re-box core")

    monkeypatch.setattr(multicomplex, "_rebox", no_rebox)
    flat = ser.multicomplex_to_doc(BinaryMulticomplex.zero(ZZ, 1))
    for offset, target in (([10**6, 10**6], doc["target"]), ([9, 9], doc["target"]),
                           ([1, 0], flat)):
        hostile = dict(doc, offset=offset, target=target)
        capsys.readouterr()
        assert main(["recheck", _write(tmp_path / "hostile.json", hostile)]) == 2
        err = capsys.readouterr().err
        assert "resolution: target shape" in err and "offset" in err


def test_memory_error_is_a_located_input_error(tmp_path, monkeypatch, capsys):
    from binmc import cli

    def exhausted(*args, **kwargs):
        raise MemoryError()

    path = str(tmp_path / "m.json")
    assert main(["gen", "--seed", "5", "--out", path]) == 0
    monkeypatch.setattr(cli, "multicomplex_from_doc", exhausted)
    for command in ("check", "resolve-multi"):
        capsys.readouterr()
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert err == f"input error: out of memory in {command} on {path}\n"
    monkeypatch.setattr(cli, "random_multicomplex", exhausted)
    capsys.readouterr()
    assert main(["gen", "--out", str(tmp_path / "g.json")]) == 2
    assert capsys.readouterr().err == "input error: out of memory in gen\n"


def _base_documents():
    """Valid version-2 documents for the input-error table: a dim-1
    multicomplex, its resolution bundle, a chain with one split step, and
    classes whose entries differ in dimension or ring."""
    M = random_multicomplex(random.Random(0), ZZ, 1, length=3, max_rank=1)
    U = _scalar_line(ZZ, 1, 1)
    E = split_extension(M, U)
    chain = RelationChain(FormalClass.of(M) + FormalClass.of(U), [SesStep(E, -1)],
                          FormalClass.of(E.total))
    flat = random_multicomplex(random.Random(0), ZZ, 2, length=2, max_rank=1)
    return {"multicomplex": ser.multicomplex_to_doc(M),
            "point": ser.multicomplex_to_doc(BinaryMulticomplex.zero(ZZ, 0)),
            "resolution": ser.resolution_to_doc(resolve_multi(M)),
            "chain": ser.chain_to_doc(chain),
            "class": ser.class_document(FormalClass.of(U), [0]),
            "flat": ser.multicomplex_to_doc(flat),
            "F7 line": ser.multicomplex_to_doc(_scalar_line(GF(7), 1, 1))}


def _set(path, value):
    """A mutation that sets doc[path[0]][path[1]]... to value."""
    def mutate(doc, base):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value(base) if callable(value) else value
    return mutate


def _entry(coeff, name):
    """A mutation that appends to the class document an entry for base[name]."""
    return _set(("entries",), lambda base: base["class"]["entries"]
                + [{"coeff": coeff, "multicomplex": base[name]}])

# (command, document, mutation, exit status, the first line of stderr or stdout)
_INPUT_ERRORS = [
    ("check", "multicomplex", _set(("differentials", 0, "top", "cols"), -1), 2,
     "input error: multicomplex.differentials[0].top: cols must be nonnegative"),
    ("check", "multicomplex", _set(("objects", 1, "at"), [1, 0]), 2,
     "input error: multicomplex.objects[1]: coordinate must be a list of 1 integers"),
    ("check", "multicomplex", _set(("shape",), [-3]), 2,
     "input error: multicomplex: shape must list 1 nonnegative extents"),
    ("check", "multicomplex", _set(("objects", 1, "at"), [0]), 2,
     "input error: multicomplex.objects[1]: duplicate object at (0,)"),
    ("check", "multicomplex",
     _set(("differentials", 1), lambda base: base["multicomplex"]["differentials"][0]), 2,
     "input error: multicomplex.differentials[1]: duplicate differential at axis 0, (1,)"),
    ("check", "multicomplex", _set(("objects", 2, "at"), [5]), 2,
     "input error: multicomplex.differentials[1]: differential at axis 0, (2,) "
     "misses its endpoints"),
    ("check", "multicomplex", _set(("objects", 0, "gens"), 2), 2,
     "input error: multicomplex.objects[0]: relations matrix must have one row per generator"),
    ("check", "multicomplex",
     _set(("differentials",), lambda base: base["multicomplex"]["differentials"][:1]), 2,
     "input error: multicomplex: top differentials must cover interior coordinates exactly"),
    ("check", "multicomplex", _set(("dim",), 33), 2,
     "input error: multicomplex: dimension 33 declared, over the cap of 32"),
    ("recheck", "resolution", _set(("zeta",), {}), 2,
     "input error: resolution: field 'zeta' has the wrong type"),
    ("recheck", "resolution", _set(("zeta", 0, "at"), [9]), 2,
     "input error: resolution.zeta[0]: component at (9,) is outside the support box"),
    ("recheck", "resolution", _set(("incl", 1, "at"), [0]), 2,
     "input error: resolution.incl[1]: duplicate component at (0,)"),
    ("recheck", "resolution", _set(("zeta",), lambda base: base["resolution"]["zeta"][1:]), 2,
     "input error: resolution.zeta: morphism components must cover the support box"),
    ("recheck", "resolution", _set(("incl", 0, "matrix", "cols"), 5), 2,
     "input error: resolution.incl[0]: morphism matrix must be 4x4, got 4x5"),
    ("recheck", "resolution", _set(("offset",), [-1]), 2,
     "input error: resolution: offset must list one nonnegative shift per axis"),
    ("recheck", "resolution", _set(("diagonal_axes",), [1]), 2,
     "input error: resolution: diagonal_axes must list axes of the source"),
    ("verify-chain", "chain", _set(("steps", 0, "kind"), "twist"), 2,
     "input error: chain.steps[0]: unknown step kind 'twist'"),
    ("verify-chain", "chain", _set(("steps", 0, "mono"), 3), 2,
     "input error: chain.steps[0]: field 'mono' has the wrong type"),
    ("verify-chain", "chain", _set(("start", "dim"), 40), 2,
     "input error: chain.start: dimension 40 declared, over the cap of 32"),
    ("represent-diagonal", "class", _entry(0, "flat"), 2,
     "input error: class document.entries[1]: formal class mixes dimensions"),
    ("represent-diagonal", "class", _entry(2, "F7 line"), 2,
     "input error: class document.entries[1]: formal class mixes coefficient rings"),
    ("represent-diagonal", "class", _set(("dim",), 1000), 2,
     "input error: class document: dimension 1000 declared, over the cap of 32"),
    ("homology", "point", None, 0, "[ok]   degenerate: dimension 0, no lines to check"),
]

# (arguments, with {m} for the multicomplex document, and the first line of stderr)
_ARGUMENT_ERRORS = [
    (["cofinalize", "{m}", "--direction", "3"],
     "input error: --direction: direction 3 is not an axis of a 1-dimensional input"),
    (["cofinalize", "{m}", "--direction", "-1"],
     "input error: --direction: direction -1 is not an axis of a 1-dimensional input"),
    (["gen", "--dim", "1", "--diagonal", "2"],
     "input error: --diagonal: diagonal axis 2 is not an axis in dimension 1"),
    (["gen", "--ring", "R"], "input error: --ring: unknown ring 'R', expected "
     "Z, Q, F<p>, or F<p>[x]"),
]


def test_each_input_error_is_located_and_exits_2(tmp_path, capsys):
    base = _base_documents()
    for name in ("multicomplex", "resolution", "chain", "class"):
        assert main(["recheck", _write(tmp_path / "ok.json", base[name])]) == 0, name
    for command, name, mutate, status, line in _INPUT_ERRORS:
        doc = copy.deepcopy(base[name])
        if mutate:
            mutate(doc, base)
        path = _write(tmp_path / "doc.json", doc)
        capsys.readouterr()
        assert main([command, path]) == status, line
        out = capsys.readouterr()
        assert (out.err or out.out).splitlines()[0] == line
    m = _write(tmp_path / "m.json", base["multicomplex"])
    for argv, line in _ARGUMENT_ERRORS:
        capsys.readouterr()
        assert main([a.format(m=m) for a in argv] + ["--out", str(tmp_path / "x.json")]) == 2
        assert capsys.readouterr().err == line + "\n"
    assert not (tmp_path / "x.json").exists()
