"""Command line interface over the document formats.

Every subcommand reads JSON documents, runs the requested computation, and
prints one verdict line per checked property plus a final PASS or FAIL.  A
full machine-readable report can be written with --report; generated
artifacts (multicomplexes, resolution bundles, relation chains) go to --out
so they can be fed back into `recheck` or `verify-chain`.

Each document kind has one verdict function, shared by `recheck` and the
command that makes the document, so `recheck` prints that command's verdict
names and details: those of `check` for a multicomplex, `snf` for a matrix,
`resolve`/`resolve-multi` for a resolution, `verify-chain` for a chain, and
the `certificate` of `represent-diagonal` for a class.  A validation failure
is worded by `ValidationFailure.__str__` alone, as in `line failure, top
family, axis 0, at (0,): homology at degree 0: free rank 0, torsion [2]`;
`homology` reports the composite and line failures of `validate` in those
words, one verdict per axis and family.

Exit status: 0 when every verdict passes, 1 on a verification failure
(including refused preconditions such as a non-acyclic input), 2 on input
errors (unreadable files, malformed documents, bad arguments, a BINMC_SEED
that is not an integer, and inputs too large for memory, reported with the
command and the input path).

Reports are deterministic: rerunning a command on the same input with the
same seed reproduces the verdict section byte for byte.  Only the timing
field varies; `verdict_bytes` strips it for comparisons.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import random
import re
import sys
import time

from .cofinal import complement, diagonal_represent, rel_class
from .errors import BinmcError, ParseError, RingError, ShapeError
from .gen import random_multicomplex
from .kgroups import tn_membership_certificate, torsion, verify_chain
from .matrix import smith
from .multicomplex import diagonality_report, validate
from .resolve import resolve_binary, resolve_multi, verify_resolution
from .rings import GF, PolynomialRing, QQ, ZZ, _int_literal
from .serialize import (CHAIN_SCHEMA, CLASS_SCHEMA, MATRIX_SCHEMA,
                        MULTICOMPLEX_SCHEMA, REPORT_SCHEMA, RESOLUTION_SCHEMA,
                        canonical_dumps, chain_from_doc, chain_to_doc,
                        class_from_document, digest, load_text,
                        matrix_from_document, matrix_to_doc,
                        multicomplex_from_doc, multicomplex_to_doc, parse_any,
                        resolution_to_doc)

_RING_NAMES = "Z, Q, F<p>, or F<p>[x]"


def ring_from_name(name: str):
    if name == "Z":
        return ZZ
    if name == "Q":
        return QQ
    m = re.fullmatch(r"F(\d+)(\[x\])?", name)
    if m:
        try:
            base = GF(_int_literal(m.group(1)))
        except ValueError as e:
            raise ParseError(f"bad prime literal: {e}", "--ring")
        except RingError as e:
            raise ParseError(str(e), "--ring")
        return PolynomialRing(base) if m.group(2) else base
    raise ParseError(f"unknown ring {name!r}, expected {_RING_NAMES}", "--ring")


def _read_doc(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"not UTF-8 text ({e.reason})", f"byte {e.start}")
    return load_text(text)


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _new_report(command: str, input_digest, seed: int) -> dict:
    return {"schema": REPORT_SCHEMA, "command": command,
            "input_digest": input_digest, "seed": seed,
            "verdicts": [], "witnesses": {}, "_t0": time.monotonic()}


def _verdict(report: dict, name: str, ok: bool, detail: str = ""):
    report["verdicts"].append({"name": name, "ok": bool(ok), "detail": detail})


def verdict_bytes(report: dict) -> bytes:
    """The byte-compared portion of a report: everything except timing."""
    stable = {k: v for k, v in report.items() if k not in ("timing_ms", "_t0")}
    return canonical_dumps(stable).encode("utf-8")


def _emit(report: dict, args) -> int:
    report["timing_ms"] = int((time.monotonic() - report.pop("_t0")) * 1000)
    if getattr(args, "report", None):
        _write_text(args.report, canonical_dumps(report))
    for v in report["verdicts"]:
        mark = "[ok]  " if v["ok"] else "[FAIL]"
        line = f"{mark} {v['name']}"
        if v["detail"]:
            line += f": {v['detail']}"
        print(line)
    ok = all(v["ok"] for v in report["verdicts"])
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _describe_axes(axes) -> str:
    axes = sorted(axes)
    return ", ".join(str(a) for a in axes) if axes else "none"


def _load(args, parse):
    """(object, report): args.file parsed by parse, and a fresh report for args.command."""
    doc = _read_doc(args.file)
    return parse(doc), _new_report(args.command, digest(doc), args.seed)


# -- verdicts, one function per document kind, shared with recheck ------------


def _multicomplex_verdicts(report: dict, M):
    rep = validate(M, "fp")
    _verdict(report, "validates", rep.ok,
             f"dim {M.dim}, shape {list(M.shape)}" if rep.ok else str(rep.first()))
    _verdict(report, "diagonal-directions", True,
             _describe_axes(diagonality_report(M).directions))


def _matrix_verdicts(report: dict, A):
    """Returns the Smith decomposition it checked."""
    dec = smith(A)
    # S stores its nonzero entries only, so every stored pair must be diagonal
    diag_ok = all(j == i for i, pairs in enumerate(dec.S.row_pairs()) for j, _ in pairs)
    _verdict(report, "decomposition", dec.U @ A @ dec.V == dec.S, "U * A * V equals S")
    _verdict(report, "diagonal-form", diag_ok, f"rank {dec.rank}")
    return dec


def _resolution_verdicts(report: dict, res):
    rep = verify_resolution(res)
    _verdict(report, "resolution-verifies", rep.ok,
             f"cover shape {list(res.P.shape)}, diagonal axes kept: "
             f"{_describe_axes(res.diagonal_axes)}" if rep.ok else str(rep.first()))


def _chain_verdicts(report: dict, chain):
    rep = verify_chain(chain)
    where = "global" if rep.step is None else f"step {rep.step}"
    _verdict(report, "chain-verifies", rep.ok,
             f"{len(chain.steps)} steps" if rep.ok else f"{where}: {rep.reason}")


def _class_verdicts(report: dict, cls) -> bool:
    """Returns whether the class is certified."""
    x, wits = cls
    cert = tn_membership_certificate(x, wits)
    _verdict(report, "certificate", cert.ok, cert.reason or f"{len(wits)} generators")
    return cert.ok


_VERDICTS = {MULTICOMPLEX_SCHEMA: _multicomplex_verdicts,
             MATRIX_SCHEMA: _matrix_verdicts,
             RESOLUTION_SCHEMA: _resolution_verdicts,
             CHAIN_SCHEMA: _chain_verdicts,
             CLASS_SCHEMA: _class_verdicts}


# -- subcommands -------------------------------------------------------------


def cmd_check(args) -> int:
    M, report = _load(args, multicomplex_from_doc)
    _multicomplex_verdicts(report, M)
    return _emit(report, args)


def cmd_homology(args) -> int:
    M, report = _load(args, multicomplex_from_doc)
    if M.dim == 0:
        _verdict(report, "degenerate", True, "dimension 0, no lines to check")
        return _emit(report, args)
    failures = [f for f in validate(M, "fp").failures if f.kind in ("composite", "line")]
    for axis in range(M.dim):
        for which in ("top", "bottom"):
            bad = next((f for f in failures if (f.axis, f.family) == (axis, which)), None)
            _verdict(report, f"axis-{axis}-{which}", bad is None,
                     str(bad) if bad else f"{math.prod(M.shape)} homology groups vanish")
    return _emit(report, args)


def cmd_snf(args) -> int:
    A, report = _load(args, matrix_from_document)
    dec = _matrix_verdicts(report, A)
    to = A.ring.element_to_doc
    report["witnesses"] = {
        "U": matrix_to_doc(dec.U), "S": matrix_to_doc(dec.S),
        "V": matrix_to_doc(dec.V),
        "invariants": [to(d) for d in dec.diagonal() if not A.ring.is_zero(d)]}
    return _emit(report, args)


def _run_resolution(args, resolver) -> int:
    M, report = _load(args, multicomplex_from_doc)
    res = resolver(M, check=False)
    _resolution_verdicts(report, res)
    bundle = resolution_to_doc(res)
    report["witnesses"] = {"resolution": bundle}
    if args.out:
        _write_text(args.out, canonical_dumps(bundle))
    return _emit(report, args)


def cmd_resolve(args) -> int:
    return _run_resolution(args, resolve_binary)


def cmd_resolve_multi(args) -> int:
    return _run_resolution(args, resolve_multi)


def cmd_cofinalize(args) -> int:
    M, report = _load(args, multicomplex_from_doc)
    i = args.direction
    if not 0 <= i < M.dim:
        raise ParseError(f"direction {i} is not an axis of a {M.dim}-dimensional input",
                         "--direction")
    before = rel_class(M)
    T = complement(M, i)
    after = before + rel_class(T)
    _verdict(report, "complement-diagonal", T.is_diagonal_in(i), f"direction {i}")
    _verdict(report, "sum-ranks-even", after.is_zero(),
             f"{len(before.odd_coords)} odd-rank spots before, "
             f"{len(after.odd_coords)} after")
    kept = M.diagonal_directions() - {i}
    _verdict(report, "keeps-diagonality", kept <= T.diagonal_directions(),
             f"inherited directions: {_describe_axes(kept)}")
    tdoc = multicomplex_to_doc(T)
    report["witnesses"] = {"complement": tdoc,
                           "odd-ranks-before": [list(c) for c in sorted(before.odd_coords)]}
    if args.out:
        _write_text(args.out, canonical_dumps(tdoc))
    return _emit(report, args)


def cmd_represent_diagonal(args) -> int:
    (x, wits), report = _load(args, class_from_document)
    ring = ring_from_name(args.ring) if args.ring else (x.ring or ZZ)
    if not _class_verdicts(report, (x, wits)):
        return _emit(report, args)
    t, chain = diagonal_represent(x, wits, i=args.direction, ring=ring)
    i_used = args.direction
    if i_used is None:
        i_used = wits[0] if wits else 0
    _chain_verdicts(report, chain)
    _verdict(report, "result-diagonal", t.is_diagonal_in(i_used),
             f"direction {i_used}, shape {list(t.shape)}")
    cdoc = chain_to_doc(chain)
    report["witnesses"] = {"representative": multicomplex_to_doc(t), "chain": cdoc}
    if args.out:
        _write_text(args.out, canonical_dumps(cdoc))
    return _emit(report, args)


def cmd_verify_chain(args) -> int:
    chain, report = _load(args, chain_from_doc)
    _chain_verdicts(report, chain)
    return _emit(report, args)


def cmd_torsion(args) -> int:
    M, report = _load(args, multicomplex_from_doc)
    if M.dim != 1:
        raise ParseError(f"torsion needs a 1-dimensional input, got dimension {M.dim}",
                         "torsion")
    value = torsion(M)
    vdoc = M.ring.element_to_doc(value)
    _verdict(report, "unit-torsion", True, f"torsion {vdoc!r}")
    report["witnesses"] = {"torsion": vdoc}
    return _emit(report, args)


def cmd_gen(args) -> int:
    ring = ring_from_name(args.ring)
    if args.dim < 0:
        raise ParseError(f"dimension {args.dim} is negative", "--dim")
    if args.length < 2:
        raise ParseError(f"length {args.length} is below 2", "--length")
    if args.max_rank < 1:
        raise ParseError(f"max rank {args.max_rank} is below 1", "--max-rank")
    for a in args.diagonal:
        if not 0 <= a < args.dim:
            raise ParseError(f"diagonal axis {a} is not an axis in dimension {args.dim}",
                             "--diagonal")
    rng = random.Random(args.seed)
    M = random_multicomplex(rng, ring, args.dim, length=args.length,
                            max_rank=args.max_rank,
                            diagonal_axes=tuple(args.diagonal),
                            allow_fp=args.fp)
    doc = multicomplex_to_doc(M)
    report = _new_report("gen", None, args.seed)
    _verdict(report, "generated", True,
             f"dim {M.dim}, shape {list(M.shape)}, digest {digest(doc)}")
    text = canonical_dumps(doc)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return _emit(report, args)


def cmd_recheck(args) -> int:
    (schema, obj), report = _load(args, parse_any)
    _VERDICTS[schema](report, obj)
    return _emit(report, args)


# -- parser ------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; --seed is left None when not given."""
    parser = argparse.ArgumentParser(
        prog="binmc",
        description="Check, resolve, and certify acyclic binary multicomplexes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--seed", type=int, default=None,
                       help="seed recorded in the report (default: BINMC_SEED or 0)")
        p.add_argument("--report", metavar="PATH",
                       help="write the full JSON report here")
        p.set_defaults(func=fn)
        return p

    p = add("check", cmd_check, help="validate a multicomplex document")
    p.add_argument("file")

    p = add("homology", cmd_homology, help="check every axis line is acyclic")
    p.add_argument("file")

    p = add("snf", cmd_snf, help="diagonalize a matrix document")
    p.add_argument("file")

    p = add("resolve", cmd_resolve,
            help="resolve a binary complex by free modules")
    p.add_argument("file")
    p.add_argument("--out", metavar="PATH", help="write the resolution bundle here")

    p = add("resolve-multi", cmd_resolve_multi,
            help="resolve a binary multicomplex by free modules")
    p.add_argument("file")
    p.add_argument("--out", metavar="PATH", help="write the resolution bundle here")

    p = add("cofinalize", cmd_cofinalize,
            help="build a diagonal complement making all ranks even")
    p.add_argument("file")
    p.add_argument("--direction", type=int, required=True,
                   help="axis the complement must be diagonal in")
    p.add_argument("--out", metavar="PATH", help="write the complement here")

    p = add("represent-diagonal", cmd_represent_diagonal,
            help="rewrite a certified class into a single diagonal member")
    p.add_argument("file")
    p.add_argument("--direction", type=int, default=None,
                   help="axis for the result (default: first witnessed axis)")
    p.add_argument("--ring", default=None,
                   help=f"ring for an empty class ({_RING_NAMES})")
    p.add_argument("--out", metavar="PATH", help="write the relation chain here")

    p = add("verify-chain", cmd_verify_chain,
            help="re-verify a relation chain document")
    p.add_argument("file")

    p = add("torsion", cmd_torsion,
            help="torsion unit of an acyclic complex of free modules")
    p.add_argument("file")

    p = add("gen", cmd_gen, help="generate a random valid multicomplex")
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--ring", default="Z", help=f"one of {_RING_NAMES}")
    p.add_argument("--length", type=int, default=3)
    p.add_argument("--max-rank", type=int, default=2)
    p.add_argument("--diagonal", type=int, nargs="*", default=[],
                   help="axes the output must be diagonal in")
    p.add_argument("--fp", action="store_true",
                   help="allow non-free finitely presented objects")
    p.add_argument("--out", metavar="PATH",
                   help="write the document here (default: stdout)")

    p = add("recheck", cmd_recheck,
            help="re-verify any recognized document by its schema tag")
    p.add_argument("file")

    return parser


def _env_seed() -> int:
    """The seed in BINMC_SEED, read at run time, or 0 when it is unset."""
    text = os.environ.get("BINMC_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"not an integer: {text!r}", "BINMC_SEED")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        if args.seed is None:
            args.seed = _env_seed()
        return args.func(args)
    except (ParseError, OSError, ShapeError, RingError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except BinmcError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        path = getattr(args, "file", None)
        where = f" on {path}" if path else ""
        print(f"input error: out of memory in {args.command}{where}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
