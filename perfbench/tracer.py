"""Layer spans and counts for binmc, recorded from outside the package.

``Tracer.install()`` replaces selected functions and methods of binmc's
modules with wrappers, in every module that bound them, and
``Tracer.uninstall()`` puts the originals back.  Nothing under ``src/`` knows
about it.  A layer is a binmc module.

Every wrapped call is a span.  Time is charged to the innermost open span's
layer, which gives each layer's self time; an operation's busy time is the
wall time during which at least one call of it is open, so recursion is not
counted twice.  Spans that cross from one layer into another are kept (up
to SPAN_CAP) with their parent span and the benchmark item that caused them.

WRAPPED holds every function or method of a layer that another layer calls
and that does work of its own: Smith forms, solves, products, sums, checks,
(de)serialisation.  Left out, so that their own time counts as self time of
the calling layer, are
  - ``rings``, whose functions run once per ring element and would cost more
    to wrap than the work they do;
  - constructors and accessors that only assemble or look up objects:
    Matrix.get/from_rows/identity/zeros, FpModule.free/zero,
    FpMorphism.identity/zero and its arithmetic operators (the Matrix
    operators they call are wrapped), the BinaryMulticomplex and MultiMorphism
    constructors, FormalClass arithmetic and the report ``first`` helpers.
The Smith forms, products and checks that these start are spans of their own.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

SPAN_CAP = 100_000
SNF_BUCKETS = ((0, "empty"), (16, "le16"), (256, "le256"), (4096, "le4096"))
RING_NAMES = {"integers": "integers", "prime-field": "prime-field",
              "rationals": "rationals", "polynomials-over": "polynomials"}
LAYERS = ("matrix", "fpmod", "complexes", "multicomplex", "extension", "resolve",
          "cofinal", "kgroups", "serialize", "cli")

# (module, attribute, op): module-level functions; "Class.method" wraps a method.
# The op names the busy time and the call count the metrics report.
WRAPPED = [
    ("matrix", "solve", "solve"),
    ("matrix", "_solve_prepared", "solve_prepared"),
    ("matrix", "kernel_basis", "kernel_basis"),
    ("matrix", "column_space_basis", "column_space_basis"),
    ("matrix", "rank_over_fractions", "rank_over_fractions"),
    ("matrix", "det", "det"),
    ("matrix", "hstack", "stack"),
    ("matrix", "vstack", "stack"),
    ("matrix", "block_diag", "stack"),
    ("matrix", "kron", "kron"),
    ("matrix", "Matrix.__matmul__", "matmul"),
    ("matrix", "Matrix.__add__", "arith"),
    ("matrix", "Matrix.__sub__", "arith"),
    ("matrix", "Matrix.__neg__", "arith"),
    ("matrix", "Matrix.scale", "arith"),
    ("matrix", "Matrix.transpose", "reshape"),
    ("matrix", "Matrix.submatrix", "reshape"),
    ("matrix", "SmithDecomposition.verify", "snf_verify"),
    ("fpmod", "FpModule.solve_mod_rels", "solve_mod_rels"),
    ("fpmod", "FpModule.canonical", "canonical"),
    ("fpmod", "FpMorphism._well_defined", "well_defined"),
    ("fpmod", "FpMorphism.equals", "equals"),
    ("fpmod", "FpMorphism.is_zero", "is_zero"),
    ("fpmod", "check_ses", "check_ses"),
    ("fpmod", "kernel", "kernel"),
    ("fpmod", "cokernel", "cokernel"),
    ("fpmod", "image", "image"),
    ("fpmod", "analyze", "analyze"),
    ("fpmod", "is_mono", "is_mono"),
    ("fpmod", "is_epi", "is_epi"),
    ("fpmod", "free_cover", "free_cover"),
    ("fpmod", "factor_through_mono", "factor_through_mono"),
    ("fpmod", "hsum", "direct_sum"),
    ("fpmod", "direct_sum_modules", "direct_sum"),
    ("fpmod", "direct_sum_morphisms", "direct_sum"),
    ("fpmod", "split_inclusion", "split"),
    ("fpmod", "split_projection", "split"),
    ("complexes", "acyclicity_witness", "witness"),
    ("complexes", "AcyclicityWitness.verify", "witness_verify"),
    ("complexes", "homology", "homology"),
    ("multicomplex", "validate", "validate"),
    ("multicomplex", "diagonality_report", "diagonality_report"),
    ("multicomplex", "BinaryMulticomplex.is_diagonal_in", "is_diagonal_in"),
    ("multicomplex", "BinaryMulticomplex.canonical_key", "canonical_key"),
    ("multicomplex", "direct_sum_multi", "direct_sum"),
    ("multicomplex", "expand_along", "expand_along"),
    ("multicomplex", "collapse_along", "collapse_along"),
    ("multicomplex", "rediagonalize", "rediagonalize"),
    ("multicomplex", "kernel_multicomplex", "kernel_multicomplex"),
    ("multicomplex", "image_multicomplex", "image_multicomplex"),
    ("multicomplex", "shift", "reshape"),
    ("multicomplex", "pad_to", "reshape"),
    ("multicomplex", "shift_morphism", "reshape"),
    ("multicomplex", "pad_morphism", "reshape"),
    ("multicomplex", "summand_inclusion", "structure_map"),
    ("multicomplex", "summand_projection", "structure_map"),
    ("multicomplex", "block_identity_morphism", "structure_map"),
    ("multicomplex", "MultiMorphism.commutes", "commutes"),
    ("multicomplex", "MultiMorphism.equals", "equals"),
    ("extension", "ExtensionObject.verify", "verify"),
    ("extension", "split_extension", "split_extension"),
    ("resolve", "resolve_multi", "construct"),
    ("resolve", "verify_resolution", "verify"),
    ("cofinal", "complement", "complement"),
    ("cofinal", "diagonal_represent", "represent"),
    ("cofinal", "rel_class", "rel_class"),
    ("kgroups", "verify_chain", "verify_chain"),
    ("kgroups", "tn_membership_certificate", "certificate"),
    ("kgroups", "torsion", "torsion"),
    ("kgroups", "SesStep.check_payload", "replay_step"),
    ("kgroups", "DiagonalStep.check_payload", "replay_step"),
    ("kgroups", "IsoStep.check_payload", "replay_step"),
    ("serialize", "load_text", "parse"),
    ("serialize", "parse_any", "parse"),
    ("serialize", "multicomplex_from_doc", "parse"),
    ("serialize", "resolution_from_doc", "parse"),
    ("serialize", "chain_from_doc", "parse"),
    ("serialize", "class_from_document", "parse"),
    ("serialize", "matrix_from_document", "parse"),
    ("serialize", "canonical_dumps", "dump"),  # "digest" when digest calls it
    ("serialize", "digest", "digest"),
    ("serialize", "matrix_to_doc", "dump"),
    ("serialize", "multicomplex_to_doc", "dump"),
    ("serialize", "resolution_to_doc", "dump"),
    ("serialize", "chain_to_doc", "dump"),
    ("serialize", "class_document", "dump"),
    ("cli", "main", "main"),
    ("cli", "_write_text", "write"),
]


def _gens(M) -> int:
    return sum(m.gens for m in M.objects.values())


class Tracer:
    def __init__(self):
        self.calls = Counter()        # (layer, op) -> calls
        self.busy = defaultdict(float)  # (layer, op) -> seconds with a call open
        self.layer_busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()       # named counts kept by the hooks
        self.snf_ring_s = defaultdict(float)
        self.snf_bucket_s = defaultdict(float)
        self.spans = []
        self.boundary_spans = 0
        self.item = None
        self._stack = []              # open frames: [layer, op, start, span_id]
        self._open = Counter()        # (layer, op) and layer -> open frames
        self._next_id = 0
        self._last = None
        self._t0 = None
        self._patches = []

    # -- span bookkeeping -----------------------------------------------------

    def _charge(self, now):
        if self._last is not None:
            self.self_s[self._stack[-1][0] if self._stack else "bench"] += now - self._last
        self._last = now

    def _enter(self, layer, op):
        now = time.perf_counter()
        self._charge(now)
        self._next_id += 1
        self._stack.append([layer, op, now, self._next_id])
        self._open[(layer, op)] += 1
        self._open[layer] += 1
        self.calls[(layer, op)] += 1

    def _exit(self):
        now = time.perf_counter()
        self._charge(now)
        layer, op, start, span_id = frame = self._stack.pop()
        self._open[(layer, op)] -= 1
        self._open[layer] -= 1
        if not self._open[(layer, op)]:
            self.busy[(layer, op)] += now - start
        if not self._open[layer]:
            self.layer_busy[layer] += now - start
        parent = self._stack[-1] if self._stack else None
        if parent is None or parent[0] != layer:
            self.boundary_spans += 1
            if len(self.spans) < SPAN_CAP:
                self.spans.append({"id": span_id, "parent": parent[3] if parent else None,
                                   "item": self.item, "layer": layer, "op": op,
                                   "start_us": round((start - self._t0) * 1e6),
                                   "end_us": round((now - self._t0) * 1e6)})
        return frame, now - start

    # -- wrappers ---------------------------------------------------------------

    def _span(self, layer, op, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._enter(layer, tracer._op(op))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                after(args, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _op(self, op):
        """canonical_dumps under digest hashes an input; it writes nothing."""
        if op == "dump" and self._stack and self._stack[-1][1] == "digest":
            return "digest"
        return op

    def _snf(self, fn):
        """Smith forms: cache hits are counted only; eliminations are spans."""
        tracer = self

        def wrapper(A):
            tracer.counts["snf_requests"] += 1
            if A._snf is not None:
                tracer.counts["snf_hits"] += 1
                return fn(A)
            size = A.rows * A.cols
            bucket = next((name for cap, name in SNF_BUCKETS if size <= cap), "gt4096")
            ring = RING_NAMES.get(A.ring.kind, A.ring.kind)
            tracer.counts["snf_eliminations"] += 1
            tracer.counts[f"snf_eliminations.{bucket}"] += 1
            tracer.counts[f"snf_eliminations.{ring}"] += 1
            tracer._enter("matrix", "snf")
            try:
                return fn(A)
            finally:
                _, dt = tracer._exit()
                tracer.snf_ring_s[ring] += dt
                tracer.snf_bucket_s[bucket] += dt
        wrapper.__wrapped__ = fn
        return wrapper

    def _module_snf(self, fn):
        """FpModule._rels_snf answers from the module's own cache first."""
        tracer = self

        def wrapper(mod):
            if mod._snf is not None:
                tracer.counts["snf_requests"] += 1
                tracer.counts["snf_hits"] += 1
            return fn(mod)
        wrapper.__wrapped__ = fn
        return wrapper

    def _after_construct(self, args, result):
        self.counts["input_gens"] += _gens(args[0])
        self.counts["cover_gens"] += _gens(result.P)

    def _after_load(self, args, result):
        self.counts["bytes_read"] += len(args[0].encode("utf-8"))

    def _after_write(self, args, result):
        self.counts["bytes_written"] += len(args[1].encode("utf-8"))

    # -- install / uninstall ----------------------------------------------------

    def _patch_everywhere(self, original, replacement):
        """Rebind ``original`` in every binmc module that imported it by name."""
        for name, mod in list(sys.modules.items()):
            if name == "binmc" or name.startswith("binmc."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, replacement)

    def install(self):
        import binmc.matrix as matrix
        import binmc.fpmod as fpmod
        mods = {name: sys.modules[f"binmc.{name}"] for name in LAYERS}
        self._patch_everywhere(matrix._smith_ext, self._snf(matrix._smith_ext))
        self._patches.append((fpmod.FpModule, "_rels_snf", fpmod.FpModule._rels_snf))
        fpmod.FpModule._rels_snf = self._module_snf(fpmod.FpModule._rels_snf)
        hooks = {"resolve_multi": self._after_construct, "load_text": self._after_load,
                 "_write_text": self._after_write}
        for layer, attr, op in WRAPPED:
            after = hooks.get(attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[layer], cls_name)
                original = vars(cls)[meth]
                self._patches.append((cls, meth, original))
                if isinstance(original, staticmethod):
                    wrapped = staticmethod(self._span(layer, op, original.__func__, after))
                else:
                    wrapped = self._span(layer, op, original, after)
                setattr(cls, meth, wrapped)
            else:
                original = getattr(mods[layer], attr)
                self._patch_everywhere(original, self._span(layer, op, original, after))
        self._t0 = self._last = time.perf_counter()

    def uninstall(self):
        self._charge(time.perf_counter())
        self._last = None
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics by name, as (value, unit) pairs."""
        c, calls, busy = self.counts, self.calls, self.busy
        out = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        requests = c["snf_requests"]
        put("matrix.snf_requests", requests, "count")
        put("matrix.snf_eliminations", c["snf_eliminations"], "count")
        put("matrix.snf_hit_ratio", c["snf_hits"] / requests if requests else 0.0, "ratio")
        for _, bucket in SNF_BUCKETS + ((None, "gt4096"),):
            put(f"matrix.snf_eliminations.{bucket}", c[f"snf_eliminations.{bucket}"], "count")
            put(f"matrix.snf_s.{bucket}", self.snf_bucket_s[bucket], "s")
        put("matrix.snf_s", busy[("matrix", "snf")], "s")
        for ring in RING_NAMES.values():
            put(f"matrix.snf_s.{ring}", self.snf_ring_s[ring], "s")
            put(f"matrix.snf_eliminations.{ring}", c[f"snf_eliminations.{ring}"], "count")
        counted = [("fpmod", "check_ses"), ("fpmod", "kernel"), ("fpmod", "equals"),
                   ("fpmod", "solve_mod_rels"), ("complexes", "witness"),
                   ("multicomplex", "validate"), ("extension", "verify"),
                   ("cofinal", "complement"), ("cofinal", "represent"),
                   ("kgroups", "verify_chain"), ("resolve", "construct"),
                   ("resolve", "verify")]
        for layer, op in counted:
            put(f"{layer}.{op}_calls", calls[(layer, op)], "count")
            put(f"{layer}.{op}_s", busy[(layer, op)], "s")
        construct_s = busy[("resolve", "construct")]
        put("resolve.verify_per_construct",
            busy[("resolve", "verify")] / construct_s if construct_s else 0.0, "ratio")
        put("resolve.cover_ratio",
            c["cover_gens"] / c["input_gens"] if c["input_gens"] else 0.0, "ratio")
        put("kgroups.steps_replayed", calls[("kgroups", "replay_step")], "count")
        put("kgroups.steps_replayed_s", busy[("kgroups", "replay_step")], "s")
        put("serialize.parse_s", busy[("serialize", "parse")], "s")
        put("serialize.dump_s", busy[("serialize", "dump")], "s")
        put("serialize.digest_s", busy[("serialize", "digest")], "s")
        put("serialize.bytes_read", c["bytes_read"], "bytes")
        put("serialize.bytes_written", c["bytes_written"], "bytes")
        put("cli.invocations", calls[("cli", "main")], "count")
        for layer in LAYERS:
            put(f"{layer}.busy_s", self.layer_busy[layer], "s")
            put(f"{layer}.self_s", self.self_s[layer], "s")
        put("bench.self_s", self.self_s["bench"], "s")
        put("trace.boundary_spans", self.boundary_spans, "count")
        return out
