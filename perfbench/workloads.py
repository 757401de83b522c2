"""The four benchmark workloads: seeded inputs and their items.

A workload's ``build(seed, workdir)`` returns a fresh list of ``Item``s.
Each item carries the verdict fixed at build time (``expected``) and a
``run`` callable that drives binmc and returns the verdict it reached.  The
build functions only use binmc's generators and serializers, so their cost belongs
to set-up; everything inside ``run`` is the timed work.

binmc is reached through module attributes (``resolve.resolve_multi``, not
a name bound at import), so the tracer can wrap the calls in place.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from binmc import cli, cofinal, gen, kgroups, resolve, serialize
from binmc.fpmod import FpModule, FpMorphism
from binmc.kgroups import DiagonalStep, FormalClass, RelationChain
from binmc.matrix import Matrix
from binmc.multicomplex import BinaryMulticomplex, MultiMorphism
from binmc.rings import ZZ

# Per workload: default seed, why it was chosen, the layers it stresses and
# the ones it bypasses.  Sizes are constants next to each builder below.
SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workloads.json")
with open(SPEC_PATH, encoding="utf-8") as _fh:
    SPECS = {w["name"]: w for w in json.load(_fh)["workloads"]}


@dataclass
class Item:
    id: str
    expected: str  # verdict name fixed at set-up: "PASS" or "FAIL"
    run: Callable[[], str]
    inputs: tuple = ()  # multicomplexes handed to binmc, for the cache check


def _sub_rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{tag}:{seed}")


# -- fresh-input check ---------------------------------------------------------


def cached_decompositions(multicomplexes, modules: bool = True) -> int:
    """Number of Smith decompositions already cached on these inputs.

    Differential matrices are always counted.  Module presentations are
    counted only when ``modules`` is true: a FormalClass keys its members by
    their module invariants, so its construction caches those by design.
    """
    n = 0
    for M in multicomplexes:
        for fam in (M.tops, M.bots):
            n += sum(f.mat._snf is not None for f in fam.values())
        if modules:
            for m in M.objects.values():
                n += (m._snf is not None) + (m.rels._snf is not None)
    return n


# -- seeded inputs over fixed shapes --------------------------------------------
#
# Every workload draws its problem shapes from fixed generator seeds and lets
# the run's seed relabel them: each object's generators are permuted and
# signed at random.  That is an isomorphism, so the result is valid, keeps
# its ranks, torsion and diagonal directions, and every differential and
# relation matrix changes; but entry sizes and sparsity do not, so the cost
# of a pass hardly depends on the seed.  (Left to the seed, the shapes made
# pass times vary by a factor of two between seeds.)


def _signed_permutation(rng, ring, n):
    perm = rng.sample(range(n), n)
    entries = [ring.zero] * (n * n)
    for i, j in enumerate(perm):
        entries[i * n + j] = ring.one if rng.random() < 0.5 else ring.neg(ring.one)
    P = Matrix(ring, n, n, entries)
    return P, P.transpose()


def relabel(rng, M):
    """M with each object's generators relabelled by a random signed
    permutation P (relations P R, differentials P_target d P_source^-1),
    built from new objects so that none carries a cached Smith decomposition."""
    ring = M.ring
    perms, objects = {}, {}
    for c, m in M.objects.items():
        perms[c] = P, _ = _signed_permutation(rng, ring, m.gens)
        objects[c] = FpModule(ring, m.gens, P @ m.rels)
    tops, bots = {}, {}
    for fam, out in ((M.tops, tops), (M.bots, bots)):
        for (a, c), d in fam.items():
            tgt = c[:a] + (c[a] - 1,) + c[a + 1:]
            out[(a, c)] = FpMorphism(objects[c], objects[tgt],
                                     perms[tgt][0] @ d.mat @ perms[c][1], _trusted=True)
    return BinaryMulticomplex(ring, M.dim, M.shape, objects, tops, bots)


# -- resolve-small / resolve-large ---------------------------------------------


def _has_free_object(M):
    return any(m.is_free_presentation() and m.gens > 0 for m in M.objects.values())


def _bounded(rng, dim, length, max_rank, allow_fp, need_free=False, cap=3, tries=80):
    """A multicomplex over ZZ with support <= cap per axis and ranks <= cap.

    need_free asks for a nonzero free object, which break_resolution needs.
    """
    for _ in range(tries):
        M = gen.random_multicomplex(rng, ZZ, dim, length=length, max_rank=max_rank,
                                    bricks=1, allow_fp=allow_fp)
        if all(s <= cap for s in M.shape) and \
                all(r <= cap for r in M.rank_grid().values()) and \
                (_has_free_object(M) or not need_free):
            return M
    raise RuntimeError("bounded sampling failed")


def break_resolution(res):
    """Zero one component of the resolution's sequence, so it cannot be exact.

    The inclusion is zeroed at the first coordinate where the kernel object
    is a nonzero free module: a zero map out of a nonzero free module is not
    injective.  If there is no such coordinate, the projection is zeroed where
    the target is a nonzero free module, which stops it being onto; the
    workload only breaks inputs that have one.
    """
    for c in sorted(res.Pprime.objects):
        m = res.Pprime.objects[c]
        if m.is_free_presentation() and m.gens > 0:
            comps = dict(res.incl.components)
            comps[c] = FpMorphism.zero(m, res.P.objects[c])
            res.incl = MultiMorphism(res.Pprime, res.P, comps)
            return res
    for c in sorted(res.target.objects):
        m = res.target.objects[c]
        if m.is_free_presentation() and m.gens > 0:
            comps = dict(res.zeta.components)
            comps[c] = FpMorphism.zero(res.P.objects[c], m)
            res.zeta = MultiMorphism(res.P, res.target, comps)
            return res
    raise RuntimeError("resolution has no nonzero free object to break")


def _resolution_item(item_id, M, broken):
    def run():
        res = resolve.resolve_multi(M, check=False)
        if broken:
            res = break_resolution(res)
        return "PASS" if resolve.verify_resolution(res).ok else "FAIL"
    return Item(item_id, "FAIL" if broken else "PASS", run, (M,))


RESOLVE_SMALL_ITEMS = 40
RESOLVE_SMALL_DIM3_EVERY = 6
RESOLVE_SMALL_BROKEN_EVERY = 5


def build_resolve_small(seed, workdir):
    """Criterion-4 family: bounded dim-2 inputs with some dim-3 ones, half with
    fp objects; one resolution in RESOLVE_SMALL_BROKEN_EVERY is broken and must FAIL."""
    rng = _sub_rng(seed, "resolve-small")
    items = []
    for k in range(RESOLVE_SMALL_ITEMS):
        dim = 3 if k % RESOLVE_SMALL_DIM3_EVERY == RESOLVE_SMALL_DIM3_EVERY - 1 else 2
        broken = k % RESOLVE_SMALL_BROKEN_EVERY == RESOLVE_SMALL_BROKEN_EVERY // 2
        shape_rng = random.Random(f"resolve-small-shape:{k}")
        M0 = _bounded(shape_rng, dim, length=2 if dim == 3 else shape_rng.randint(2, 3),
                      max_rank=1 if dim == 3 else 2, allow_fp=k % 2 == 0,
                      need_free=broken)
        items.append(_resolution_item(f"rs-{k:03d}", relabel(rng, M0), broken))
    return items


# Gen seeds of the dim-3 shapes; shape 2 spends most of its Smith-form time
# on matrices over 4096 entries.
RESOLVE_LARGE_SHAPES = (2, 7)


def build_resolve_large(seed, workdir):
    """gen's dim-3 inputs ``random_multicomplex(Random(s), ZZ, 3, length=2,
    max_rank=1, bricks=1)`` for s in RESOLVE_LARGE_SHAPES, relabelled by the seed."""
    items = []
    for s in RESOLVE_LARGE_SHAPES:
        M0 = gen.random_multicomplex(random.Random(s), ZZ, 3, length=2,
                                     max_rank=1, bricks=1)
        M = relabel(_sub_rng(seed, f"resolve-large:{s}"), M0)
        items.append(_resolution_item(f"rl-shape{s}", M, False))
    return items


# The capped item runs in a child process under these limits.
CLIFF_CAP_S = 10
CLIFF_MEMORY_MB = 1024


def cliff_input():
    """The dim-3 input that ran out of time: gen seed 1 at the same settings."""
    return gen.random_multicomplex(random.Random(1), ZZ, 3, length=2, max_rank=1,
                                   bricks=1)


# -- chain-rewrite -------------------------------------------------------------


def corrupt_chain(chain):
    """The chain with its last step of nonzero class change run backwards.

    The running sum then ends 2*delta away from the declared end class, which
    no valid chain can do.  A chain with no such step gets one extra diagonal
    step for its representative, which adds a nonzero term to the sum.
    """
    steps = list(chain.steps)
    for j in range(len(steps) - 1, -1, -1):
        if not steps[j].class_delta().is_zero():
            flipped = copy.copy(steps[j])
            flipped.sign = -flipped.sign
            steps[j] = flipped
            return RelationChain(chain.start, steps, chain.end)
    (t, _), = chain.end.entries()
    axis = next(a for a in range(t.dim) if t.is_diagonal_in(a))
    return RelationChain(chain.start, steps + [DiagonalStep(t, axis, 1)], chain.end)


def _chain_item(item_id, x, wits, corrupt):
    def run():
        cert = kgroups.tn_membership_certificate(x, wits)
        if not cert.ok:
            return "FAIL"
        t, chain = cofinal.diagonal_represent(x, wits)
        if corrupt:
            chain = corrupt_chain(chain)
        return "PASS" if kgroups.verify_chain(chain).ok else "FAIL"
    return Item(item_id, "FAIL" if corrupt else "PASS", run, tuple(x.members()))


def relabel_class(rng, x0, wits0):
    """x0 with every generator relabelled; witnesses follow their generator."""
    by_key = {}
    x = FormalClass.zero(x0.dim)
    for (M0, coeff), axis in zip(x0.entries(), wits0):
        M = relabel(rng, M0)
        x = x + FormalClass.of(M, coeff)
        by_key[M.canonical_key()] = axis
    return x, [by_key[M.canonical_key()] for M, _ in x.entries()]


CHAIN_REWRITE_ITEMS = 25
CHAIN_REWRITE_CORRUPT_EVERY = 5


def build_chain_rewrite(seed, workdir):
    """Criterion-6 family: certified classes over ZZ in dims 1-3; one relation
    chain in CHAIN_REWRITE_CORRUPT_EVERY is corrupted and must FAIL."""
    rng = _sub_rng(seed, "chain-rewrite")
    items = []
    for k in range(CHAIN_REWRITE_ITEMS):
        dim = (1 if k % 5 < 2 else 2) if k % 10 < 9 else 3
        shape_rng = random.Random(f"chain-rewrite-shape:{k}")
        x0, wits0 = gen.random_tn_class(shape_rng, ZZ, dim, terms=shape_rng.randint(1, 3),
                                        length=2, max_rank=2 if dim < 3 else 1)
        x, wits = relabel_class(rng, x0, wits0)
        corrupt = k % CHAIN_REWRITE_CORRUPT_EVERY == CHAIN_REWRITE_CORRUPT_EVERY // 2
        items.append(_chain_item(f"cr-{k:03d}", x, wits, corrupt))
    return items


# -- cli-docs ------------------------------------------------------------------


def run_cli(argv):
    """binmc.cli.main in-process with its output captured; returns the exit code."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def _cli_item(item_id, argv):
    """One invocation on a valid document: the known answer is exit status 0."""
    def run():
        return "PASS" if run_cli(argv) == 0 else "FAIL"
    return Item(item_id, "PASS", run)


def _write_doc(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize.canonical_dumps(doc))


# (ring, gen seed, length, max rank) of each dim-2 multicomplex document, all
# with fp objects, and (ring, terms, max rank) of each dim-2 class document.
CLI_DOCUMENTS = (("Z", 0, 3, 1), ("F7", 1, 3, 1), ("Q", 2, 2, 1), ("F5[x]", 3, 2, 1))
CLI_CLASSES = (("Z", 2, 2), ("F7", 2, 2), ("Q", 1, 1), ("F5[x]", 2, 1))


def build_cli_docs(seed, workdir):
    """Write the pipeline's input documents and return one item per invocation.

    Each multicomplex document starts as ``binmc gen`` output and is
    relabelled by the run's seed; class documents are written with
    serialize.class_document.  Every invocation reads its input from disk,
    so no parsed object outlives one item.
    """
    rng = _sub_rng(seed, "cli-docs")
    items = []
    for k, (ring_name, gen_seed, length, max_rank) in enumerate(CLI_DOCUMENTS):
        base = os.path.join(workdir, f"gen{k}.json")
        argv = ["gen", "--seed", str(gen_seed), "--dim", "2", "--ring", ring_name,
                "--length", str(length), "--max-rank", str(max_rank), "--fp", "--out", base]
        if run_cli(argv) != 0:
            raise RuntimeError(f"binmc {' '.join(argv)} failed")
        with open(base, encoding="utf-8") as fh:
            M0 = serialize.multicomplex_from_doc(serialize.load_text(fh.read()))
        m = os.path.join(workdir, f"m{k}.json")
        _write_doc(m, serialize.multicomplex_to_doc(relabel(rng, M0)))
        res = os.path.join(workdir, f"res{k}.json")
        comp = os.path.join(workdir, f"T{k}.json")
        tag = f"cd-{k:02d}-{ring_name}"
        items += [_cli_item(f"{tag}-check", ["check", m]),
                  _cli_item(f"{tag}-resolve-multi", ["resolve-multi", m, "--out", res]),
                  _cli_item(f"{tag}-recheck-res", ["recheck", res]),
                  _cli_item(f"{tag}-cofinalize", ["cofinalize", m, "--direction", "0",
                                                  "--out", comp]),
                  _cli_item(f"{tag}-recheck-T", ["recheck", comp])]
    for k, (ring_name, terms, max_rank) in enumerate(CLI_CLASSES):
        ring = cli.ring_from_name(ring_name)
        x0, wits0 = gen.random_tn_class(random.Random(f"cli-docs-class:{k}"), ring, 2,
                                        terms=terms, length=2, max_rank=max_rank)
        c = os.path.join(workdir, f"class{k}.json")
        _write_doc(c, serialize.class_document(*relabel_class(rng, x0, wits0)))
        chain = os.path.join(workdir, f"chain{k}.json")
        tag = f"cd-class{k}-{ring_name}"
        items += [_cli_item(f"{tag}-represent", ["represent-diagonal", c, "--out", chain]),
                  _cli_item(f"{tag}-verify-chain", ["verify-chain", chain])]
    return items


BUILDERS = {
    "resolve-small": build_resolve_small,
    "resolve-large": build_resolve_large,
    "chain-rewrite": build_chain_rewrite,
    "cli-docs": build_cli_docs,
}


def build(name, seed, workdir):
    return BUILDERS[name](seed, workdir)
