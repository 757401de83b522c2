"""Construction and verification cost of one resolution, in one process.

Usage, from the root of a checkout:

    python3 scripts/resolve_split.py cliff
    python3 scripts/resolve_split.py dim4-1
    python3 scripts/resolve_split.py dim5-2

``cliff`` is the dim-3 capped input of perfbench's resolve-large workload;
``dim4-S`` and ``dim5-S`` are the same generator at dimensions 4 and 5 with
seed S.  All are
``gen.random_multicomplex(Random(S), ZZ, dim, length=2, max_rank=1, bricks=1)``
with S = 1 for the cliff.  Prints one JSON line: CPU seconds of
``resolve_multi(M, check=False)`` and of ``verify_resolution``, the latter
split into ``validate`` of P, of the source, of the target and of P' (each
absent when it did not run), ``commutes``, the carried splittings
(``extension._splits``) and the ``extension.check_ses`` fallback, both reached
through the extension check; the peak RSS of this process;
the generators of P and P'; and the largest entry, in bits, of the
inclusion and of the differentials of P'.
Run each input in a fresh process: Smith forms cached by one step would
make a later one look cheap.
"""
import json
import os
import random
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from binmc import extension, gen, resolve  # noqa: E402
from binmc.multicomplex import MultiMorphism  # noqa: E402
from binmc.rings import ZZ  # noqa: E402


def timed(totals, name, fn):
    def wrapper(*args, **kwargs):
        t0 = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[name] = totals.get(name, 0.0) + time.process_time() - t0
    return wrapper


def max_bits(mats):
    # walks the stored nonzeros: the dense view of P' can be millions of entries
    return max((abs(x).bit_length() for m in mats for row in m._nz for x in row[1::2]),
               default=0)


def main(argv) -> int:
    name = argv[1]
    dim, seed = (3, 1) if name == "cliff" else map(int, name[3:].split("-"))
    M = gen.random_multicomplex(random.Random(seed), ZZ, dim, length=2, max_rank=1, bricks=1)
    t0 = time.process_time()
    res = resolve.resolve_multi(M, check=False)
    construct = time.process_time() - t0
    parts = {}
    real_validate = resolve.validate
    labels = {id(res.P): "validate_P", id(res.source): "validate_source",
              id(res.target): "validate_target", id(res.Pprime): "validate_Pprime"}
    resolve.validate = lambda part, mode: timed(parts, labels[id(part)], real_validate)(part, mode)
    extension._splits = timed(parts, "_splits", extension._splits)
    extension.check_ses = timed(parts, "check_ses", extension.check_ses)
    MultiMorphism.commutes = timed(parts, "commutes", MultiMorphism.commutes)
    t0 = time.process_time()
    ok = resolve.verify_resolution(res).ok
    verify = time.process_time() - t0
    Pp = res.Pprime
    print(json.dumps({
        "input": name, "verdict": "PASS" if ok else "FAIL",
        "construct_s": round(construct, 3), "verify_s": round(verify, 3),
        "verify_parts_s": {k: round(v, 3) for k, v in sorted(parts.items())},
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "gens_P": sum(m.gens for m in res.P.objects.values()),
        "gens_Pprime": sum(m.gens for m in Pp.objects.values()),
        "max_bits_incl": max_bits(f.mat for f in res.incl.components.values()),
        "max_bits_Pprime": max_bits(f.mat for fam in (Pp.tops, Pp.bots) for f in fam.values()),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
