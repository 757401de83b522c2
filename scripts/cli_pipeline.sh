#!/usr/bin/env bash
# The command line pipeline, each step in a fresh `python -m binmc` process:
# gen --fp, check, resolve-multi, recheck, cofinalize, check, recheck, each
# expected to exit 0, where recheck of the resolution bundle must print the
# verdict lines of resolve-multi and recheck of the complement those of
# check; gen --dim 1, then torsion, expected to exit 0 and print unit-torsion;
# resolve --out (the doubled-cover ladder) and recheck, expected to exit 0
# and print the same verdict lines; gen --seed 4 --dim 2 --fp, whose document
# holds objects with relations, then resolve-multi --out and recheck, so that
# verification falls back to check_ses and validates the kernel, expected to
# exit 0 and print the same verdict lines; gen --ring "F5[x]" --dim 2 --seed 2,
# whose document has no diagonal direction, so that the cover is the ladder
# and its projection holds composites of the differentials over F5[x], then
# resolve-multi --out and recheck, expected to exit 0 and print the same
# verdict lines; gen --seed 3 --dim 3 --length 2
# --max-rank 1, then resolve-multi --out and recheck, expected to exit 0 and
# print the same verdict lines, with a bundle under 1.5 MB (it was 13.6 MB
# when documents wrote every matrix cell); snf of a version-2 matrix document
# that declares 10^9 columns, expected to exit 2 naming the matrix and the
# cap; then a non-integer BINMC_SEED, expected to exit 2 with a located input
# error; gen --max-rank 0 and gen --length 1, each expected to exit 2 naming
# its option; check and homology of a free
# line that is not exact (Z -2-> Z), each expected to exit 1 and name the
# homology at degree 0; represent-diagonal --out of a class with coefficient
# -3 and verify-chain of the chain it writes, each expected to exit 0 and to
# print the same chain-verifies line, which the first reaches through the
# splittings its split extensions carry in memory and the second through
# check_ses, since a chain document carries none; represent-diagonal of a
# class whose coefficient is over the cap, expected to exit 2;
# represent-diagonal --ring F7 --report of a class whose two entries cancel,
# expected to exit 0 with a representative over F7, not over the integers of
# the dropped entries, and verify-chain of the chain it writes, expected to
# exit 0; represent-diagonal of a 10 KB version-2 class document whose two
# relation matrices declare 2^24 cells each, under a 200 MB address-space
# limit, expected to exit 0, because a canonical key costs the nonzeros of
# its matrices, not their cells; verify-chain of a stepless chain from
# Z -1-> Z over Z to the same
# line over F7, expected to exit 1 and name the rings; verify-chain of a
# chain between two empty classes of dimension -3, expected to exit 2 with a
# located message; verify-chain of a version-2 chain over GF(1000003) whose
# start lists 8,000 distinct diagonal lines and whose 8,000 diagonal steps
# remove them one by one, expected to exit 0 within 20 s (a class built by
# repeated addition made it take 50 s); and check of a 12,125-byte
# multicomplex document declaring dim 4000 with an all-zero shape, and
# represent-diagonal of the 66-byte class document declaring dim 1000, each
# expected to exit 2 within 10 s, naming the dimension cap.  The other
# hand-written documents use the version-1 layouts, which readers still
# accept.  Last, under PYTHONHASHSEED=1 and PYTHONHASHSEED=2, each in fresh
# processes: gen --seed 4 --dim 2 --fp --out and resolve-multi --out
# --report of that document, and gen --seed 0 --dim 2
# --out and cofinalize --direction 0 --out --report of that one; the
# documents written under the two hash seeds must be byte-identical, and the
# reports equal once timing_ms is dropped.  Run from the root of a checkout:
#
#     bash scripts/cli_pipeline.sh
set -euo pipefail
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

expect() {
    local want=$1 got=0
    shift
    "$@" >out.txt 2>err.txt || got=$?
    if [ "$got" -ne "$want" ]; then
        echo "exit $got, expected $want: $*" >&2
        cat out.txt err.txt >&2
        exit 1
    fi
    echo "exit $got: $*"
}

# the last step printed the same verdict lines as the step saved in $1
same_verdicts() {
    cmp -s "$1" out.txt || { echo "verdict lines differ from $1:" >&2; diff "$1" out.txt >&2; exit 1; }
}

expect 0 python -m binmc gen --seed 0 --dim 2 --fp --out m.json
expect 0 python -m binmc check m.json
expect 0 python -m binmc resolve-multi m.json --out res.json
cp out.txt made.txt
expect 0 python -m binmc recheck res.json
same_verdicts made.txt
expect 0 python -m binmc cofinalize m.json --direction 0 --out T.json
expect 0 python -m binmc check T.json
cp out.txt made.txt
expect 0 python -m binmc recheck T.json
same_verdicts made.txt
expect 0 python -m binmc gen --seed 0 --dim 1 --out line.json
expect 0 python -m binmc torsion line.json
grep -q "unit-torsion" out.txt || { cat out.txt >&2; exit 1; }
expect 0 python -m binmc resolve line.json --out res1.json
cp out.txt made.txt
expect 0 python -m binmc recheck res1.json
same_verdicts made.txt
expect 0 python -m binmc gen --seed 4 --dim 2 --fp --out t.json
expect 0 python -m binmc resolve-multi t.json --out rt.json
cp out.txt made.txt
expect 0 python -m binmc recheck rt.json
same_verdicts made.txt
expect 0 python -m binmc gen --ring "F5[x]" --dim 2 --seed 2 --out f5.json
expect 0 python -m binmc resolve-multi f5.json --out rf5.json
cp out.txt made.txt
expect 0 python -m binmc recheck rf5.json
same_verdicts made.txt
expect 0 python -m binmc gen --seed 3 --dim 3 --length 2 --max-rank 1 --out big.json
expect 0 python -m binmc resolve-multi big.json --out rbig.json
cp out.txt made.txt
expect 0 python -m binmc recheck rbig.json
same_verdicts made.txt
size=$(wc -c <rbig.json)
[ "$size" -lt 1500000 ] || { echo "bundle of big.json is $size bytes, not under 1.5 MB" >&2; exit 1; }
echo '{"matrix":{"cols":1000000000,"rows":[[0,"1"]]},"ring":{"kind":"integers"},'\
'"schema":"binmc.matrix/2"}' >wide.json
expect 2 python -m binmc snf wide.json
grep -q "^input error: matrix: 1000000000 columns declared, over the cap of 65536" err.txt \
    || { cat err.txt >&2; exit 1; }
expect 2 env BINMC_SEED=abc python -m binmc check m.json
grep -q "^input error: BINMC_SEED: " err.txt || { cat err.txt >&2; exit 1; }
expect 2 python -m binmc gen --max-rank 0
grep -q "^input error: --max-rank: " err.txt || { cat err.txt >&2; exit 1; }
expect 2 python -m binmc gen --length 1
grep -q "^input error: --length: " err.txt || { cat err.txt >&2; exit 1; }

# one free object per degree of a dim-1 line over the ring document $2 (ZZ
# by default), with the scalar $1 as both differentials
line() {
    local d='{"cols":1,"entries":[["'"$1"'"]],"rows":1}'
    local ring=${2:-'{"kind":"integers"}'}
    local z='"gens":1,"rels":{"cols":0,"entries":[[]],"rows":1}'
    echo '{"differentials":[{"at":[1],"axis":0,"bottom":'"$d"',"top":'"$d"'}],"dim":1,'\
'"objects":[{"at":[0],'"$z"'},{"at":[1],'"$z"'}],"ring":'"$ring"','\
'"schema":"binmc.multicomplex/1","shape":[2]}'
}
line 2 >two.json
expect 1 python -m binmc check two.json
grep -q "homology at degree 0: free rank 0, torsion \[2\]" out.txt || { cat out.txt >&2; exit 1; }
expect 1 python -m binmc homology two.json
grep -q "homology at degree 0" out.txt || { cat out.txt >&2; exit 1; }
echo '{"dim":1,"entries":[{"coeff":-3,"multicomplex":'"$(line 1)"'}],'\
'"schema":"binmc.class/1","witnesses":[0]}' >neg.json
expect 0 python -m binmc represent-diagonal neg.json --out chain.json
grep "chain-verifies" out.txt >made.txt || { cat out.txt >&2; exit 1; }
expect 0 python -m binmc verify-chain chain.json
grep "chain-verifies" out.txt | cmp -s made.txt - \
    || { echo "chain-verifies lines differ:" >&2; cat made.txt out.txt >&2; exit 1; }
echo '{"dim":1,"entries":[{"coeff":17,"multicomplex":'"$(line 1)"'}],'\
'"schema":"binmc.class/1","witnesses":[0]}' >over.json
expect 2 python -m binmc represent-diagonal over.json
grep -q "^input error: class entry 0 (coefficient 17)" err.txt || { cat err.txt >&2; exit 1; }
# Z -1-> Z entered with coefficients 1 and -1 cancels to an empty class, whose
# representative must take the ring --ring names
echo '{"dim":1,"entries":[{"coeff":1,"multicomplex":'"$(line 1)"'},'\
'{"coeff":-1,"multicomplex":'"$(line 1)"'}],"schema":"binmc.class/1","witnesses":[]}' >cancelled.json
expect 0 python -m binmc represent-diagonal cancelled.json --ring F7 --report r.json --out cchain.json
python -c 'import json, sys
ring = json.load(open("r.json"))["witnesses"]["representative"]["ring"]
sys.exit(ring != {"kind": "prime-field", "p": "7"} and f"representative is over {ring}")'
expect 0 python -m binmc verify-chain cchain.json
# Z/2 -1-> Z/2 on 256 generators, each object presented by a 256 x 65536
# relation matrix with 256 nonzeros
python -c 'import json
n = 256
diagonal = lambda v, cols: {"cols": cols, "rows": [[i, v] for i in range(n)]}
obj = lambda t: {"at": [t], "gens": n, "rels": diagonal("2", 2 ** 16)}
line = {"differentials": [{"at": [1], "axis": 0, "bottom": diagonal("1", n),
                           "top": diagonal("1", n)}],
        "dim": 1, "objects": [obj(0), obj(1)], "ring": {"kind": "integers"},
        "schema": "binmc.multicomplex/2", "shape": [2]}
print(json.dumps({"dim": 1, "entries": [{"coeff": 1, "multicomplex": line}],
                  "schema": "binmc.class/2", "witnesses": [0]}))' >heavy.json
(ulimit -v 200000; expect 0 python -m binmc represent-diagonal heavy.json)

# the two lines hold the same entries, over Z and over F7, so only their
# rings tell them apart
formal_class() { echo '{"dim":'"$1"',"entries":'"$2"'}'; }
f7='{"kind":"prime-field","p":"7"}'
echo '{"end":'"$(formal_class 1 '[{"coeff":1,"multicomplex":'"$(line 1 "$f7")"'}]')"','\
'"schema":"binmc.chain/1","start":'"$(formal_class 1 '[{"coeff":1,"multicomplex":'"$(line 1)"'}]')"','\
'"steps":[]}' >rings.json
expect 1 python -m binmc verify-chain rings.json
grep -q "start and end classes have different rings" out.txt || { cat out.txt >&2; exit 1; }
echo '{"end":'"$(formal_class -3 '[]')"',"schema":"binmc.chain/1","start":'"$(formal_class -3 '[]')"','\
'"steps":[]}' >negative.json
expect 2 python -m binmc verify-chain negative.json
grep -q "^input error: chain.start: dimension must be nonnegative" err.txt \
    || { cat err.txt >&2; exit 1; }

# 8,000 distinct diagonal lines F -a-> F over GF(1000003) in one version-2
# chain: the start class lists them all and each step removes one, so a class
# built by repeated addition makes reading and replaying it quadratic
python -c 'import json
n = 8000
ring = {"kind": "prime-field", "p": "1000003"}
free = {"gens": 1, "rels": {"cols": 0, "rows": [[]]}}
def line(a):
    d = {"cols": 1, "rows": [[0, str(a)]]}
    return {"differentials": [{"at": [1], "axis": 0, "bottom": d, "top": d}], "dim": 1,
            "objects": [{"at": [0], **free}, {"at": [1], **free}], "ring": ring,
            "schema": "binmc.multicomplex/2", "shape": [2]}
print(json.dumps({"end": {"dim": 1, "entries": []},
                  "members": [line(a) for a in range(1, n + 1)], "schema": "binmc.chain/2",
                  "start": {"dim": 1, "entries": [{"coeff": 1, "multicomplex": k}
                                                  for k in range(n)]},
                  "steps": [{"axis": 0, "kind": "diagonal", "member": k, "sign": -1}
                            for k in range(n)]}))' >long.json
expect 0 timeout 20 python -m binmc verify-chain long.json
grep -q "chain-verifies: 8000 steps" out.txt || { cat out.txt >&2; exit 1; }
# a dimension over serialize.MAX_DIM is refused before any box is built
python -c 'import json
print(json.dumps({"differentials": [], "dim": 4000, "objects": [],
                  "ring": {"kind": "integers"}, "schema": "binmc.multicomplex/2",
                  "shape": [0] * 4000}))' >tall.json
[ "$(wc -c <tall.json)" -eq 12125 ] || { echo "tall.json is not 12,125 bytes" >&2; exit 1; }
expect 2 timeout 10 python -m binmc check tall.json
grep -q "^input error: multicomplex: dimension 4000 declared, over the cap of 32" err.txt \
    || { cat err.txt >&2; exit 1; }
echo '{"dim":1000,"entries":[],"schema":"binmc.class/2","witnesses":[]}' >tall-class.json
expect 2 timeout 10 python -m binmc represent-diagonal tall-class.json
grep -q "^input error: class document: dimension 1000 declared, over the cap of 32" err.txt \
    || { cat err.txt >&2; exit 1; }

# the same documents and reports under two string-hash seeds
for h in 1 2; do
    expect 0 env PYTHONHASHSEED=$h python -m binmc gen --seed 4 --dim 2 --fp --out h$h-t.json
    expect 0 env PYTHONHASHSEED=$h python -m binmc resolve-multi h$h-t.json --out h$h-rt.json \
        --report h$h-rt-report.json
    expect 0 env PYTHONHASHSEED=$h python -m binmc gen --seed 0 --dim 2 --out h$h-m.json
    expect 0 env PYTHONHASHSEED=$h python -m binmc cofinalize h$h-m.json --direction 0 \
        --out h$h-T.json --report h$h-T-report.json
done
for doc in t.json rt.json m.json T.json; do
    cmp -s h1-$doc h2-$doc || { echo "h1-$doc and h2-$doc differ" >&2; exit 1; }
done
python -c 'import json, sys
for name in ("rt-report.json", "T-report.json"):
    one, two = (json.load(open(f"h{h}-{name}")) for h in (1, 2))
    one.pop("timing_ms"), two.pop("timing_ms")
    if one != two:
        sys.exit(f"h1-{name} and h2-{name} differ beyond timing_ms")'
