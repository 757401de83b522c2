#!/usr/bin/env bash
# The command line pipeline, each step in a fresh `python -m binmc` process:
# gen --fp, check, resolve-multi, recheck, cofinalize, recheck, each expected
# to exit 0, then a non-integer BINMC_SEED, expected to exit 2 with a located
# input error.  Run from the root of a checkout:
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

expect 0 python -m binmc gen --seed 0 --dim 2 --fp --out m.json
expect 0 python -m binmc check m.json
expect 0 python -m binmc resolve-multi m.json --out res.json
expect 0 python -m binmc recheck res.json
expect 0 python -m binmc cofinalize m.json --direction 0 --out T.json
expect 0 python -m binmc recheck T.json
expect 2 env BINMC_SEED=abc python -m binmc check m.json
grep -q "^input error: BINMC_SEED: " err.txt || { cat err.txt >&2; exit 1; }
