#!/bin/sh
# Golden check of the simulated surface through perfbench: paper-ports
# at seed 1, misspec-eager and serve-corpus at seeds 1 and 7919, each a
# one-second untraced run.  perfbench itself exits 0 even when a job
# misses its golden, so this script fails unless every result line
# reads "correct": true and every context line "golden_mismatches":0.
#
#   sh tools/perfbench_goldens.sh
#
# Run from the root of a checkout; perfbench/run.py builds what it runs.
set -u
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
status=0

# run WORKLOAD SEED
run() {
  out="$dir/$1-$2"
  python3 perfbench/run.py --workload "$1" --seed "$2" --seconds 1 --trace 0 \
    > "$out" 2> "$out.err"
  code=$?
  if [ "$code" -ne 0 ] \
    || ! grep -q '"correct": true' "$out" \
    || ! grep -q '"golden_mismatches":0,' "$out"; then
    echo "FAIL $1 seed $2: exit $code"
    cat "$out" "$out.err"
    status=1
  else
    echo "ok   $1 seed $2"
  fi
}

run paper-ports 1
run misspec-eager 1
run misspec-eager 7919
run serve-corpus 1
run serve-corpus 7919
exit $status
