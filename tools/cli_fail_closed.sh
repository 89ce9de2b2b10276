#!/bin/sh
# Smoke for `privateer run` on every kind of source.  A malformed Cmini
# source exits 124 with one positioned line ("... at L:C: ..."), a
# program fault exits 3 with one "runtime error: ..." line, and
# neither ever prints "internal error".  A program whose workers write
# different bytes of one word runs with exit 0 and output identical to
# the sequential run's (a wrong answer would exit 4).  A port, a
# workload:, a scenario: and a file source each run with exit 0, and
# each `--json` report is one line holding one object with a
# fingerprint and a host_ms object.  `--input` on a file source exits
# 124.  Also checks that `run --help=plain` and `serve --help=plain`
# leave no raw Cmdliner markup such as "$(b,...)" in the output.
#
#   dune build && sh tools/cli_fail_closed.sh [PRIVATEER_EXE]
#
# PRIVATEER_EXE defaults to the dune build's CLI binary.
set -u
exe=${1:-_build/default/bin/privateer_cli.exe}
root=$(dirname "$0")/..
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
status=0

# check EXPECTED-EXIT NAME SOURCE
check() {
  printf '%s\n' "$3" > "$dir/$2.cm"
  "$exe" run "$dir/$2.cm" > "$dir/out" 2> "$dir/err"
  code=$?
  lines=$(wc -l < "$dir/err")
  if [ "$code" -ne "$1" ] || grep -q "internal error" "$dir/err"; then
    echo "FAIL $2: exit $code (want $1): $(cat "$dir/err")"
    status=1
  elif [ "$lines" -ne 1 ]; then
    echo "FAIL $2: $lines lines on stderr (want 1): $(cat "$dir/err")"
    status=1
  elif [ "$code" -eq 124 ] && ! grep -Eq ' at [0-9]+:[0-9]+: ' "$dir/err"; then
    echo "FAIL $2: exit 124 without a position: $(cat "$dir/err")"
    status=1
  else
    echo "ok   $2: exit $code: $(cat "$dir/err")"
  fi
}

check 124 bad-int-literal 'fn main() { return 99999999999999999999999; }'
check 124 bad-float-literal 'fn main() { return 1e; }'
check 124 stray-char 'fn main() { var x = 1 $ 2; return x; }'
check 124 unknown-function 'fn main() { return foo(1); }'
check 124 duplicate-main 'fn main() { return 1; }
fn main() { return 2; }'
check 124 duplicate-function 'fn f() { return 1; }
fn f() { return 2; }
fn main() { return f(); }'
check 124 stray-break 'fn main() { break; return 0; }'
check 124 missing-main 'fn f() { return 1; }'
check 3 division-by-zero 'fn main() { return 1 / 0; }'
check 3 unbound-local 'fn main() { return x; }'
check 3 arity-mismatch 'fn f(a) { return a; }
fn main() { return f(1, 2); }'
check 3 type-error 'fn main() { var x = 1.5; return x + 2; }'
check 3 double-free 'fn main() { var p = malloc(2); free(p); free(p); return 0; }'

# identical NAME SOURCE FLAGS...: exit 0, and the report says the
# output equals the sequential run's.
identical() {
  name=$1
  printf '%s\n' "$2" > "$dir/$name.cm"
  shift 2
  "$exe" run "$dir/$name.cm" "$@" > "$dir/out" 2> "$dir/err"
  code=$?
  if [ "$code" -ne 0 ] || ! grep -q '^output identical  : true$' "$dir/out"; then
    echo "FAIL $name $*: exit $code (want 0, identical output): $(cat "$dir/err")"
    status=1
  else
    echo "ok   $name $*: exit 0, output identical"
  fi
}

store1='global buf[64];
fn main() {
  for (i = 0; i < 256) { store1(&buf + i, i + 1); }
  var s = 0; var q = 0;
  while (q < 256) { s = s + load1(&buf + q) * (q + 1); q = q + 1; }
  print("s %d\n", s); return 0;
}'
identical partial-words "$store1" -w 2
identical partial-words "$store1" -w 8
identical partial-words "$store1" -w 4 --schedule blocked

# run_source SOURCE: the text run and the --json run both exit 0, and
# the JSON report is one line holding one object with a fingerprint
# and a host_ms object.
run_source() {
  "$exe" run "$1" > "$dir/out" 2> "$dir/err"
  code=$?
  if [ "$code" -eq 0 ]; then
    "$exe" run "$1" --json > "$dir/json" 2> "$dir/err"
    code=$?
  fi
  if [ "$code" -ne 0 ]; then
    echo "FAIL run $1: exit $code: $(cat "$dir/err")"
    status=1
  elif ! python3 -c '
import json, sys
lines = open(sys.argv[1]).read().splitlines()
assert len(lines) == 1, "%d lines" % len(lines)
report = json.loads(lines[0])
assert isinstance(report, dict), "not an object"
assert isinstance(report.get("fingerprint"), str), "no fingerprint"
assert isinstance(report.get("host_ms"), dict), "no host_ms object"
' "$dir/json" 2> "$dir/err"; then
    echo "FAIL run $1 --json: $(tail -n 1 "$dir/err")"
    status=1
  else
    echo "ok   run $1: exit 0, one JSON object"
  fi
}

run_source dijkstra
run_source workload:swaptions
run_source scenario:seed=3,trip=24
run_source "$root/examples/programs/histogram.cm"

"$exe" run --input train "$root/examples/programs/histogram.cm" > "$dir/out" 2> "$dir/err"
code=$?
if [ "$code" -ne 124 ]; then
  echo "FAIL run --input train on a file: exit $code (want 124): $(cat "$dir/err")"
  status=1
else
  echo "ok   run --input train on a file: exit 124: $(cat "$dir/err")"
fi

# help COMMAND
help() {
  "$exe" "$1" --help=plain > "$dir/help" 2>&1
  markup=$(grep -cF '$(' "$dir/help")
  if [ "$markup" -ne 0 ]; then
    echo "FAIL $1 --help: $markup line(s) of raw markup"
    status=1
  else
    echo "ok   $1 --help: no raw markup"
  fi
}

help run
help serve
exit $status
