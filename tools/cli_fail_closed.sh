#!/bin/sh
# Fail-closed smoke for `privateer file`: a malformed Cmini source
# exits 124 with a positioned message ("... at L:C: ..."), a program
# fault exits 3 with
# "runtime error: ...", and neither ever prints "internal error".
# Also checks that `run --help=plain` and `serve --help=plain` leave
# no raw Cmdliner markup such as "$(b,...)" in the output.
#
#   dune build && sh tools/cli_fail_closed.sh [PRIVATEER_EXE]
#
# PRIVATEER_EXE defaults to the dune build's CLI binary.
set -u
exe=${1:-_build/default/bin/privateer_cli.exe}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
status=0

# check EXPECTED-EXIT NAME SOURCE
check() {
  printf '%s\n' "$3" > "$dir/$2.cm"
  "$exe" file "$dir/$2.cm" > "$dir/out" 2> "$dir/err"
  code=$?
  if [ "$code" -ne "$1" ] || grep -q "internal error" "$dir/err"; then
    echo "FAIL $2: exit $code (want $1): $(cat "$dir/err")"
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
