#!/bin/sh
# End-to-end input validation of sgr_cli: every malformed flag value or
# SGR_* variable must make the command exit 1 with a message naming that
# input. It must never run with a silently substituted value, and never
# die on a signal.
#
# The bench binaries named after sgr_cli must keep the same contract.
#
#   sh tests/cli_input_test.sh path/to/sgr_cli [path/to/bench_* ...]
set -u
cli=$1
shift
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
failures=0

# expect NAME COMMAND...: COMMAND must exit 1 and name NAME on stderr.
expect() {
  name=$1
  shift
  "$@" > /dev/null 2> "$tmp/err"
  status=$?
  if [ "$status" -ne 1 ] || ! grep -q -- "$name" "$tmp/err"; then
    echo "FAIL (exit $status, expected 1 naming $name): $*"
    cat "$tmp/err"
    failures=$((failures + 1))
  fi
}

# Edge lists for the two tables-smoke datasets, so the ingest variables
# are read.
for name in anybeat brightkite; do
  "$cli" datasets export "$name" --scale 0.05 --out "$tmp/$name.txt" \
    > /dev/null || exit 1
done

expect SGR_INGEST_THREADS env SGR_DATASET_DIR="$tmp" SGR_INGEST_THREADS=-1 \
  "$cli" run tables-smoke
expect SGR_CSR_COMPRESS env SGR_DATASET_DIR="$tmp" SGR_CSR_COMPRESS=on \
  "$cli" run tables-smoke
expect SGR_THREADS env SGR_THREADS=-1 "$cli" run tables-smoke
expect SGR_THREADS env SGR_THREADS=2x "$cli" run tables-smoke
expect SGR_METRICS env SGR_METRICS=yes "$cli" run tables-smoke
expect SGR_REWIRE_THREADS env SGR_REWIRE_THREADS=abc "$cli" run tables-smoke
expect --threads "$cli" run tables-smoke --threads -1
expect --threads "$cli" run tables-smoke --threads 3x
expect --metrics "$cli" run tables-smoke --metrics yes
expect --estimator-threads "$cli" run tables-smoke --estimator-threads 1e3
expect --l1-tol "$cli" diff "$tmp/a.json" "$tmp/b.json" --l1-tol x
expect --markdown "$cli" diff "$tmp/a.json" "$tmp/b.json" --markdown yes
expect --nodes "$cli" generate --nodes 12abc --out "$tmp/g.txt"
expect --scale "$cli" datasets export anybeat --scale 0 --out "$tmp/x.txt"
expect --threads "$cli" datasets ingest "$tmp/anybeat.txt" --threads -1

# `datasets ingest` reads only its own flags: the scenario loader's
# ingest variables do not reach it, malformed or not.
if ! env SGR_INGEST_THREADS=-1 SGR_CSR_COMPRESS=on \
    "$cli" datasets ingest "$tmp/anybeat.txt" > /dev/null 2> "$tmp/err"; then
  echo "FAIL: datasets ingest read the SGR_INGEST_* environment"
  cat "$tmp/err"
  failures=$((failures + 1))
fi

for bench in "$@"; do
  expect SGR_THREADS env SGR_THREADS=2x "$bench"
  expect --threads "$bench" --threads -1
done

if [ "$failures" -ne 0 ]; then
  echo "$failures malformed input(s) not rejected"
  exit 1
fi
echo "every malformed input rejected"
