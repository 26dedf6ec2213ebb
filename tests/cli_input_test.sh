#!/bin/sh
# End-to-end input validation of sgr_cli: every malformed flag value or
# SGR_* variable, every malformed or empty edge list, and every flag a
# subcommand does not take, must make the command exit 1 with a message
# naming that input. It must never run with a silently substituted value, and never
# die on a signal.
#
# The bench binary named after sgr_cli (bench_parallel_trials) must keep
# the same contract.
#
#   sh tests/cli_input_test.sh path/to/sgr_cli [path/to/bench_parallel_trials]
set -u
cli=$1
case $cli in /*) ;; *) cli=$PWD/$cli ;; esac
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
# The same error raised inside a set-up task on the 4-worker pool.
expect SGR_INGEST_THREADS env SGR_DATASET_DIR="$tmp" SGR_INGEST_THREADS=-1 \
  "$cli" run tables-smoke --threads 4
expect SGR_THREADS env SGR_THREADS=-1 "$cli" run tables-smoke
expect SGR_THREADS env SGR_THREADS=2x "$cli" run tables-smoke
expect SGR_METRICS env SGR_METRICS=yes "$cli" run tables-smoke
expect --threads "$cli" run tables-smoke --threads -1
expect --threads "$cli" run tables-smoke --threads 3x
expect --metrics "$cli" run tables-smoke --metrics yes
expect --l1-tol "$cli" diff "$tmp/a.json" "$tmp/b.json" --l1-tol x
expect --markdown "$cli" diff "$tmp/a.json" "$tmp/b.json" --markdown yes
expect --nodes "$cli" generate --nodes 12abc --out "$tmp/g.txt"
expect --scale "$cli" datasets export anybeat --scale 0 --out "$tmp/x.txt"
expect --threads "$cli" datasets ingest "$tmp/anybeat.txt" --threads -1
# The CSR has one representation: there is no compression switch.
expect --compress "$cli" datasets ingest "$tmp/anybeat.txt" --compress on

# A flag the subcommand does not take is rejected by name, never ignored.
expect --thread "$cli" run tables-smoke --thread 4
# Trials run single-threaded: the retired intra-trial worker flags are
# gone, and a spec asking for more workers fails naming its key.
expect --rewire-threads "$cli" run tables-smoke --rewire-threads 2
printf '{"datasets": ["anybeat"], "estimator_threads": 2}\n' \
  > "$tmp/workers.json"
expect estimator_threads "$cli" run "$tmp/workers.json"
# Algorithms 5 and 6 have one engine each: the retired engine selectors
# accept only 0 / false.
printf '{"datasets": ["anybeat"], "rewire_batch": 64}\n' > "$tmp/batch.json"
expect rewire_batch "$cli" run "$tmp/batch.json"
printf '{"datasets": ["anybeat"], "parallel_assembly": true}\n' \
  > "$tmp/assembly.json"
expect parallel_assembly "$cli" run "$tmp/assembly.json"
# rc * candidate edges >= 2^63 attempts is rejected, not run for ~9.2e18
# attempts.
printf '{"datasets": ["anybeat"], "rc": 1e300, "methods": ["gjoka"], "trials": 1, "dataset_scale": 0.05, "path_sources": 10}\n' \
  > "$tmp/rc.json"
expect 'rc = ' "$cli" run "$tmp/rc.json"
# An edge list with no nodes has no seed node to crawl from: `crawl` and
# a scenario trial both reject it, naming the file.
: > "$tmp/empty.txt"
printf '# only a comment\n' > "$tmp/comments.txt"
expect empty.txt "$cli" crawl --graph "$tmp/empty.txt" --out "$tmp/s.txt"
expect comments.txt "$cli" crawl --graph "$tmp/comments.txt" --method bfs \
  --out "$tmp/s.txt"
# `analyze` and `compare` would score an empty graph as a table of zeros:
# they reject it the same way.
expect empty.txt "$cli" analyze --graph "$tmp/empty.txt"
expect comments.txt "$cli" analyze --graph "$tmp/comments.txt"
"$cli" generate --nodes 60 --out "$tmp/good.txt" > /dev/null || exit 1
expect empty.txt "$cli" compare --original "$tmp/good.txt" \
  --generated "$tmp/empty.txt"
expect comments.txt "$cli" compare --original "$tmp/comments.txt" \
  --generated "$tmp/good.txt"
# Every command reads edge lists with the one parser: a signed id is
# malformed everywhere, named by file and line.
printf '+1 2\n' > "$tmp/plus.txt"
printf -- '-0 1\n' > "$tmp/minus.txt"
for bad in plus minus; do
  expect "$bad.txt:1:" "$cli" crawl --graph "$tmp/$bad.txt" \
    --out "$tmp/s.txt"
  expect "$bad.txt:1:" "$cli" analyze --graph "$tmp/$bad.txt"
  expect "$bad.txt:1:" "$cli" compare --original "$tmp/good.txt" \
    --generated "$tmp/$bad.txt"
done
# Sampling lists are read as strictly: a negative id in a trajectory is
# malformed (never wrapped to 4294967295), named by file and line.
printf '# sgr-sampling-list v1\nwalk 1\nseq 2 -1 1\nnode 1 0\n' \
  > "$tmp/negative_sample.txt"
expect "negative_sample.txt:3" "$cli" restore \
  --sample "$tmp/negative_sample.txt" --out "$tmp/r.txt"
mkdir "$tmp/empty_dir"
: > "$tmp/empty_dir/youtube.txt"
printf '{"datasets": ["youtube"]}\n' > "$tmp/youtube.json"
expect youtube.txt env SGR_DATASET_DIR="$tmp/empty_dir" \
  "$cli" run "$tmp/youtube.json"
expect youtube.txt env SGR_DATASET_DIR="$tmp/empty_dir" \
  "$cli" run "$tmp/youtube.json" --threads 4

# An empty SGR_DATASET_DIR or SGR_SNAPSHOT_CACHE counts as unset: the run
# uses the generator and never reads a stray edge list from the working
# directory. An empty path flag value is rejected by name, never run as
# "no cache" or "no trace".
mkdir "$tmp/cwd"
printf 'not an edge list\n' > "$tmp/cwd/anybeat.txt"
if ! (cd "$tmp/cwd" && env SGR_DATASET_DIR= SGR_SNAPSHOT_CACHE= \
      "$cli" run tables-smoke --out "$tmp/empty-env.json") \
      > /dev/null 2> "$tmp/err" ||
    ! grep -q '"source": "generator"' "$tmp/empty-env.json"; then
  echo "FAIL: an empty SGR_DATASET_DIR or SGR_SNAPSHOT_CACHE counted as set"
  cat "$tmp/err"
  failures=$((failures + 1))
fi
expect --dataset-dir "$cli" run tables-smoke --dataset-dir ""
expect --snapshot-cache "$cli" run tables-smoke --snapshot-cache ""
expect --trace "$cli" run tables-smoke --trace ""
expect --cache "$cli" datasets ingest "$tmp/anybeat.txt" --cache ""

expect --sources "$cli" generate --sources 5 --out "$tmp/g.txt"
expect --threads "$cli" diff "$tmp/a.json" "$tmp/b.json" --threads 2
expect --scale "$cli" datasets ingest "$tmp/anybeat.txt" --scale 2
expect --out "$cli" trace summarize "$tmp/t.json" --out x

# `sgr table` renders only a readable sgr-report/1 file and takes no flags.
printf '{"schema": "sgr-report/1", "cells": []}\n' > "$tmp/report.json"
printf '{"traceEvents": []}\n' > "$tmp/not-report.json"
expect missing.json "$cli" table "$tmp/missing.json"
expect not-report.json "$cli" table "$tmp/not-report.json"
expect --foo "$cli" table "$tmp/report.json" --foo 1
expect --foo "$cli" table --foo

# `datasets ingest` reads only its own flags: the scenario loader's
# ingest variables do not reach it, malformed or not.
if ! env SGR_INGEST_THREADS=-1 \
    "$cli" datasets ingest "$tmp/anybeat.txt" > /dev/null 2> "$tmp/err"; then
  echo "FAIL: datasets ingest read the SGR_INGEST_* environment"
  cat "$tmp/err"
  failures=$((failures + 1))
fi

# `sgr generate` writes the generator dataset `sgr run` builds, ids
# included: ingesting the file gives the engine's content hash (500 nodes,
# the generate defaults otherwise).
for pair in powerlaw:3c13031f282800ee ba:f02c35487288ac73 \
    er:461bcd16de86e96e community:5a32d800bb85da20 social:00632bfd79f1c5be; do
  model=${pair%%:*}
  "$cli" generate --model "$model" --nodes 500 --out "$tmp/$model.txt" \
    > /dev/null || exit 1
  if ! "$cli" datasets ingest "$tmp/$model.txt" |
      grep -q "^csr_hash ${pair#*:}\$"; then
    echo "FAIL: sgr generate --model $model wrote ids the engine does not use"
    failures=$((failures + 1))
  fi
done

for bench in "$@"; do
  expect SGR_THREADS env SGR_THREADS=2x "$bench"
  expect --threads "$bench" --threads -1
  expect --thread "$bench" --thread 4
done

if [ "$failures" -ne 0 ]; then
  echo "$failures malformed input(s) not rejected"
  exit 1
fi
echo "every malformed input rejected"
