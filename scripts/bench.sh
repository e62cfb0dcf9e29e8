#!/bin/sh
# Benchmark harness + regression gate.
#
# Runs every benchmark (the experiment sweeps report trials/s as a
# custom metric; the substrate packages report ns/op + allocs/op),
# converts the output into a structured baseline via cmd/benchjson,
# and compares it against the most recently committed BENCH_*.json: a
# sweep whose trials/s throughput dropped more than 10% fails the
# script. Without BENCH_OUT the baseline goes to a temporary file and
# is only compared; BENCH_OUT names a baseline file to commit.
#
# Usage: scripts/bench.sh              (or: make bench-compare)
#   BENCH_OUT=BENCH_PRn.json scripts/bench.sh  # write a new baseline
#
# The JSON schema and the gate policy are documented in EXPERIMENTS.md.
set -eu

cd "$(dirname "$0")/.."

raw=$(mktemp)
trap 'rm -f "$raw" "$raw.base" "$raw.json"' EXIT
out=${BENCH_OUT:-$raw.json}

echo "==> go test -bench (this takes a minute or two)"
go test -bench=. -benchmem -run '^$' -timeout 60m . ./internal/... | tee "$raw"

echo "==> parse to $out"
go run ./cmd/benchjson -o "$out" < "$raw"

# The baseline is the HEAD version of the most recently committed
# BENCH_*.json (which may be an older copy of $out itself).
base=$(git ls-files 'BENCH_*.json' | while read -r f; do
	printf '%s %s\n' "$(git log -1 --format=%ct -- "$f")" "$f"
done | sort -n | tail -1 | cut -d' ' -f2-)

if [ -z "$base" ]; then
	echo "no committed BENCH_*.json baseline; skipping regression gate"
	exit 0
fi

if ! git show "HEAD:$base" > "$raw.base" 2>/dev/null; then
	echo "cannot read HEAD:$base; skipping regression gate"
	exit 0
fi

echo "==> compare against committed $base"
go run ./cmd/benchjson -compare -threshold 0.10 "$raw.base" "$out"
