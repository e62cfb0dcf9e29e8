#!/bin/sh
# Multi-process sharded campaign driver.
#
# Builds h2attack once, launches N shard processes (each running the
# contiguous slice i/N of every selected campaign into its own bundle
# directory), waits for all of them, then merges the bundles. The
# merged output — tables on stdout, survey JSONL/obs exports,
# -metrics-json — is byte-identical to the same flags run in a single
# process (see DESIGN.md "Scale-out").
#
# Usage: scripts/shard.sh N DIR [h2attack flags...]
#
#   scripts/shard.sh 4 campaigns/run1 -all -trials 100 -seed 1
#   scripts/shard.sh 8 campaigns/big -survey -corpus 100000 \
#       -export summary,jsonl=campaigns/big/results.jsonl
#
# An interrupted shard leaves its per-campaign checkpoints in its
# bundle directory; rerun the same command and every shard resumes
# where it stopped (completed shards run no trial and rewrite their
# bundles with the same bytes from their done checkpoints).
set -eu

if [ "$#" -lt 3 ]; then
	echo "usage: scripts/shard.sh N DIR [h2attack flags...]" >&2
	exit 2
fi

N=$1
DIR=$2
shift 2

cd "$(dirname "$0")/.."
mkdir -p "$DIR"
bin="$DIR/h2attack"
go build -o "$bin" ./cmd/h2attack

# Shard status lines go to stderr so this script's stdout carries
# only the merged output — `scripts/shard.sh ... > out` is then
# byte-comparable to the same flags run in a single process. Each
# shard's lines (stdout and stderr both) are prefixed "[shard i/N]"
# so the N interleaved progress streams stay attributable. POSIX sh
# has no pipefail, so each shard records its exit status in a file
# the wait loop checks after the prefixer pipeline drains.
pids=""
dirs=""
i=1
while [ "$i" -le "$N" ]; do
	{
		"$bin" "$@" -shard "$i/$N" -shard-dir "$DIR/shard-$i" 2>&1
		echo $? >"$DIR/shard-$i.status"
	} | sed "s|^|[shard $i/$N] |" >&2 &
	pids="$pids $!"
	dirs="$dirs,$DIR/shard-$i"
	i=$((i + 1))
done

for p in $pids; do
	wait "$p" || true
done

fail=0
ok=0
i=1
while [ "$i" -le "$N" ]; do
	st=$(cat "$DIR/shard-$i.status" 2>/dev/null || echo missing)
	if [ "$st" = "0" ]; then
		ok=$((ok + 1))
	else
		echo "shard.sh: shard $i/$N failed (exit status: $st)" >&2
		fail=1
	fi
	rm -f "$DIR/shard-$i.status"
	i=$((i + 1))
done
echo "shard.sh: $ok/$N shards complete" >&2
if [ "$fail" -ne 0 ]; then
	echo "shard.sh: a shard process failed; fix or rerun to resume" >&2
	exit 1
fi

exec "$bin" "$@" -merge "${dirs#,}"
