#!/bin/sh
# Live-telemetry smoke: the wall-vs-deterministic boundary, end to end.
#
# Builds h2attack with the race detector, runs a telemetry-off survey
# as the reference, then the same survey with -status on a random port
# at -j 1 and -j 8, scraping /metrics and /status mid-run. Asserts the
# scrapes are well-formed (Prometheus exposition lines, parseable
# status fields) and that the campaign's stdout and JSONL export are
# byte-identical to the reference — the plane may observe, never
# perturb. A last leg runs a -table2 shard slice the same way, so the
# sweep-shard path's simulator-event gauges are checked live too.
# Mirrors the CI telemetry-smoke job; scratch in campaigns/
# (gitignored).
#
# Usage: scripts/telemetry_smoke.sh [scratch-dir]
set -eu

cd "$(dirname "$0")/.."
DIR=${1:-campaigns/telemetrysmoke}
rm -rf "$DIR"
mkdir -p "$DIR"

bin="$DIR/h2attack"
go build -race -o "$bin" ./cmd/h2attack

# status_addr ERRFILE PID LEG prints the status server's address. The
# server binds before the campaign starts and prints its random port
# on stderr; wait for the line and extract the address.
status_addr() {
	tries=0
	while :; do
		a=$(sed -n 's|.*status server on http://\([0-9.:]*\).*|\1|p' "$1")
		if [ -n "$a" ]; then
			echo "$a"
			return
		fi
		tries=$((tries + 1))
		if [ "$tries" -gt 100 ]; then
			echo "telemetry_smoke: $3: no status server line after 10s" >&2
			kill "$2" 2>/dev/null || true
			exit 1
		fi
		sleep 0.1
	done
}

# Reference: telemetry off. 200 sites x 2 trials is long enough under
# the race detector that the live runs are reliably still going when
# the scrapes land.
"$bin" -survey -corpus 200 -site-trials 2 \
	-export summary,jsonl="$DIR/ref.jsonl" >"$DIR/ref.out"

for j in 1 8; do
	: >"$DIR/err.$j"
	"$bin" -survey -corpus 200 -site-trials 2 -j "$j" -status 127.0.0.1:0 \
		-export summary,jsonl="$DIR/live.$j.jsonl" \
		>"$DIR/live.$j.out" 2>"$DIR/err.$j" &
	pid=$!

	addr=$(status_addr "$DIR/err.$j" "$pid" "-j $j")

	# Scrape mid-run. Poll until the campaign has completed at least
	# one trial AND exported its first line, so the assertions below
	# see live values, not startup zeros.
	tries=0
	while :; do
		curl -fsS "http://$addr/status" >"$DIR/status.$j.json"
		curl -fsS "http://$addr/metrics" >"$DIR/metrics.$j.txt"
		if ! grep -q '"trials_done": 0,' "$DIR/status.$j.json" &&
			grep -q '^h2attack_pipeline_export_bytes [1-9]' "$DIR/metrics.$j.txt"; then
			break
		fi
		tries=$((tries + 1))
		if [ "$tries" -gt 100 ]; then
			echo "telemetry_smoke: -j $j: no live export progress after 10s" >&2
			kill "$pid" 2>/dev/null || true
			exit 1
		fi
		sleep 0.1
	done

	wait "$pid"

	# Prometheus exposition well-formedness: schema triples present,
	# live values nonzero where the mid-run scrape guarantees them.
	grep -q '^# HELP h2attack_runner_workers ' "$DIR/metrics.$j.txt"
	grep -q '^# TYPE h2attack_runner_workers gauge$' "$DIR/metrics.$j.txt"
	grep -q "^h2attack_runner_workers $j\$" "$DIR/metrics.$j.txt"
	grep -q '^h2attack_pipeline_export_bytes [1-9]' "$DIR/metrics.$j.txt"
	grep -q '^h2attack_trials_total 400$' "$DIR/metrics.$j.txt"
	grep -q '^h2attack_trials_per_sec [0-9]' "$DIR/metrics.$j.txt"

	# /status well-formedness: campaign identity and live progress.
	grep -q '"campaign": "survey"' "$DIR/status.$j.json"
	grep -q '"fingerprint": "corpus{' "$DIR/status.$j.json"
	grep -q '"trials_total": 400,' "$DIR/status.$j.json"
	grep -q '"trials_per_sec": ' "$DIR/status.$j.json"
	grep -q '"runner_workers": '"$j"',' "$DIR/status.$j.json"

	# The boundary: output with the plane live is byte-identical to
	# the telemetry-off reference.
	cmp "$DIR/ref.out" "$DIR/live.$j.out"
	cmp "$DIR/ref.jsonl" "$DIR/live.$j.jsonl"
done

# Sweep-shard leg: a -table2 slice with -status must feed the
# simulator-event gauges (its worlds are the same as an in-memory
# sweep's) and write the same bundle results as with -status off. 400
# race-built trials keep it running well past the first scrape.
"$bin" -table2 -trials 400 -j 2 -shard 1/1 -shard-dir "$DIR/shard.ref" >/dev/null
: >"$DIR/err.shard"
"$bin" -table2 -trials 400 -j 2 -shard 1/1 -shard-dir "$DIR/shard.live" \
	-status 127.0.0.1:0 >/dev/null 2>"$DIR/err.shard" &
pid=$!
addr=$(status_addr "$DIR/err.shard" "$pid" "shard")
tries=0
while :; do
	curl -fsS "http://$addr/status" >"$DIR/status.shard.json"
	curl -fsS "http://$addr/metrics" >"$DIR/metrics.shard.txt"
	if ! grep -q '"trials_done": 0,' "$DIR/status.shard.json"; then
		break
	fi
	tries=$((tries + 1))
	if [ "$tries" -gt 100 ]; then
		echo "telemetry_smoke: shard: no trial done after 10s" >&2
		kill "$pid" 2>/dev/null || true
		exit 1
	fi
	sleep 0.1
done
wait "$pid"
grep -q '"campaign": "table2"' "$DIR/status.shard.json"
grep -q '^h2attack_sim_events_arg_total [1-9]' "$DIR/metrics.shard.txt"
cmp "$DIR/shard.ref/table2.jsonl" "$DIR/shard.live/table2.jsonl"

echo "telemetry-smoke OK"
