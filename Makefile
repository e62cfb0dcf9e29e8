# Convenience targets; everything is plain go tooling underneath.

.PHONY: ci test bench bench-profile check-golden experiments profile survey-smoke shard-smoke telemetry-smoke

# The CI gate: vet + build + race-enabled tests (scripts/ci.sh).
ci:
	sh scripts/ci.sh

# The fast tier-1 check.
test:
	go build ./... && go test ./...

# Experiment sweeps as custom bench metrics + substrate micro-benches.
bench:
	go test -bench=. -benchmem

# Regenerate the profile inputs (profiles/ is gitignored; this
# refreshes them locally) so the next perf PR starts from profiles of
# the current code rather than a stale snapshot. Alias of
# `make profile` with an explicit reminder of the workload.
bench-profile: profile

# Profile a representative sweep (Table II: full-attack trials, the
# dominant workload). Writes profiles/cpu.pprof + profiles/mem.pprof;
# inspect with `go tool pprof profiles/cpu.pprof`. See EXPERIMENTS.md
# "Profiling".
profile:
	@mkdir -p profiles
	go run ./cmd/h2attack -table2 -trials 100 -seed 1 \
		-cpuprofile profiles/cpu.pprof -memprofile profiles/mem.pprof > /dev/null
	@echo "wrote profiles/cpu.pprof and profiles/mem.pprof"

# Determinism gate: regenerate the sweep output and diff it against
# the committed golden file. Any byte of drift fails.
check-golden:
	@tmp=$$(mktemp) && \
	go run ./cmd/h2attack -all -trials 100 -seed 1 > $$tmp && \
	diff -u experiments_output.txt $$tmp && \
	rm -f $$tmp && echo "golden OK"

# Pipeline smoke: a small survey campaign through the JSONL exporter
# with a mid-campaign stop and a checkpointed resume, verifying the
# resumed output is byte-identical to an uninterrupted run: the JSONL,
# the obs= snapshot, and stdout after the status line (summary table
# and -metrics, which must cover the whole campaign). A rerun of the
# finished campaign must print the same table and metrics again.
# Mirrors the CI pipeline-smoke step; campaign scratch lives in
# campaigns/ (gitignored).
survey-smoke:
	@rm -rf campaigns/smoke && mkdir -p campaigns/smoke
	go run ./cmd/h2attack -survey -corpus 40 -metrics \
		-export summary,jsonl=campaigns/smoke/ref.jsonl,obs=campaigns/smoke/ref.obs.json \
		> campaigns/smoke/ref.out
	go run ./cmd/h2attack -survey -corpus 40 -metrics \
		-export summary,jsonl=campaigns/smoke/out.jsonl,obs=campaigns/smoke/out.obs.json \
		-checkpoint campaigns/smoke/ck.json -checkpoint-every 7 -max-trials 17 > /dev/null
	go run ./cmd/h2attack -survey -corpus 40 -metrics \
		-export summary,jsonl=campaigns/smoke/out.jsonl,obs=campaigns/smoke/out.obs.json \
		-checkpoint campaigns/smoke/ck.json -checkpoint-every 7 \
		> campaigns/smoke/resumed.out
	go run ./cmd/h2attack -survey -corpus 40 -metrics \
		-export summary,jsonl=campaigns/smoke/out.jsonl,obs=campaigns/smoke/out.obs.json \
		-checkpoint campaigns/smoke/ck.json -checkpoint-every 7 \
		> campaigns/smoke/rerun.out
	cmp campaigns/smoke/ref.jsonl campaigns/smoke/out.jsonl
	cmp campaigns/smoke/ref.obs.json campaigns/smoke/out.obs.json
	tail -n +2 campaigns/smoke/ref.out > campaigns/smoke/ref.body
	tail -n +2 campaigns/smoke/resumed.out | cmp campaigns/smoke/ref.body -
	tail -n +2 campaigns/smoke/rerun.out | cmp campaigns/smoke/ref.body -
	@echo "survey-smoke OK"

# Scale-out smoke: the same campaign (two sweeps + a small survey)
# run single-process and as three shard processes via scripts/shard.sh
# must produce byte-identical tables, survey JSONL, and -metrics-json.
# Deliberately uses different -j for the two runs: output must not
# depend on worker count either. A second campaign has more shards
# than trials (1 table2 trial, 2 survey sites over 3 shards), so some
# slices are empty: they must run nothing, and the merged tables,
# -metrics and -metrics-json must still match a single process.
# Mirrors the CI shard-merge-smoke job; scratch lives in campaigns/
# (gitignored).
shard-smoke:
	@rm -rf campaigns/shardsmoke && mkdir -p campaigns/shardsmoke
	go run ./cmd/h2attack -table1 -delay -trials 6 -seed 5 -j 3 \
		-metrics-json campaigns/shardsmoke/single.metrics.json \
		-survey -corpus 24 -site-trials 2 \
		-export summary,jsonl=campaigns/shardsmoke/single.jsonl \
		> campaigns/shardsmoke/single.out
	sh scripts/shard.sh 3 campaigns/shardsmoke/bundles \
		-table1 -delay -trials 6 -seed 5 -j 2 \
		-metrics-json campaigns/shardsmoke/merged.metrics.json \
		-survey -corpus 24 -site-trials 2 \
		-export summary,jsonl=campaigns/shardsmoke/merged.jsonl \
		> campaigns/shardsmoke/merged.out
	cmp campaigns/shardsmoke/single.out campaigns/shardsmoke/merged.out
	cmp campaigns/shardsmoke/single.jsonl campaigns/shardsmoke/merged.jsonl
	cmp campaigns/shardsmoke/single.metrics.json campaigns/shardsmoke/merged.metrics.json
	go run ./cmd/h2attack -table2 -trials 1 -metrics \
		-metrics-json campaigns/shardsmoke/single-sparse.metrics.json \
		-survey -corpus 2 > campaigns/shardsmoke/single-sparse.out
	sh scripts/shard.sh 3 campaigns/shardsmoke/sparse \
		-table2 -trials 1 -metrics \
		-metrics-json campaigns/shardsmoke/merged-sparse.metrics.json \
		-survey -corpus 2 > campaigns/shardsmoke/merged-sparse.out
	cmp campaigns/shardsmoke/single-sparse.out campaigns/shardsmoke/merged-sparse.out
	cmp campaigns/shardsmoke/single-sparse.metrics.json campaigns/shardsmoke/merged-sparse.metrics.json
	@echo "shard-smoke OK"

# Live-telemetry smoke: a race-built survey with -status on a random
# port, /metrics and /status scraped mid-run and checked for
# well-formed live values, then the campaign stdout + JSONL
# byte-compared against a telemetry-off reference at -j 1 and -j 8
# (scripts/telemetry_smoke.sh). Mirrors the CI telemetry-smoke job.
telemetry-smoke:
	sh scripts/telemetry_smoke.sh

# Regenerate the reference run recorded in experiments_output.txt
# (deterministic: identical at any -j; see EXPERIMENTS.md). Written to
# a temp file first so a failed run cannot truncate the golden file.
experiments:
	go run ./cmd/h2attack -all -trials 100 -seed 1 -progress > experiments_output.txt.tmp
	mv experiments_output.txt.tmp experiments_output.txt
