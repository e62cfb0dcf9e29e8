package experiment

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

// SweepDef is one fixed sweep as a shardable pipeline campaign: the
// trial grid (a pure function of the index), the metrics segment
// labels of its configuration axis, and the aggregation that renders
// the final table from the complete, index-ordered result set.
//
// The definition is what lets a sweep cross a process boundary.
// Because Params(i) is pure and Format consumes nothing but the
// results slice, any contiguous partition of [0, Trials) can run in
// separate processes, serialize its results as JSONL, and be
// concatenated back in index order — Format over the reassembled
// slice is byte-identical to a single-process run (internal/shard
// holds the manifest/merge machinery, cmd/h2attack the driver).
type SweepDef struct {
	// Name is the campaign name — the CLI flag name ("table1",
	// "fig5", ...), used in checkpoint files, shard manifests, and the
	// -metrics-json sweep key.
	Name string

	// Trials is the total campaign size across all configurations.
	Trials int

	// Segments labels the sweep's configuration axis for the metrics
	// registry.
	Segments []string

	// Params builds trial i's parameters (pure).
	Params func(i int) TrialParams

	// Format aggregates a complete result set (len == Trials, index
	// order) into the sweep's rendered table.
	Format func(results []TrialResult) string

	// fingerprint identifies the configuration for checkpoint/merge
	// validation (see grid).
	fingerprint string
}

// grid declares a sweep of trials page loads per configuration, one
// configuration per segment label: trial i runs configuration
// c = i/trials with seed seed0 + i%trials, and config(c) supplies
// everything else. The fingerprint recorded in shard manifests and
// checkpoints is derived here, from the name, so two runs agree on it
// exactly when they would produce identical trial streams.
func grid(name string, trials int, seed0 int64, segments []string,
	config func(c int) TrialParams, format func(results []TrialResult) string) SweepDef {
	return SweepDef{
		Name:     name,
		Trials:   len(segments) * trials,
		Segments: segments,
		Params: func(i int) TrialParams {
			p := config(i / trials)
			p.Seed = seed0 + int64(i%trials)
			p.ObsSegment = i / trials
			return p
		},
		Format:      format,
		fingerprint: fmt.Sprintf("sweep{name=%s trials=%d seed0=%d}", name, trials, seed0),
	}
}

// Fingerprint identifies the sweep's full configuration; shard merge
// refuses to combine bundles with differing fingerprints.
func (d SweepDef) Fingerprint() string { return d.fingerprint }

// generator adapts the definition to the pipeline's Generator stage.
func (d SweepDef) generator() pipeline.Fixed[TrialParams] {
	return pipeline.Fixed[TrialParams]{CampaignName: d.Name, N: d.Trials, Fn: d.Params, FP: d.fingerprint}
}

// Run executes the whole sweep in-process at the given worker count
// and metrics registry and returns the results in trial order; Format
// (or the sweep's row aggregator) consumes them. It is Collect with
// only Workers set.
func (d SweepDef) Run(opts ...Option) []TrialResult {
	var c sweepConfig
	for _, o := range opts {
		o(&c)
	}
	return d.Collect(pipeline.Config{Workers: c.workers}, c.metrics)
}

// Collect executes the whole sweep in-process under cfg, with its
// metrics in reg (nil for none), and returns the results in trial
// order. It panics unless every trial ran: no table may be formatted
// from part of a sweep, so cfg sets no Checkpoint, Start, End or
// MaxTrials, and a Stop that fires is a caller bug.
func (d SweepDef) Collect(cfg pipeline.Config, reg *obs.Registry) []TrialResult {
	collect := pipeline.NewCollector[TrialParams, TrialResult](d.Trials)
	sum, err := d.run(cfg, reg, collect)
	if err != nil {
		panic(err)
	}
	if sum.Exported != d.Trials {
		panic(fmt.Sprintf("experiment: sweep %s stopped after %d of %d trials", d.Name, sum.Exported, d.Trials))
	}
	return collect.Results()
}

// Sweeps returns the shardable definitions of the paper's six fixed
// sweeps at the given per-configuration trial count and base seed, in
// the CLI's flag order.
func Sweeps(trials int, seed0 int64) []SweepDef {
	return []SweepDef{
		tableIDef(trials, seed0),
		fig5Def(trials, seed0),
		dropDef(trials, seed0),
		tableIIDef(trials, seed0),
		delayDef(trials, seed0),
		defensesDef(trials, seed0),
	}
}

// ShardWriterBuf is the JSONL writer buffer for sweep shard bundles:
// TrialResult lines carry the full request log (~2.5 KB each), so
// shards batch ~100 lines per write.
const ShardWriterBuf = 1 << 18

// RunShard executes the [cfg.Start, cfg.End) slice of the sweep
// through the checkpointable pipeline, writing one JSON-marshalled
// TrialResult per trial as a line of jsonlPath. st, when non-nil,
// receives the slice's metrics and rides the checkpoint cycle so the
// snapshot covers the whole range across restarts. A merged shard set
// aggregates identically to Collect: both run the same sweep path.
func (d SweepDef) RunShard(cfg pipeline.Config, st *ObsState, jsonlPath string) (pipeline.Summary, error) {
	jsonl := pipeline.NewJSONL(jsonlPath, func(_ int, _ TrialParams, r TrialResult) (any, error) {
		return r, nil
	}).WithAppender(pipeline.AppendFunc[TrialParams, TrialResult](AppendTrialResultLine)).
		WithBufferSize(ShardWriterBuf)
	if st == nil {
		return d.run(cfg, nil, jsonl)
	}
	return d.run(cfg, st.Reg, jsonl, ObsStateExporter[TrialParams, TrialResult](st))
}

// run is the one execution path of every sweep: it labels reg's
// segments with the configuration axis and streams the trials through
// pipeline.Run to the exporters, on worlds that count into reg and
// cfg.Gauges. A trial that panics is exported as a broken trial
// (TrialResult{Broken: true}), so a single bad seed cannot kill a
// sweep; every aggregate already accounts broken trials.
func (d SweepDef) run(cfg pipeline.Config, reg *obs.Registry, exporters ...pipeline.Exporter[TrialParams, TrialResult]) (pipeline.Summary, error) {
	if reg != nil {
		reg.SetSegments(d.Segments...)
	}
	return pipeline.Run(cfg, d.generator(), worlds(reg, cfg.Gauges), brokenOnPanic, exporters...)
}

// brokenOnPanic runs one trial, converting a panic into a broken
// trial — the exported record must carry the verdict, not a zero
// value.
func brokenOnPanic(w *World, p TrialParams) (r TrialResult) {
	defer func() {
		if recover() != nil {
			r = TrialResult{Broken: true}
		}
	}()
	return w.RunTrial(p)
}
