package experiment

import (
	"fmt"

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

// Run executes the whole sweep in-process and returns the results in
// trial order; Format (or the sweep's row aggregator) consumes them.
func (d SweepDef) Run(opts ...Option) []TrialResult {
	setSegments(opts, d.Segments...)
	return runTrials(d.Trials, opts, d.Params)
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
// receives the slice's metrics (segment labels set here) and rides the
// checkpoint cycle so the snapshot covers the whole range across
// restarts. A trial that panics is recorded as
// TrialResult{Broken: true}, matching what runTrials feeds the
// in-process aggregators, so a merged shard set aggregates
// identically to a single-process run.
func (d SweepDef) RunShard(cfg pipeline.Config, st *ObsState, jsonlPath string) (pipeline.Summary, error) {
	newState := NewWorld
	jsonl := pipeline.NewJSONL(jsonlPath, func(_ int, _ TrialParams, r TrialResult) (any, error) {
		return r, nil
	}).WithAppender(pipeline.AppendFunc[TrialParams, TrialResult](AppendTrialResultLine)).
		WithBufferSize(ShardWriterBuf)
	exporters := []pipeline.Exporter[TrialParams, TrialResult]{jsonl}
	if st != nil {
		reg := st.Reg
		reg.SetSegments(d.Segments...)
		newState = func() *World {
			w := NewWorld()
			w.SetMetrics(reg.NewShard())
			return w
		}
		exporters = append(exporters, ObsStateExporter[TrialParams, TrialResult](st))
	}
	return pipeline.Run(cfg, d.generator(), newState, brokenOnPanic, exporters...)
}

// brokenOnPanic runs one trial, converting a panic into the broken
// trial runTrials would aggregate — the exported record must carry
// the verdict, not a zero value.
func brokenOnPanic(w *World, p TrialParams) (r TrialResult) {
	defer func() {
		if recover() != nil {
			r = TrialResult{Broken: true}
		}
	}()
	return w.RunTrial(p)
}
