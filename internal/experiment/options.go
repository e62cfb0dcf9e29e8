package experiment

import (
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
)

// Option configures how a sweep executes its trials. Options affect
// scheduling and observation only — the rows a sweep returns are
// identical at every worker count, because each trial is a pure
// function of its index (see internal/pipeline).
type Option func(*sweepConfig)

type sweepConfig struct {
	workers    int
	onProgress func(pipeline.Progress)
	metrics    *obs.Registry
	gauges     *telemetry.Gauges
}

// parse folds the option list into a config.
func parseOpts(opts []Option) sweepConfig {
	var cfg sweepConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Workers sets the number of worker goroutines executing a sweep's
// trials. Zero or negative selects runtime.GOMAXPROCS(0) (the
// default); 1 runs the trials one at a time on a single worker.
// Every count runs the same pipeline executor and returns the same
// rows.
func Workers(n int) Option {
	return func(c *sweepConfig) { c.workers = n }
}

// OnProgress installs a progress callback, invoked (serialized) after
// every trial completes across the whole sweep — all configurations
// of a table share one progress stream, so Remaining estimates the
// full sweep.
func OnProgress(f func(pipeline.Progress)) Option {
	return func(c *sweepConfig) { c.onProgress = f }
}

// Metrics collects the sweep's cross-layer metrics into reg: each
// worker gets one shard (merged by reg.Snapshot at the caller's
// leisure) and the sweep labels reg's segments with its configuration
// axis. Use a fresh Registry per sweep; the snapshot is
// byte-identical at any worker count.
func Metrics(reg *obs.Registry) Option {
	return func(c *sweepConfig) { c.metrics = reg }
}

// Telemetry publishes the sweep's live health samples (worker pool,
// in-flight trials, reorder-ring occupancy, simulator events by kind)
// into g for the status server to scrape. Wall-side only: unlike
// Metrics, nothing fed through g can reach the sweep's output — the
// rows and every deterministic aggregate are byte-identical with or
// without it.
func Telemetry(g *telemetry.Gauges) Option {
	return func(c *sweepConfig) { c.gauges = g }
}

// setSegments labels the supplied registry's segments with the
// sweep's configuration axis (a no-op when the sweep runs without
// Metrics). Sweeps call it before their first trial so that each
// configuration's counters land in a separable, labelled segment.
func setSegments(opts []Option, labels ...string) {
	if cfg := parseOpts(opts); cfg.metrics != nil {
		cfg.metrics.SetSegments(labels...)
	}
}

// runTrials executes n trials through the streaming pipeline,
// building the i-th trial's parameters with mk(i), and returns the
// results in trial order. The fixed sweeps are pipeline campaigns: a
// Fixed generator over the configuration grid, the shared worker pool
// (each worker keeps one reusable World, reset per trial), and a
// Collector exporter — the same execution path survey campaigns use,
// minus checkpointing, which in-memory sweeps have no use for. A
// trial that panics is reported as a broken trial
// (TrialResult{Broken: true}) so a single bad seed cannot kill a
// sweep; every aggregate already accounts broken trials.
func runTrials(n int, opts []Option, mk func(i int) TrialParams) []TrialResult {
	cfg := parseOpts(opts)
	newState := func() *World {
		w := NewWorld()
		w.gauges = cfg.gauges
		if cfg.metrics != nil {
			// Each worker counts into its own shard; no per-trial
			// registry lock on the dispatch path.
			w.SetMetrics(cfg.metrics.NewShard())
		}
		return w
	}
	collect := pipeline.NewCollector[TrialParams, TrialResult](n)
	sum, err := pipeline.Run(pipeline.Config{
		Workers:    cfg.workers,
		OnProgress: cfg.onProgress,
		Gauges:     cfg.gauges,
	}, pipeline.Fixed[TrialParams]{CampaignName: "sweep", N: n, Fn: mk},
		newState, (*World).RunTrial, collect)
	if err != nil {
		// No checkpointing and an infallible exporter: a failure here
		// is a harness bug, not a runtime condition.
		panic(err)
	}
	results := collect.Results()
	for _, f := range sum.Failures {
		results[f.Index] = TrialResult{Broken: true}
	}
	return results
}
