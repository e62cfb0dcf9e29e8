package experiment

import (
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// Option configures SweepDef.Run. Options affect scheduling and
// observation only — the rows a sweep returns are identical at every
// worker count, because each trial is a pure function of its index
// (see internal/pipeline). SweepDef.Collect takes the full
// pipeline.Config instead.
type Option func(*sweepConfig)

type sweepConfig struct {
	workers int
	metrics *obs.Registry
}

// Workers sets the number of worker goroutines executing a sweep's
// trials. Zero or negative selects runtime.GOMAXPROCS(0) (the
// default); 1 runs the trials one at a time on a single worker.
// Every count runs the same pipeline executor and returns the same
// rows.
func Workers(n int) Option {
	return func(c *sweepConfig) { c.workers = n }
}

// Metrics collects the sweep's cross-layer metrics into reg: each
// worker gets one shard (merged by reg.Snapshot at the caller's
// leisure) and the sweep labels reg's segments with its configuration
// axis. Use a fresh Registry per sweep; the snapshot is
// byte-identical at any worker count.
func Metrics(reg *obs.Registry) Option {
	return func(c *sweepConfig) { c.metrics = reg }
}

// worlds returns the worker-state factory of every campaign: each
// call builds one reusable World that counts its metrics into its own
// shard of reg (no per-trial registry lock on the dispatch path) and
// adds its simulator events to the live gauges g. Either may be nil.
func worlds(reg *obs.Registry, g *telemetry.Gauges) func() *World {
	return func() *World {
		w := NewWorld()
		w.gauges = g
		if reg != nil {
			w.SetMetrics(reg.NewShard())
		}
		return w
	}
}
