package pipeline

import (
	"encoding/json"
	"fmt"

	"repro/internal/telemetry"
)

// Meta is the campaign metadata handed to every exporter at Begin.
type Meta struct {
	// Name is the campaign name.
	Name string

	// Trials is the total campaign size.
	Trials int

	// Start is the first index this invocation will export (non-zero
	// on resume).
	Start int

	// Resumed reports whether exporter state was restored from a
	// checkpoint before Begin.
	Resumed bool

	// Gauges is the campaign's live telemetry block (nil when the
	// plane is off). Exporters that write files publish their byte
	// cursor through it (e.g. JSONL sets GExportBytes); write-only —
	// nothing an exporter emits may depend on a gauge value.
	Gauges *telemetry.Gauges
}

// Exporter consumes the pipeline's ordered result stream. It is the
// pluggable output stage: implementations accumulate tables, append
// JSONL lines, or feed metrics registries.
//
// The call sequence per invocation is Restore? → Begin → Export* →
// Close, with Checkpoint interleaved between Export calls. Export is
// invoked serialized, in strict trial-index order, so output derived
// from the stream is deterministic at any worker count.
//
// Checkpoint/Restore carry the exporter's state across process
// restarts as one JSON value. Restore must rewind the exporter's sink
// to exactly that state — an exporter writing to a file truncates
// back to the checkpointed offset — so a resumed campaign appends
// bytes identical to an uninterrupted run. Exporters with no
// meaningful state return a nil checkpoint and accept one.
type Exporter[P, R any] interface {
	// Name identifies the exporter instance inside a checkpoint file;
	// it must be stable across runs and unique within a campaign.
	Name() string

	// Begin starts one invocation.
	Begin(m Meta) error

	// Export consumes trial i. Calls arrive in index order.
	Export(i int, p P, r R) error

	// Checkpoint serializes the exporter's state after the most
	// recent Export as one JSON value (nil means stateless).
	Checkpoint() (json.RawMessage, error)

	// Restore rewinds the exporter to a state previously returned by
	// Checkpoint. Called at most once, before Begin.
	Restore(state json.RawMessage) error

	// Close ends the invocation. done is false when the campaign was
	// stopped for later resume — an exporter that renders a final
	// artifact (a summary table) should do so only when done.
	Close(done bool) error
}

// Collector is the in-memory exporter behind the fixed sweeps: it
// appends every result to a slice, preserving the exact semantics the
// sweeps had when they accumulated results themselves. It is the one
// exporter that is deliberately not bounded-memory, and it refuses to
// resume (a collector that missed earlier trials would silently
// aggregate a partial campaign).
type Collector[P, R any] struct {
	results []R
}

// NewCollector pre-sizes a collector for n results.
func NewCollector[P, R any](n int) *Collector[P, R] {
	return &Collector[P, R]{results: make([]R, 0, n)}
}

// Name implements Exporter.
func (c *Collector[P, R]) Name() string { return "collect" }

// Begin implements Exporter. The backing slice is pre-sized to the
// campaign's trial count so million-trial collects append without
// regrowth.
func (c *Collector[P, R]) Begin(m Meta) error {
	if m.Start != 0 {
		return fmt.Errorf("pipeline: Collector cannot resume mid-campaign (start %d)", m.Start)
	}
	if cap(c.results) < m.Trials {
		grown := make([]R, len(c.results), m.Trials)
		copy(grown, c.results)
		c.results = grown
	}
	return nil
}

// Export implements Exporter.
func (c *Collector[P, R]) Export(i int, p P, r R) error {
	c.results = append(c.results, r)
	return nil
}

// Checkpoint implements Exporter.
func (c *Collector[P, R]) Checkpoint() (json.RawMessage, error) {
	return nil, fmt.Errorf("pipeline: Collector does not checkpoint")
}

// Restore implements Exporter.
func (c *Collector[P, R]) Restore(json.RawMessage) error {
	return fmt.Errorf("pipeline: Collector does not restore")
}

// Close implements Exporter.
func (c *Collector[P, R]) Close(bool) error { return nil }

// Results returns the collected results in trial order.
func (c *Collector[P, R]) Results() []R { return c.results }

// Funcs adapts plain functions into an Exporter, the smallest way to
// plug custom output into a campaign (see the README's custom
// exporter example). Nil fields are no-ops; a nil OnCheckpoint makes
// the exporter stateless (checkpoints as null, restores anything).
type Funcs[P, R any] struct {
	// ExporterName is the Name() value; required when checkpointing.
	ExporterName string

	OnBegin      func(m Meta) error
	OnExport     func(i int, p P, r R) error
	OnCheckpoint func() (json.RawMessage, error)
	OnRestore    func(state json.RawMessage) error
	OnClose      func(done bool) error
}

// Name implements Exporter.
func (f Funcs[P, R]) Name() string { return f.ExporterName }

// Begin implements Exporter.
func (f Funcs[P, R]) Begin(m Meta) error {
	if f.OnBegin == nil {
		return nil
	}
	return f.OnBegin(m)
}

// Export implements Exporter.
func (f Funcs[P, R]) Export(i int, p P, r R) error {
	if f.OnExport == nil {
		return nil
	}
	return f.OnExport(i, p, r)
}

// Checkpoint implements Exporter.
func (f Funcs[P, R]) Checkpoint() (json.RawMessage, error) {
	if f.OnCheckpoint == nil {
		return nil, nil
	}
	return f.OnCheckpoint()
}

// Restore implements Exporter.
func (f Funcs[P, R]) Restore(state json.RawMessage) error {
	if f.OnRestore == nil {
		return nil
	}
	return f.OnRestore(state)
}

// Close implements Exporter.
func (f Funcs[P, R]) Close(done bool) error {
	if f.OnClose == nil {
		return nil
	}
	return f.OnClose(done)
}
