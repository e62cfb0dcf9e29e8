package experiment

import (
	"encoding/json"
	"fmt"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

// ObsState is a metrics registry whose accumulated snapshot survives
// checkpointed process restarts. A live obs.Registry only covers the
// current process; a campaign that is interrupted and resumed would
// otherwise report metrics missing every pre-restart trial, and a
// merged shard set would no longer match a single-process run.
// ObsState checkpoints the combined snapshot (restored base ⊕ live
// registry) alongside the campaign's other exporter state, so a
// survey's -metrics and obs= export and a shard bundle's snapshot
// cover the whole campaign or range no matter how many times the
// process restarted.
type ObsState struct {
	// Reg is the live registry: point worker shards
	// (Registry.NewShard) and segment labels at it as usual.
	Reg *obs.Registry

	// base is the snapshot restored from a checkpoint — the trials
	// run by previous incarnations of this shard.
	base *obs.Snapshot
}

// NewObsState builds an ObsState around a fresh registry.
func NewObsState() *ObsState { return &ObsState{Reg: obs.NewRegistry()} }

// Snapshot returns the shard-range snapshot: the live registry's
// snapshot merged onto the checkpoint-restored base (if any). Safe to
// call repeatedly; neither side is mutated.
func (o *ObsState) Snapshot() (*obs.Snapshot, error) {
	live := o.Reg.Snapshot()
	if o.base == nil {
		return live, nil
	}
	// Clone the base through its wire form so repeated snapshots do
	// not accumulate into it.
	data, err := json.Marshal(o.base)
	if err != nil {
		return nil, fmt.Errorf("experiment: obs state: %w", err)
	}
	merged := &obs.Snapshot{}
	if err := json.Unmarshal(data, merged); err != nil {
		return nil, fmt.Errorf("experiment: obs state: %w", err)
	}
	if err := merged.Merge(live); err != nil {
		return nil, fmt.Errorf("experiment: obs state: %w", err)
	}
	return merged, nil
}

// checkpoint serializes the combined snapshot.
func (o *ObsState) checkpoint() (json.RawMessage, error) {
	snap, err := o.Snapshot()
	if err != nil {
		return nil, err
	}
	return json.Marshal(snap)
}

// restore loads a previous incarnation's combined snapshot as the new
// base.
func (o *ObsState) restore(state json.RawMessage) error {
	base := &obs.Snapshot{}
	if err := json.Unmarshal(state, base); err != nil {
		return fmt.Errorf("experiment: obs state: %w", err)
	}
	o.base = base
	return nil
}

// ObsStateExporter adapts an ObsState to one campaign's exporter
// slot: it exports nothing per trial, only rides the pipeline's
// checkpoint cycle. The type parameters bind it to the campaign's
// (params, result) types.
func ObsStateExporter[P, R any](o *ObsState) pipeline.Exporter[P, R] {
	return pipeline.Funcs[P, R]{
		ExporterName: "obs-state",
		OnCheckpoint: o.checkpoint,
		OnRestore:    o.restore,
	}
}
