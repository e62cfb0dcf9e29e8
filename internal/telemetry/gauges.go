// Package telemetry is the wall-clock-side live observability plane
// of the attack stack: lock-free sampled gauges threaded through the
// campaign pipeline (its worker pool and exporters) and the shard
// driver, an HTTP status server exposing them while a campaign is in
// flight (/metrics Prometheus text, /status JSON, /events
// flight-recorder views), and a Perfetto/Chrome trace_event converter
// that renders one trial's flight-recorder ring as a per-layer
// timeline.
//
// The design constraint is the inverse of internal/obs: obs is the
// deterministic side (sim-domain counters whose snapshots must be
// byte-identical at any worker count), telemetry is the wall side —
// everything here is sampled, racy-by-design reads of atomic cells,
// and nothing it observes may ever feed back into exported bytes.
// The golden sweeps, survey JSONL, and shard bundles are
// byte-identical with the plane on or off; the CI telemetry smoke
// pins that.
//
// Zero cost when disabled is the other contract, shared with
// obs.Sink: every instrumented layer holds a *Gauges that is nil by
// default, and every method on a nil *Gauges is a nil-check and a
// return — no allocation, no atomic traffic. When enabled, updates
// are single atomic operations on preallocated cells; still
// allocation-free (pinned by TestGaugesZeroAlloc).
package telemetry

import "sync/atomic"

// GaugeID enumerates every live gauge in the plane. The value is an
// array index into the Gauges cell block; gaugeInfos below is the
// export schema. Gauges are grouped by the layer that updates them.
type GaugeID uint8

const (
	// trial executor (internal/pipeline's worker pool): worker-pool
	// and reorder-ring occupancy, exported under the runner_ prefix.
	GWorkers      GaugeID = iota // worker goroutines in the pool
	GWorkersBusy                 // workers currently executing a trial chunk
	GBusyNanos                   // cumulative wall nanoseconds spent inside trial functions
	GTrialsDone                  // cumulative trials completed (including failed)
	GClaims                      // cumulative chunk claims handed to workers
	GInFlight                    // trials claimed but not yet emitted
	GRingCapacity                // reorder ring capacity (the admission window)
	GRingParked                  // completed trials parked in the ring awaiting an earlier index

	// pipeline (internal/pipeline): export cursors and checkpoint lag.
	GExportBytes    // cumulative bytes handed to the results writer
	GExportedTrials // trials exported so far (campaign index)
	GCkptTrials     // campaign index recorded by the last checkpoint
	GCkptBytes      // GExportBytes at the last checkpoint

	// shard (cmd/h2attack -shard): this process's slice of the
	// campaign.
	GShardIndex // 1-based shard index
	GShardCount // total shard count
	GRangeStart // first trial index of this shard's range
	GRangeEnd   // one past the last trial index of this shard's range
	GRangeDone  // trials completed in the range by this invocation

	// experiment (the trial worlds): simulator events dispatched, by
	// kind (sim.EventCounts), added once per trial.
	GSimEventsFunc       // cumulative At/After callbacks
	GSimEventsArg        // cumulative AfterArg callbacks
	GSimEventsTimerLive  // cumulative timer firings that ran
	GSimEventsTimerStale // cumulative superseded timer keys that popped

	gaugeCount // number of gauges; must stay last
)

// GaugeCount is the number of gauges in the schema (the length of a
// Snapshot).
const GaugeCount = int(gaugeCount)

// gaugeInfo is one gauge's export schema row: the Prometheus metric
// name (the "h2attack_" prefix is added at render time) and its HELP
// string.
type gaugeInfo struct {
	name string
	help string
}

// gaugeInfos is the export schema, one row per GaugeID in declaration
// order.
var gaugeInfos = [gaugeCount]gaugeInfo{
	GWorkers:      {"runner_workers", "Worker goroutines in the trial pool."},
	GWorkersBusy:  {"runner_workers_busy", "Workers currently executing a trial chunk."},
	GBusyNanos:    {"runner_busy_nanos_total", "Cumulative wall nanoseconds spent inside trial functions."},
	GTrialsDone:   {"runner_trials_done_total", "Trials completed, including failed ones."},
	GClaims:       {"runner_chunk_claims_total", "Chunk claims handed to workers."},
	GInFlight:     {"runner_inflight_trials", "Trials claimed but not yet emitted."},
	GRingCapacity: {"runner_reorder_ring_capacity", "Reorder ring capacity (admission window)."},
	GRingParked:   {"runner_reorder_ring_parked", "Completed trials parked awaiting an earlier index."},

	GExportBytes:    {"pipeline_export_bytes", "Bytes handed to the results writer."},
	GExportedTrials: {"pipeline_exported_trials", "Trials exported so far (campaign index)."},
	GCkptTrials:     {"pipeline_checkpoint_trials", "Campaign index recorded by the last checkpoint."},
	GCkptBytes:      {"pipeline_checkpoint_bytes", "Export bytes recorded by the last checkpoint."},

	GShardIndex: {"shard_index", "This process's 1-based shard index."},
	GShardCount: {"shard_count", "Total shard count of the fan-out."},
	GRangeStart: {"shard_range_start", "First trial index of this shard's range."},
	GRangeEnd:   {"shard_range_end", "One past the last trial index of this shard's range."},
	GRangeDone:  {"shard_range_done", "Trials completed in the range by this invocation."},

	GSimEventsFunc:       {"sim_events_func_total", "Simulator At/After callbacks dispatched."},
	GSimEventsArg:        {"sim_events_arg_total", "Simulator AfterArg callbacks dispatched."},
	GSimEventsTimerLive:  {"sim_events_timer_live_total", "Simulator timer firings that ran their callback."},
	GSimEventsTimerStale: {"sim_events_timer_stale_total", "Simulator timer keys that popped superseded by a later Reset or Stop."},
}

// Name returns the gauge's Prometheus metric name (without the
// "h2attack_" prefix).
func (g GaugeID) Name() string {
	if g < gaugeCount {
		return gaugeInfos[g].name
	}
	return "gauge(?)"
}

// Help returns the gauge's HELP string.
func (g GaugeID) Help() string {
	if g < gaugeCount {
		return gaugeInfos[g].help
	}
	return ""
}

// Gauges is the live gauge block: one atomic cell per GaugeID,
// preallocated, updated lock-free from the pipeline's worker-pool and
// export hot paths and sampled racily by the status server. A nil *Gauges is
// the disabled plane — every method nil-checks and returns, so
// instrumented layers call unconditionally (the obs.Sink contract).
//
// Updates are plain atomic stores/adds with no cross-cell
// consistency: a /metrics scrape may observe one cell mid-batch
// relative to another. That is fine — the plane reports load, not
// ledger truth; the deterministic ledgers live in internal/obs.
type Gauges struct {
	cells [gaugeCount]atomic.Int64
}

// Set stores v into the gauge.
func (g *Gauges) Set(id GaugeID, v int64) {
	if g != nil {
		g.cells[id].Store(v)
	}
}

// Add adds delta to the gauge.
func (g *Gauges) Add(id GaugeID, delta int64) {
	if g != nil {
		g.cells[id].Add(delta)
	}
}

// Load returns the gauge's current value (0 when disabled).
func (g *Gauges) Load(id GaugeID) int64 {
	if g == nil {
		return 0
	}
	return g.cells[id].Load()
}

// Snapshot copies every cell into a plain array — the sampled view
// the status server renders. Cells are read individually (no global
// consistency), which is the plane's documented semantics.
func (g *Gauges) Snapshot() [GaugeCount]int64 {
	var out [GaugeCount]int64
	if g == nil {
		return out
	}
	for i := range out {
		out[i] = g.cells[i].Load()
	}
	return out
}
