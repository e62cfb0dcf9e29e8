// Package runner executes batches of independent seeded trials
// across a worker pool while preserving the deterministic aggregate
// output of a serial run.
//
// Every campaign in this repository (Tables I/II, Figure 5, the §IV-A
// and §IV-D experiments, the §VII defence evaluation, the survey) is
// N independent single-threaded discrete-event simulations, each
// driven entirely by its trial index — a trivially parallel workload.
// StreamWith, which internal/pipeline runs every campaign through,
// fans the indices across Workers goroutines, each holding one
// reusable per-worker state, and emits the results in index order,
// so downstream aggregation visits trials in exactly the order a
// serial loop would and produces byte-identical tables at any worker
// count. Determinism therefore rests on one caller-side rule: a
// trial's behaviour must be a pure function of its index (derive the
// seed from the index, never from worker identity or shared state),
// with the worker state treated purely as a reusable arena.
//
// A panic inside one trial is captured with its stack and reported as
// a TrialError instead of killing the sweep; the remaining trials
// still run. Progress (completed count, elapsed, ETA) is reported
// through an optional callback.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Progress is a snapshot of a running batch, delivered to
// Options.OnProgress after each trial completes. Callbacks are
// serialized by the runner (never invoked concurrently).
type Progress struct {
	// Completed counts finished trials, including failed ones.
	Completed int
	// Failed counts trials that panicked.
	Failed int
	// Total is the batch size n.
	Total int
	// Elapsed is the wall-clock time since the run started.
	Elapsed time.Duration
	// Remaining estimates the wall-clock time left, extrapolating
	// from the mean per-trial cost so far (0 until one trial is done).
	Remaining time.Duration
	// TrialsPerSec is the wall throughput so far, Completed/Elapsed
	// (0 until the clock has advanced). This is the single source of
	// the campaign rate: the -progress ETA line and the telemetry
	// /status endpoint both report this field, so they can never
	// disagree. Wall-clock derived and therefore non-deterministic —
	// like Elapsed/Remaining it must stay out of exported bytes.
	TrialsPerSec float64
}

// Options configures a StreamWith run.
type Options struct {
	// Workers is the number of concurrent trial executors. Zero or
	// negative means runtime.GOMAXPROCS(0). Workers == 1 runs the
	// trials inline on the calling goroutine (the serial path).
	Workers int

	// OnProgress, when non-nil, is invoked after every trial
	// completion with a consistent snapshot. It runs on a worker
	// goroutine under the runner's lock; keep it cheap.
	OnProgress func(Progress)

	// Gauges, when non-nil, receives live health samples: worker-pool
	// size and busy count, cumulative trials/claims/busy-nanoseconds,
	// and reorder-ring occupancy (in-flight and parked trials). The
	// runner only writes gauges — they are sampled by the telemetry
	// status server and never read back, so they cannot influence the
	// emitted stream. Nil (the default) disables the plane at zero
	// cost; setting it enables per-trial wall timing (the busy clock).
	Gauges *telemetry.Gauges
}

// TrialError reports a trial that panicked.
type TrialError struct {
	// Index is the trial whose function panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements error.
func (e *TrialError) Error() string {
	return fmt.Sprintf("runner: trial %d panicked: %v", e.Index, e.Value)
}

// defaultWorkers resolves the Workers zero value.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// state is the mutable completion bookkeeping shared by the workers
// of one StreamWith: completion counts and the progress callback,
// serialized under one lock.
type state struct {
	mu         sync.Mutex
	completed  int
	failed     int
	total      int
	start      time.Time
	onProgress func(Progress)
	gauges     *telemetry.Gauges
}

// newRunState builds the completion bookkeeping for a batch of total
// trials.
func newRunState(total int, opts Options) *state {
	return &state{total: total, start: time.Now(), onProgress: opts.OnProgress, gauges: opts.Gauges}
}

// timed reports whether trials must be wall-clock timed (only when
// the telemetry busy-clock gauge is live, so the default path pays
// nothing).
func (st *state) timed() bool { return st.gauges != nil }

// finishOne records one trial completion and fires the progress
// callback, serialized under the state lock.
func (st *state) finishOne(failure *TrialError, elapsed time.Duration) {
	st.mu.Lock()
	st.finishLocked(failure, elapsed)
	st.mu.Unlock()
}

// beginFinish/endFinish bracket a run of finishLocked calls so a
// worker delivering a whole chunk pays one lock acquisition for the
// chunk's completion bookkeeping instead of one per trial.
func (st *state) beginFinish() { st.mu.Lock() }
func (st *state) endFinish()   { st.mu.Unlock() }

// finishLocked is finishOne's body; the caller holds st.mu. The
// progress callback still fires once per trial.
func (st *state) finishLocked(failure *TrialError, elapsed time.Duration) {
	st.completed++
	if failure != nil {
		st.failed++
	}
	st.gauges.Add(telemetry.GTrialsDone, 1)
	st.gauges.Add(telemetry.GBusyNanos, int64(elapsed))
	if st.onProgress != nil {
		st.onProgress(st.progressLocked())
	}
}

// progressLocked builds the Progress snapshot for the current
// completion counts; the caller holds st.mu.
func (st *state) progressLocked() Progress {
	p := Progress{
		Completed: st.completed,
		Failed:    st.failed,
		Total:     st.total,
		Elapsed:   time.Since(st.start),
	}
	if p.Completed > 0 && p.Completed < p.Total {
		perTrial := p.Elapsed / time.Duration(p.Completed)
		p.Remaining = perTrial * time.Duration(p.Total-p.Completed)
	}
	if p.Completed > 0 && p.Elapsed > 0 {
		p.TrialsPerSec = float64(p.Completed) / p.Elapsed.Seconds()
	}
	return p
}

// protect runs one trial and converts a panic into a TrialError.
func protect[S, T any](i int, out *T, ws S, fn func(S, int) T) (failure *TrialError) {
	defer func() {
		if v := recover(); v != nil {
			buf := make([]byte, 64<<10)
			failure = &TrialError{Index: i, Value: v, Stack: buf[:runtime.Stack(buf, false)]}
		}
	}()
	*out = fn(ws, i)
	return nil
}
