package runner

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// StreamOptions configures a StreamWith run. The embedded Options
// carry the worker count, the progress callback and the telemetry
// gauges.
type StreamOptions struct {
	Options

	// Start is the first trial index to execute; StreamWith runs
	// [Start, n). A checkpointed campaign resumes by setting Start to
	// the index after the last exported trial — because trials are
	// pure functions of their index, the emitted stream continues
	// exactly where the interrupted run left off.
	Start int

	// Window bounds how far trial execution may run ahead of the
	// emit cursor: at most Window trials are in flight or parked
	// waiting for an earlier index to complete, so memory stays
	// bounded no matter how long the campaign is. Zero or negative
	// selects max(64, 4*workers). The window never affects the
	// emitted stream, only scheduling.
	Window int

	// Batch is the number of consecutive trial indices a worker
	// claims at a time. Chunks are aligned: every claim is exactly
	// Batch indices (the final one may be the remainder), so a
	// campaign whose parameters repeat with period Batch — the
	// survey's SiteTrials repetitions of one site — keeps each
	// period on one worker, letting per-worker state (site cache,
	// primed size tables) amortize across it. Zero or negative
	// claims one index. Batching never affects the emitted stream,
	// only which worker runs which trial.
	Batch int

	// Stop, when non-nil, requests a graceful drain when it becomes
	// readable: workers claim no further chunks, every trial already
	// claimed completes and is emitted, then StreamWith returns. At
	// most workers×Batch trials execute after the signal. Draining —
	// rather than abandoning in-flight work the way an emit-side stop
	// does — means every executed trial reaches emit, so side effects
	// recorded during execution (per-worker metrics shards) exactly
	// match the emitted prefix.
	Stop <-chan struct{}
}

// stopRequested polls a drain channel without blocking.
func stopRequested(stop <-chan struct{}) bool {
	if stop == nil {
		return false
	}
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// windowFor resolves the admission window for a worker count.
func (o StreamOptions) windowFor(workers int) int {
	if o.Window > 0 {
		return o.Window
	}
	if w := 4 * workers; w > 64 {
		return w
	}
	return 64
}

// StreamWith executes fn(state, i) for every i in [opts.Start, n)
// across a worker pool and delivers each result to emit in strict
// index order — the streaming core under internal/pipeline. It never
// accumulates results: completed trials are parked
// in a fixed-size reorder ring (capacity opts.Window) until every
// earlier index has been emitted, so a million-trial campaign holds
// at most Window results in memory.
//
// emit runs serialized (never concurrently) and in index order. A
// trial that panicked is delivered with the zero value of T and a
// non-nil *TrialError. emit's return value is the continuation
// signal: returning false stops the stream — no further trials are
// admitted, no further results are emitted, and in-flight trials are
// discarded (a resumed run will re-execute them; with index-derived
// seeds they reproduce exactly).
//
// newState builds one S per worker goroutine (one total on the serial
// path), and fn receives that worker's state alongside the trial
// index — how campaigns amortize expensive per-trial setup. The
// determinism contract: fn(state, i) must depend only on i, treating
// state purely as a reusable arena (re-initialized from the
// index-derived seed), never as a channel between trials. Which
// worker's state a trial sees depends on scheduling; any state leak
// shows up as worker-count-dependent output. Under that contract the
// emitted (index, result) stream is identical at every worker count
// and every window size.
func StreamWith[S, T any](n int, opts StreamOptions, newState func() S, fn func(state S, index int) T, emit func(index int, result T, err *TrialError) bool) {
	if n <= opts.Start {
		return
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	remaining := n - opts.Start
	if workers > remaining {
		workers = remaining
	}
	// Progress covers this run's portion: a resumed campaign reports
	// completion and ETA over the trials it still has to execute.
	st := newRunState(remaining, opts.Options)

	g := opts.Gauges
	g.Set(telemetry.GWorkers, int64(workers))

	if workers == 1 {
		// Serial path: run and emit inline; the window is irrelevant
		// because results are emitted as they complete.
		ws := newState()
		for i := opts.Start; i < n; i++ {
			if stopRequested(opts.Stop) {
				return
			}
			g.Add(telemetry.GClaims, 1)
			g.Set(telemetry.GWorkersBusy, 1)
			result, failure, elapsed := runTimed(st, i, ws, fn)
			g.Set(telemetry.GWorkersBusy, 0)
			st.finishOne(failure, elapsed)
			if !emit(i, result, failure) {
				return
			}
		}
		return
	}

	sw := &streamState[T]{
		runState: st,
		next:     opts.Start,
		head:     opts.Start,
		n:        n,
		ring:     make([]streamSlot[T], opts.windowFor(workers)),
	}
	g.Set(telemetry.GRingCapacity, int64(len(sw.ring)))
	sw.cond = sync.NewCond(&sw.mu)
	batch := opts.Batch
	if batch < 1 {
		batch = 1
	}
	if batch > len(sw.ring) {
		batch = len(sw.ring)
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			ws := newState()
			// buf is the worker's private completion buffer, reused
			// across chunks: the whole chunk runs without touching any
			// shared state, then deliverChunk publishes it under one
			// lock acquisition — one coordination round per Batch
			// trials instead of one per trial.
			var buf []chunkResult[T]
			for {
				start, count, ok := sw.claim(batch, opts.Stop)
				if !ok {
					return
				}
				if cap(buf) < count {
					buf = make([]chunkResult[T], count)
				}
				buf = buf[:count]
				g.Add(telemetry.GWorkersBusy, 1)
				for k := 0; k < count; k++ {
					result, failure, elapsed := runTimed(st, start+k, ws, fn)
					buf[k] = chunkResult[T]{result: result, err: failure, elapsed: elapsed}
					if k+1 < count && sw.stopping.Load() {
						buf = buf[:k+1] // stream stopped; abandon the rest
						break
					}
				}
				g.Add(telemetry.GWorkersBusy, -1)
				if !sw.deliverChunk(start, buf, emit) {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// chunkResult is one completed trial buffered worker-locally between
// execution and chunk delivery.
type chunkResult[T any] struct {
	result  T
	err     *TrialError
	elapsed time.Duration
}

// streamSlot is one parked completion in the reorder ring.
type streamSlot[T any] struct {
	result T
	err    *TrialError
	done   bool
}

// streamState is the shared bookkeeping of one StreamWith run.
type streamState[T any] struct {
	runState *state
	mu       sync.Mutex
	cond     *sync.Cond
	next     int // next index to hand to a worker
	head     int // next index to emit
	n        int
	parked   int // completed trials in the ring awaiting an earlier index
	stopped  bool
	ring     []streamSlot[T] // reorder buffer, indexed by index % len(ring)

	// stopping mirrors stopped for lock-free mid-chunk polling:
	// workers check it between trials so a large abandoned chunk stops
	// burning CPU without taking the stream lock per trial.
	stopping atomic.Bool
}

// claim hands the calling worker the next chunk of trial indices,
// blocking while the reorder window lacks room for the whole chunk
// (so a claimed chunk always fits the ring — batch is pre-clamped to
// the ring size). Chunk ends are aligned to absolute multiples of
// batch, so a campaign resumed mid-period re-aligns after one short
// chunk and every later claim covers exactly one period. Returns
// ok=false when the stream is exhausted or stopped, or when a drain
// was requested (already-claimed chunks still deliver — a waiter
// blocked on window room is woken by their delivery broadcasts and
// re-checks the drain before claiming).
func (sw *streamState[T]) claim(batch int, stop <-chan struct{}) (start, count int, ok bool) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	for {
		if sw.stopped || sw.next >= sw.n || stopRequested(stop) {
			return 0, 0, false
		}
		want := batch - sw.next%batch
		if rem := sw.n - sw.next; rem < want {
			want = rem
		}
		if sw.next+want <= sw.head+len(sw.ring) {
			start = sw.next
			sw.next += want
			g := sw.runState.gauges
			g.Add(telemetry.GClaims, 1)
			g.Set(telemetry.GInFlight, int64(sw.next-sw.head))
			return start, want, true
		}
		sw.cond.Wait()
	}
}

// runTimed executes one trial with panic capture, measuring its wall
// clock only when a consumer asked for per-trial timing.
func runTimed[S, T any](st *state, i int, ws S, fn func(S, int) T) (result T, failure *TrialError, elapsed time.Duration) {
	if st.timed() {
		started := time.Now()
		failure = protect(i, &result, ws, fn)
		elapsed = time.Since(started)
		return result, failure, elapsed
	}
	failure = protect(i, &result, ws, fn)
	return result, failure, 0
}

// deliverChunk parks a chunk of consecutive completed trials starting
// at index start and emits every contiguous completed index from the
// head of the window — one stream-lock acquisition and one
// bookkeeping-lock acquisition per chunk, the batched aggregation
// that keeps dispatch overhead flat at high worker counts. The chunk
// always fits the ring: claim admitted it only when
// start+len(chunk) <= head+len(ring), and head only advances. Reports
// whether the stream is still running, so a worker knows to stop
// claiming.
func (sw *streamState[T]) deliverChunk(start int, chunk []chunkResult[T], emit func(int, T, *TrialError) bool) bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	st := sw.runState
	st.beginFinish()
	for k := range chunk {
		st.finishLocked(chunk[k].err, chunk[k].elapsed)
	}
	st.endFinish()
	if sw.stopped {
		return false
	}
	for k := range chunk {
		slot := &sw.ring[(start+k)%len(sw.ring)]
		slot.result, slot.err, slot.done = chunk[k].result, chunk[k].err, true
		// Hand the result's memory to the ring: the worker's reusable
		// buffer must not retain a second reference past delivery.
		chunk[k] = chunkResult[T]{}
	}
	sw.parked += len(chunk)
	for sw.head < sw.n {
		head := &sw.ring[sw.head%len(sw.ring)]
		if !head.done {
			break
		}
		result, err := head.result, head.err
		var zero streamSlot[T]
		*head = zero
		idx := sw.head
		sw.head++
		sw.parked--
		// emit runs under the lock: exporters see a serialized,
		// index-ordered stream without further synchronization.
		if !emit(idx, result, err) {
			sw.stopped = true
			sw.stopping.Store(true)
			break
		}
	}
	g := st.gauges
	g.Set(telemetry.GRingParked, int64(sw.parked))
	g.Set(telemetry.GInFlight, int64(sw.next-sw.head))
	// Either the head advanced (windowed-out workers can claim again)
	// or the stream stopped (waiters must exit).
	sw.cond.Broadcast()
	return !sw.stopped
}
