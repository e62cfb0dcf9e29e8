package pipeline

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Progress is a snapshot of a running campaign, delivered to
// Config.OnProgress after each trial completes. Callbacks are
// serialized (never invoked concurrently).
type Progress struct {
	// Completed counts finished trials, including failed ones.
	Completed int
	// Failed counts trials that panicked.
	Failed int
	// Total is the number of trials this invocation executes.
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
	return fmt.Sprintf("pipeline: trial %d panicked: %v", e.Index, e.Value)
}

// minWindow is the smallest reorder ring. The ring holds
// max(minWindow, 4×workers) trials: execution runs at most that far
// ahead of the emit cursor, so memory stays bounded no matter how long
// the campaign is. The window never affects the emitted stream, only
// scheduling.
const minWindow = 64

// execute runs fn(state, i) for every i in [start, n) across
// cfg.Workers goroutines and delivers each result to emit in strict
// index order — the executor under Run. Of cfg it reads only the
// executor's knobs: Workers, Batch, OnProgress, Stop and Gauges. It
// never accumulates results: completed trials are parked in a
// fixed-size reorder ring until every earlier index has been emitted.
// Every worker count, -j 1 included, runs this one claim/deliver loop.
//
// emit runs serialized (never concurrently) and in index order. A
// trial that panicked is delivered with the zero value of T and a
// non-nil *TrialError; the remaining trials still run. emit's return
// value is the continuation signal: returning false stops the stream —
// no further trials are admitted, no further results are emitted, and
// in-flight trials are discarded (a resumed run will re-execute them;
// with index-derived seeds they reproduce exactly).
//
// newState builds one S per worker goroutine, and fn receives that
// worker's state alongside the trial index — how campaigns amortize
// expensive per-trial setup. The determinism contract: fn(state, i)
// must depend only on i, treating state purely as a reusable arena
// (re-initialized from the index-derived seed), never as a channel
// between trials. Which worker's state a trial sees depends on
// scheduling; any state leak shows up as worker-count-dependent
// output. Under that contract the emitted (index, result) stream is
// identical at every worker count and batch size.
func execute[S, T any](cfg Config, start, n int, newState func() S, fn func(state S, index int) T, emit func(index int, result T, err *TrialError) bool) {
	if n <= start {
		return
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n-start)
	ex := &executor[T]{
		next:       start,
		head:       start,
		n:          n,
		ring:       make([]slot[T], max(minWindow, 4*workers)),
		total:      n - start, // progress covers this invocation's trials
		began:      time.Now(),
		onProgress: cfg.OnProgress,
		gauges:     cfg.Gauges,
	}
	ex.cond = sync.NewCond(&ex.mu)
	g := cfg.Gauges
	g.Set(telemetry.GWorkers, int64(workers))
	g.Set(telemetry.GRingCapacity, int64(len(ex.ring)))
	// A claimed chunk must fit the ring, so the batch is clamped to it.
	batch := min(max(cfg.Batch, 1), len(ex.ring))

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			ws := newState()
			// buf is the worker's private completion buffer, reused
			// across chunks: the whole chunk runs without touching any
			// shared state, then deliver publishes it under one lock
			// acquisition — one coordination round per Batch trials
			// instead of one per trial.
			var buf []slot[T]
			for {
				start, count, ok := ex.claim(batch, cfg.Stop)
				if !ok {
					return
				}
				if cap(buf) < count {
					buf = make([]slot[T], count)
				}
				buf = buf[:count]
				g.Add(telemetry.GWorkersBusy, 1)
				for k := 0; k < count; k++ {
					buf[k] = runTrial(g != nil, start+k, ws, fn)
					if k+1 < count && ex.stopped.Load() {
						buf = buf[:k+1] // stream stopped; abandon the rest
						break
					}
				}
				g.Add(telemetry.GWorkersBusy, -1)
				if !ex.deliver(start, buf, emit) {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// slot is one completed trial: buffered worker-locally between
// execution and delivery, then parked in the reorder ring until its
// index reaches the emit cursor.
type slot[T any] struct {
	result  T
	err     *TrialError
	elapsed time.Duration
	done    bool
}

// executor is the shared bookkeeping of one execute call, all of it
// under mu: the claim and emit cursors, the reorder ring, and the
// completion counts behind Progress.
type executor[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	next   int // next index to hand to a worker
	head   int // next index to emit
	n      int
	parked int       // completed trials in the ring awaiting an earlier index
	ring   []slot[T] // reorder buffer, indexed by index % len(ring)

	// stopped is set once emit returns false. It is atomic so workers
	// can poll it between trials without taking the lock: a large
	// abandoned chunk stops burning CPU at once.
	stopped atomic.Bool

	completed, failed, total int
	began                    time.Time
	onProgress               func(Progress)
	gauges                   *telemetry.Gauges
}

// stopRequested polls a drain channel without blocking.
func stopRequested(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// claim hands the calling worker the next chunk of trial indices,
// blocking while the reorder window lacks room for the whole chunk.
// Chunk ends are aligned to absolute multiples of batch, so a campaign
// resumed mid-period re-aligns after one short chunk and every later
// claim covers exactly one period. Returns ok=false when the stream is
// exhausted or stopped, or when a drain was requested (already-claimed
// chunks still deliver — a waiter blocked on window room is woken by
// their delivery broadcasts and re-checks the drain before claiming).
func (ex *executor[T]) claim(batch int, stop <-chan struct{}) (start, count int, ok bool) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	for {
		if ex.stopped.Load() || ex.next >= ex.n || stopRequested(stop) {
			return 0, 0, false
		}
		want := min(batch-ex.next%batch, ex.n-ex.next)
		if ex.next+want <= ex.head+len(ex.ring) {
			start = ex.next
			ex.next += want
			ex.gauges.Add(telemetry.GClaims, 1)
			ex.gauges.Set(telemetry.GInFlight, int64(ex.next-ex.head))
			return start, want, true
		}
		ex.cond.Wait()
	}
}

// runTrial executes one trial, converting a panic into a TrialError
// and measuring its wall clock only when timed (the telemetry busy
// clock is live), so the default path pays nothing.
func runTrial[S, T any](timed bool, i int, ws S, fn func(S, int) T) (s slot[T]) {
	var started time.Time
	if timed {
		started = time.Now()
	}
	defer func() {
		if v := recover(); v != nil {
			buf := make([]byte, 64<<10)
			s.err = &TrialError{Index: i, Value: v, Stack: buf[:runtime.Stack(buf, false)]}
		}
		if timed {
			s.elapsed = time.Since(started)
		}
	}()
	s.result = fn(ws, i)
	return s
}

// deliver records a chunk of consecutive completed trials starting at
// index start, parks it in the ring and emits every contiguous
// completed index from the head of the window — one lock acquisition
// per chunk. The chunk always fits the ring: claim admitted it only
// when start+len(chunk) <= head+len(ring), and head only advances.
// Reports whether the stream is still running, so a worker knows to
// stop claiming.
func (ex *executor[T]) deliver(start int, chunk []slot[T], emit func(int, T, *TrialError) bool) bool {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	g := ex.gauges
	for k := range chunk {
		ex.completed++
		if chunk[k].err != nil {
			ex.failed++
		}
		g.Add(telemetry.GTrialsDone, 1)
		g.Add(telemetry.GBusyNanos, int64(chunk[k].elapsed))
		if ex.onProgress != nil {
			ex.onProgress(ex.progress())
		}
	}
	if ex.stopped.Load() {
		return false
	}
	for k := range chunk {
		// Hand the result's memory to the ring: the worker's reusable
		// buffer must not retain a second reference past delivery.
		parked := &ex.ring[(start+k)%len(ex.ring)]
		*parked, chunk[k] = chunk[k], slot[T]{}
		parked.done = true
	}
	ex.parked += len(chunk)
	for ex.head < ex.n {
		head := &ex.ring[ex.head%len(ex.ring)]
		if !head.done {
			break
		}
		result, err := head.result, head.err
		*head = slot[T]{}
		idx := ex.head
		ex.head++
		ex.parked--
		// emit runs under the lock: exporters see a serialized,
		// index-ordered stream without further synchronization.
		if !emit(idx, result, err) {
			ex.stopped.Store(true)
			break
		}
	}
	g.Set(telemetry.GRingParked, int64(ex.parked))
	g.Set(telemetry.GInFlight, int64(ex.next-ex.head))
	// Either the head advanced (windowed-out workers can claim again)
	// or the stream stopped (waiters must exit).
	ex.cond.Broadcast()
	return !ex.stopped.Load()
}

// progress builds the Progress snapshot for the current completion
// counts; the caller holds ex.mu.
func (ex *executor[T]) progress() Progress {
	p := Progress{
		Completed: ex.completed,
		Failed:    ex.failed,
		Total:     ex.total,
		Elapsed:   time.Since(ex.began),
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
