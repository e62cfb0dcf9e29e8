package pipeline

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// executeAll runs fn over [0, n) through execute and gathers the
// emitted results into an index-ordered slice (nil when n <= 0) plus
// the failures in emit order — how a caller that wants every result
// uses the streaming executor.
func executeAll[T any](n int, cfg Config, fn func(index int) T) ([]T, []*TrialError) {
	var results []T
	if n > 0 {
		results = make([]T, n)
	}
	var failures []*TrialError
	execute(cfg, 0, n,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) T { return fn(i) },
		func(i int, r T, err *TrialError) bool {
			results[i] = r
			if err != nil {
				failures = append(failures, err)
			}
			return true
		})
	return results, failures
}

// seededTrial is a stand-in for a seeded simulation: an expensive-ish
// pure function of the trial index alone.
func seededTrial(i int) int64 {
	rng := rand.New(rand.NewSource(int64(i)))
	var sum int64
	for k := 0; k < 1000; k++ {
		sum += rng.Int63n(1 << 30)
	}
	return sum
}

func TestSerialAndParallelIdentical(t *testing.T) {
	const n = 200
	serial, errs1 := executeAll(n, Config{Workers: 1}, seededTrial)
	if errs1 != nil {
		t.Fatalf("serial run failed: %v", errs1)
	}
	for _, workers := range []int{2, 8, 17} {
		par, errs := executeAll(n, Config{Workers: workers}, seededTrial)
		if errs != nil {
			t.Fatalf("workers=%d run failed: %v", workers, errs)
		}
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(par), len(serial))
		}
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d: result[%d] = %d, want %d (index-order collection broken)",
					workers, i, par[i], serial[i])
			}
		}
	}
}

func TestPanicIsolatedToOneTrial(t *testing.T) {
	const n = 50
	for _, workers := range []int{1, 8} {
		results, errs := executeAll(n, Config{Workers: workers}, func(i int) int {
			if i == 17 {
				panic("trial 17 exploded")
			}
			return i * 2
		})
		if len(errs) != 1 {
			t.Fatalf("workers=%d: %d failures, want exactly 1", workers, len(errs))
		}
		e := errs[0]
		if e.Index != 17 {
			t.Errorf("workers=%d: failed index %d, want 17", workers, e.Index)
		}
		if want := "trial 17 exploded"; e.Value != want {
			t.Errorf("workers=%d: panic value %v, want %q", workers, e.Value, want)
		}
		if len(e.Stack) == 0 {
			t.Errorf("workers=%d: no stack captured", workers)
		}
		if want := "pipeline: trial 17 panicked: trial 17 exploded"; e.Error() != want {
			t.Errorf("workers=%d: Error() = %q, want %q", workers, e.Error(), want)
		}
		// Every other trial still ran; the failed slot holds the zero value.
		for i, r := range results {
			switch {
			case i == 17 && r != 0:
				t.Errorf("workers=%d: failed trial slot = %d, want zero value", workers, r)
			case i != 17 && r != i*2:
				t.Errorf("workers=%d: result[%d] = %d, want %d", workers, i, r, i*2)
			}
		}
	}
}

func TestFailuresSortedByIndex(t *testing.T) {
	_, errs := executeAll(100, Config{Workers: 8}, func(i int) int {
		if i%7 == 0 {
			panic(i)
		}
		return i
	})
	if len(errs) != 15 {
		t.Fatalf("%d failures, want 15", len(errs))
	}
	for k := 1; k < len(errs); k++ {
		if errs[k-1].Index >= errs[k].Index {
			t.Fatalf("failures not index-ordered: %d before %d", errs[k-1].Index, errs[k].Index)
		}
	}
}

func TestZeroAndNegativeTrials(t *testing.T) {
	for _, n := range []int{0, -3} {
		results, errs := executeAll(n, Config{Workers: 8}, func(i int) int {
			t.Errorf("trial fn called for n=%d", n)
			return 0
		})
		if results != nil || errs != nil {
			t.Errorf("n=%d: got (%v, %v), want (nil, nil)", n, results, errs)
		}
	}
}

func TestSingleTrial(t *testing.T) {
	results, errs := executeAll(1, Config{Workers: 8}, func(i int) int { return 41 + i })
	if errs != nil {
		t.Fatalf("unexpected failures: %v", errs)
	}
	if len(results) != 1 || results[0] != 41 {
		t.Fatalf("results = %v, want [41]", results)
	}
}

func TestDefaultWorkerCount(t *testing.T) {
	// Workers <= 0 must still run everything exactly once.
	var calls atomic.Int64
	results, errs := executeAll(100, Config{}, func(i int) int {
		calls.Add(1)
		return i
	})
	if errs != nil {
		t.Fatalf("unexpected failures: %v", errs)
	}
	if calls.Load() != 100 {
		t.Fatalf("trial fn called %d times, want 100", calls.Load())
	}
	for i, r := range results {
		if r != i {
			t.Fatalf("result[%d] = %d", i, r)
		}
	}
}

func TestProgressReporting(t *testing.T) {
	var snaps []Progress
	_, errs := executeAll(30, Config{
		Workers:    4,
		OnProgress: func(p Progress) { snaps = append(snaps, p) },
	}, func(i int) int {
		if i == 3 {
			panic("boom")
		}
		time.Sleep(time.Millisecond)
		return i
	})
	if len(errs) != 1 {
		t.Fatalf("%d failures, want 1", len(errs))
	}
	if len(snaps) != 30 {
		t.Fatalf("%d progress callbacks, want one per trial (30)", len(snaps))
	}
	for k, p := range snaps {
		if p.Completed != k+1 {
			t.Fatalf("snapshot %d: Completed = %d, want %d (callbacks must be serialized)", k, p.Completed, k+1)
		}
		if p.Total != 30 {
			t.Fatalf("snapshot %d: Total = %d", k, p.Total)
		}
	}
	last := snaps[len(snaps)-1]
	if last.Failed != 1 {
		t.Errorf("final snapshot Failed = %d, want 1", last.Failed)
	}
	if last.Remaining != 0 {
		t.Errorf("final snapshot Remaining = %v, want 0", last.Remaining)
	}
}

func TestWorkersCappedAtTrialCount(t *testing.T) {
	// More workers than trials must not deadlock or double-run.
	var calls atomic.Int64
	results, _ := executeAll(3, Config{Workers: 64}, func(i int) int {
		calls.Add(1)
		return i
	})
	if calls.Load() != 3 || len(results) != 3 {
		t.Fatalf("calls=%d results=%d, want 3/3", calls.Load(), len(results))
	}
}

// TestStreamBatchEmitsIdenticalStream checks the batching contract:
// the emitted (index, result) stream is the same at every worker
// count and claim batch — batching only moves work between workers,
// never reorders or changes output.
func TestStreamBatchEmitsIdenticalStream(t *testing.T) {
	const n = 503
	run := func(workers, batch, start int) []int {
		var got []int
		execute(Config{Workers: workers, Batch: batch}, start, n,
			func() struct{} { return struct{}{} },
			func(_ struct{}, i int) int { return i * i },
			func(i int, r int, err *TrialError) bool {
				if err != nil {
					t.Errorf("trial %d failed: %v", i, err)
				}
				if r != i*i {
					t.Errorf("trial %d result %d, want %d", i, r, i*i)
				}
				got = append(got, i)
				return true
			})
		return got
	}
	for _, start := range []int{0, 5} {
		want := run(1, 0, start)
		if len(want) != n-start {
			t.Fatalf("serial run emitted %d trials, want %d", len(want), n-start)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			for _, batch := range []int{0, 1, 3, 7, 64, 1000} {
				got := run(workers, batch, start)
				if len(got) != len(want) {
					t.Fatalf("workers=%d batch=%d start=%d: emitted %d trials, want %d",
						workers, batch, start, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("workers=%d batch=%d start=%d: emit order differs at position %d: %d vs %d",
							workers, batch, start, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestStreamBatchKeepsChunksOnOneWorker checks the amortization
// guarantee: with Batch = B, every aligned B-index period [k*B,
// (k+1)*B) runs entirely on one worker — the property the survey
// relies on so a site's repetitions hit one worker's caches. Also
// covers resume alignment: a start inside a period re-aligns after
// one short chunk.
func TestStreamBatchKeepsChunksOnOneWorker(t *testing.T) {
	const (
		n     = 240
		batch = 8
	)
	for _, start := range []int{0, 3} {
		var mu sync.Mutex
		workerOf := make(map[int]int, n)
		nextWorker := 0
		execute(Config{Workers: 4, Batch: batch}, start, n,
			func() *int {
				mu.Lock()
				defer mu.Unlock()
				id := nextWorker
				nextWorker++
				return &id
			},
			func(id *int, i int) int {
				mu.Lock()
				workerOf[i] = *id
				mu.Unlock()
				return i
			},
			func(int, int, *TrialError) bool { return true })
		for period := start / batch; period*batch < n; period++ {
			lo := max(period*batch, start)
			hi := min((period+1)*batch, n)
			w, seen := -1, false
			for i := lo; i < hi; i++ {
				id, ok := workerOf[i]
				if !ok {
					t.Fatalf("start=%d: trial %d never ran", start, i)
				}
				if !seen {
					w, seen = id, true
				} else if id != w {
					t.Fatalf("start=%d: period [%d,%d) split across workers %d and %d",
						start, lo, hi, w, id)
				}
			}
		}
	}
}

// TestStreamBatchStopAbandonsChunk checks that an emit-side stop ends
// the stream promptly mid-chunk: nothing past the stop index is
// emitted, and the call returns (no deadlocked workers).
func TestStreamBatchStopAbandonsChunk(t *testing.T) {
	const n = 400
	for _, workers := range []int{1, 4} {
		var emitted []int
		execute(Config{Workers: workers, Batch: 16}, 0, n,
			func() struct{} { return struct{}{} },
			func(_ struct{}, i int) int { return i },
			func(i int, _ int, _ *TrialError) bool {
				emitted = append(emitted, i)
				return i < 57
			})
		if len(emitted) == 0 || emitted[len(emitted)-1] != 57 {
			t.Fatalf("workers=%d: emitted %v, want strict index order ending at the stop index 57", workers, emitted)
		}
		for i, idx := range emitted {
			if idx != i {
				t.Fatalf("workers=%d: emit order broken at position %d: %d", workers, i, idx)
			}
		}
	}
}

// TestStreamBatchClampedToWindow pins the deadlock guard: a batch
// larger than the default reorder ring is clamped, so workers can
// always claim and the stream completes.
func TestStreamBatchClampedToWindow(t *testing.T) {
	const n = 100
	count := 0
	execute(Config{Workers: 3, Batch: 1 << 20}, 0, n,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) int { return i },
		func(i int, _ int, _ *TrialError) bool {
			if i != count {
				t.Fatalf("emit order broken: got %d at position %d", i, count)
			}
			count++
			return true
		})
	if count != n {
		t.Fatalf("emitted %d of %d trials", count, n)
	}
}

// TestStopMidRunDrainBound pins the drain contract of Config.Stop at
// every worker count, -j 1 included: once Stop becomes readable in the
// middle of a run, at most workers×Batch further trials start, and
// every trial that executed is emitted — exactly the contiguous prefix
// [0, executed) — so execution-time side effects match the emitted
// prefix.
func TestStopMidRunDrainBound(t *testing.T) {
	const (
		n       = 2000
		batch   = 8
		stopAt  = 100 // the trial count at which Stop is closed
		trialUs = 20
	)
	for _, workers := range []int{1, 4} {
		stop := make(chan struct{})
		var (
			mu         sync.Mutex
			ran        = make(map[int]bool)
			afterClose = -1 // trials started when Stop closed
		)
		var emitted []int
		execute(Config{Workers: workers, Batch: batch, Stop: stop}, 0, n,
			func() struct{} { return struct{}{} },
			func(_ struct{}, i int) int {
				mu.Lock()
				ran[i] = true
				if len(ran) == stopAt {
					close(stop)
					afterClose = len(ran)
				}
				mu.Unlock()
				time.Sleep(trialUs * time.Microsecond)
				return i
			},
			func(i int, _ int, _ *TrialError) bool {
				emitted = append(emitted, i)
				return true
			})
		if afterClose < 0 {
			t.Fatalf("workers=%d: stop never closed", workers)
		}
		if extra := len(ran) - afterClose; extra > workers*batch {
			t.Errorf("workers=%d: %d trials started after Stop, want at most workers×Batch = %d",
				workers, extra, workers*batch)
		}
		if len(ran) >= n {
			t.Errorf("workers=%d: all %d trials ran despite Stop", workers, n)
		}
		if len(emitted) != len(ran) {
			t.Fatalf("workers=%d: %d trials ran but %d emitted", workers, len(ran), len(emitted))
		}
		for k, i := range emitted {
			if i != k || !ran[i] {
				t.Fatalf("workers=%d: emitted[%d] = %d, want the executed prefix in order", workers, k, i)
			}
		}
	}
}

// BenchmarkStreamDispatch isolates the worker pool's dispatch and
// delivery overhead with a near-free trial body: what the executor
// costs per trial when the trial itself does no work. Batch=64 claims
// a chunk of consecutive indices, buffers its results worker-locally,
// and delivers them under one lock acquisition; Batch=1 is the
// per-trial locking path. The spread between the two at high -j is the
// coordination cost the chunk-buffered delivery removes.
func BenchmarkStreamDispatch(b *testing.B) {
	const trials = 1 << 14
	for _, j := range []int{1, 8, 16} {
		for _, batch := range []int{1, 64} {
			b.Run(fmt.Sprintf("j%d/batch%d", j, batch), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					total := 0
					execute(Config{Workers: j, Batch: batch}, 0, trials,
						func() struct{} { return struct{}{} },
						func(struct{}, int) int { return 1 },
						func(idx int, r int, err *TrialError) bool {
							total += r
							return true
						})
					if total != trials {
						b.Fatalf("delivered %d trials, want %d", total, trials)
					}
				}
				if s := b.Elapsed().Seconds(); s > 0 {
					b.ReportMetric(float64(trials*b.N)/s, "trials/s")
				}
			})
		}
	}
}
