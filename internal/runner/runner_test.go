package runner

import (
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// collect runs fn over [0, n) through StreamWith and gathers the
// emitted results into an index-ordered slice (nil when n <= 0) plus
// the failures in emit order — how a caller that wants every result
// uses the streaming core.
func collect[T any](n int, opts Options, fn func(index int) T) ([]T, []*TrialError) {
	var results []T
	if n > 0 {
		results = make([]T, n)
	}
	var failures []*TrialError
	StreamWith(n, StreamOptions{Options: opts},
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

// trial is a stand-in for a seeded simulation: an expensive-ish pure
// function of the trial index alone.
func trial(i int) int64 {
	rng := rand.New(rand.NewSource(int64(i)))
	var sum int64
	for k := 0; k < 1000; k++ {
		sum += rng.Int63n(1 << 30)
	}
	return sum
}

func TestSerialAndParallelIdentical(t *testing.T) {
	const n = 200
	serial, errs1 := collect(n, Options{Workers: 1}, trial)
	if errs1 != nil {
		t.Fatalf("serial run failed: %v", errs1)
	}
	for _, workers := range []int{2, 8, 17} {
		par, errs := collect(n, Options{Workers: workers}, trial)
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
		results, errs := collect(n, Options{Workers: workers}, func(i int) int {
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
		if !strings.Contains(e.Error(), "trial 17") {
			t.Errorf("workers=%d: Error() = %q", workers, e.Error())
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
	_, errs := collect(100, Options{Workers: 8}, func(i int) int {
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
		results, errs := collect(n, Options{Workers: 8}, func(i int) int {
			t.Errorf("trial fn called for n=%d", n)
			return 0
		})
		if results != nil || errs != nil {
			t.Errorf("n=%d: got (%v, %v), want (nil, nil)", n, results, errs)
		}
	}
}

func TestSingleTrial(t *testing.T) {
	results, errs := collect(1, Options{Workers: 8}, func(i int) int { return 41 + i })
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
	results, errs := collect(100, Options{}, func(i int) int {
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
	_, errs := collect(30, Options{
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
	results, _ := collect(3, Options{Workers: 64}, func(i int) int {
		calls.Add(1)
		return i
	})
	if calls.Load() != 3 || len(results) != 3 {
		t.Fatalf("calls=%d results=%d, want 3/3", calls.Load(), len(results))
	}
}
