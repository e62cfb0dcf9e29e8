package runner

import (
	"testing"

	"repro/internal/telemetry"
)

// TestGaugesEndState verifies the runner leaves the telemetry plane
// consistent after a run: every trial counted, nothing left in
// flight or parked, the pool and ring dimensions published, and the
// busy clock advanced (gauges enable per-trial timing).
func TestGaugesEndState(t *testing.T) {
	for _, workers := range []int{1, 4} {
		g := &telemetry.Gauges{}
		const n = 200
		var emitted int
		StreamWith(n, StreamOptions{Options: Options{Workers: workers, Gauges: g}, Batch: 7},
			func() struct{} { return struct{}{} },
			func(_ struct{}, i int) int { return i * i },
			func(i int, r int, err *TrialError) bool {
				emitted++
				return true
			})
		if emitted != n {
			t.Fatalf("workers=%d: emitted %d of %d", workers, emitted, n)
		}
		if got := g.Load(telemetry.GTrialsDone); got != n {
			t.Errorf("workers=%d: GTrialsDone = %d, want %d", workers, got, n)
		}
		if got := g.Load(telemetry.GWorkers); got != int64(workers) {
			t.Errorf("workers=%d: GWorkers = %d", workers, got)
		}
		if got := g.Load(telemetry.GInFlight); got != 0 {
			t.Errorf("workers=%d: GInFlight = %d after completion, want 0", workers, got)
		}
		if got := g.Load(telemetry.GRingParked); got != 0 {
			t.Errorf("workers=%d: GRingParked = %d after completion, want 0", workers, got)
		}
		if got := g.Load(telemetry.GWorkersBusy); got != 0 {
			t.Errorf("workers=%d: GWorkersBusy = %d after completion, want 0", workers, got)
		}
		if got := g.Load(telemetry.GClaims); got < int64(n)/7 {
			t.Errorf("workers=%d: GClaims = %d, want >= %d", workers, got, n/7)
		}
		if workers > 1 {
			if got := g.Load(telemetry.GRingCapacity); got < 64 {
				t.Errorf("GRingCapacity = %d, want the default window (>= 64)", got)
			}
		}
	}
}

// TestGaugesDoNotAffectStream pins the wall-vs-deterministic
// boundary at the runner level: the emitted (index, result) stream
// with the telemetry plane enabled is exactly the stream with it
// disabled, at every worker count.
func TestGaugesDoNotAffectStream(t *testing.T) {
	run := func(workers int, g *telemetry.Gauges) []int {
		var out []int
		StreamWith(300, StreamOptions{Options: Options{Workers: workers, Gauges: g}, Batch: 5},
			func() struct{} { return struct{}{} },
			func(_ struct{}, i int) int { return i*31 + 7 },
			func(i int, r int, err *TrialError) bool {
				out = append(out, r)
				return true
			})
		return out
	}
	want := run(1, nil)
	for _, workers := range []int{1, 2, 8} {
		got := run(workers, &telemetry.Gauges{})
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestProgressTrialsPerSec verifies the TrialsPerSec field: positive
// while trials complete, and consistent with Completed/Elapsed (one
// code path feeds both the -progress line and /status).
func TestProgressTrialsPerSec(t *testing.T) {
	var last Progress
	collect(50, Options{Workers: 2, OnProgress: func(p Progress) { last = p }},
		func(i int) int { return i })
	if last.Completed != 50 {
		t.Fatalf("final progress completed = %d", last.Completed)
	}
	if last.TrialsPerSec <= 0 {
		t.Errorf("TrialsPerSec = %v, want > 0", last.TrialsPerSec)
	}
	if last.Elapsed > 0 {
		want := float64(last.Completed) / last.Elapsed.Seconds()
		if diff := last.TrialsPerSec - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("TrialsPerSec = %v, want Completed/Elapsed = %v", last.TrialsPerSec, want)
		}
	}
}
