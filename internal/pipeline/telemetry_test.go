package pipeline

import (
	"bytes"
	"testing"

	"repro/internal/telemetry"
)

// TestGaugesByteIdenticalOutput pins the wall-vs-deterministic
// boundary at the pipeline level: JSONL output with the telemetry
// plane enabled is byte-identical to the plane-off reference at
// several worker counts. The gauges are write-only samples; nothing
// downstream may read them back into the byte stream.
func TestGaugesByteIdenticalOutput(t *testing.T) {
	const n = 83
	_, want := runJSONL(t, t.TempDir(), n, Config{Workers: 1})
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"j1", Config{Workers: 1, Gauges: &telemetry.Gauges{}}},
		{"j4", Config{Workers: 4, Gauges: &telemetry.Gauges{}}},
		{"j8", Config{Workers: 8, Gauges: &telemetry.Gauges{}}},
	} {
		_, got := runJSONL(t, t.TempDir(), n, tc.cfg)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: output with gauges enabled differs from reference (%d vs %d bytes)",
				tc.name, len(got), len(want))
		}
	}
}

// TestGaugesPipelineCursors verifies the export-side gauges after a
// campaign: the exported-trials and checkpoint cursors agree with the
// summary, and export bytes match the file.
func TestGaugesPipelineCursors(t *testing.T) {
	const n = 64
	g := &telemetry.Gauges{}
	dir := t.TempDir()
	ckpt := dir + "/ck.json"
	sum, data := runJSONL(t, dir, n, Config{
		Workers: 4, Checkpoint: ckpt, CheckpointEvery: 10, Gauges: g,
	})
	if !sum.Done {
		t.Fatalf("campaign not done: %+v", sum)
	}
	if got := g.Load(telemetry.GExportedTrials); got != n {
		t.Errorf("GExportedTrials = %d, want %d", got, n)
	}
	// The final checkpoint records completion, so the lag gauges must
	// read zero lag.
	if got := g.Load(telemetry.GCkptTrials); got != n {
		t.Errorf("GCkptTrials = %d, want %d", got, n)
	}
	if got := g.Load(telemetry.GExportBytes); got != int64(len(data)) {
		t.Errorf("GExportBytes = %d, want file size %d", got, len(data))
	}
	if got := g.Load(telemetry.GCkptBytes); got != int64(len(data)) {
		t.Errorf("GCkptBytes = %d, want %d", got, len(data))
	}
}

// TestGaugesEndState verifies the executor leaves the telemetry plane
// consistent after a run: every trial counted, nothing left in flight
// or parked, the pool and ring dimensions published at every worker
// count, and the busy clock advanced (gauges enable per-trial timing).
func TestGaugesEndState(t *testing.T) {
	for _, workers := range []int{1, 4} {
		g := &telemetry.Gauges{}
		const n = 200
		var emitted int
		execute(Config{Workers: workers, Gauges: g, Batch: 7}, 0, n,
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
		if got := g.Load(telemetry.GRingCapacity); got < minWindow {
			t.Errorf("workers=%d: GRingCapacity = %d, want the default window (>= %d)", workers, got, minWindow)
		}
	}
}

// TestGaugesDoNotAffectStream pins the wall-vs-deterministic
// boundary at the executor level: the emitted (index, result) stream
// with the telemetry plane enabled is exactly the stream with it
// disabled, at every worker count.
func TestGaugesDoNotAffectStream(t *testing.T) {
	run := func(workers int, g *telemetry.Gauges) []int {
		var out []int
		execute(Config{Workers: workers, Gauges: g, Batch: 5}, 0, 300,
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
	executeAll(50, Config{Workers: 2, OnProgress: func(p Progress) { last = p }},
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
