package experiment

import (
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestSweepMetricsDeterminism is the tentpole's determinism gate at
// the sweep level: the same seeds produce a byte-identical sim-domain
// metrics snapshot at -j 1 and -j 8. Worker count only changes how
// trials are scheduled across shards; merging is commutative integer
// addition, so the merged aggregate cannot depend on it.
func TestSweepMetricsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(workers int) (string, []TableIRow) {
		reg := obs.NewRegistry()
		rows := tableIRows(6, tableIDef(6, 7000).Run(Workers(workers), Metrics(reg)))
		return reg.Snapshot().Text(), rows
	}
	text1, rows1 := run(1)
	text8, rows8 := run(8)
	if text1 != text8 {
		t.Errorf("metrics snapshot differs between -j 1 and -j 8:\n--- j=1 ---\n%s\n--- j=8 ---\n%s", text1, text8)
	}
	if !reflect.DeepEqual(rows1, rows8) {
		t.Error("sweep rows differ between -j 1 and -j 8")
	}
}

// TestSweepMetricsDoNotChangeResults pins the zero-interference
// contract behind the golden-output gate: attaching a metrics
// registry (or not) must leave the sweep's rows byte-identical.
func TestSweepMetricsDoNotChangeResults(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	plain := tableIRows(4, tableIDef(4, 7100).Run(Workers(2)))
	reg := obs.NewRegistry()
	metered := tableIRows(4, tableIDef(4, 7100).Run(Workers(2), Metrics(reg)))
	if !reflect.DeepEqual(plain, metered) {
		t.Error("metrics collection changed sweep results")
	}
	snap := reg.Snapshot()
	seg := snap.Segment("jitter=50ms")
	if seg == nil {
		t.Fatal("sweep did not label its configuration segments")
	}
	if got := seg.Counter("trial.count"); got != 4 {
		t.Errorf("segment trial.count = %d, want 4", got)
	}
}

// TestWorldRecorderCapturesTrial pins the flight-recorder path used
// by `h2attack -events`: a full-attack trial records typed events
// with sim timestamps, and re-running the same seed replays the
// identical event stream.
func TestWorldRecorderCapturesTrial(t *testing.T) {
	w := NewWorld()
	rec := obs.NewRecorder(4096)
	w.SetRecorder(rec)
	w.RunTrial(TrialParams{Seed: 42, Mode: ModeFullAttack})
	first := append([]obs.Event(nil), rec.Events()...)
	if len(first) == 0 {
		t.Fatal("full-attack trial recorded no events")
	}
	kinds := map[obs.EventKind]bool{}
	for _, e := range first {
		kinds[e.Kind] = true
	}
	for _, want := range []obs.EventKind{obs.EvH2Request, obs.EvAtkPhase} {
		if !kinds[want] {
			t.Errorf("event stream missing kind %v", want)
		}
	}
	w.RunTrial(TrialParams{Seed: 42, Mode: ModeFullAttack})
	if !reflect.DeepEqual(first, rec.Events()) {
		t.Error("same-seed replay produced a different event stream")
	}
}
