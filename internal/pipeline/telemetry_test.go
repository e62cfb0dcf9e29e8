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
