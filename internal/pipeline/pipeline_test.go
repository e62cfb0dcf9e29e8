package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// testGen is a campaign whose trial i computes a string from i.
func testGen(n int, fp string) Fixed[int] {
	return Fixed[int]{CampaignName: "test", N: n, Fn: func(i int) int { return i * 3 }, FP: fp}
}

func testTrial(_ struct{}, p int) string { return fmt.Sprintf("r%d", p) }

func noState() struct{} { return struct{}{} }

func TestRunCollectsInOrder(t *testing.T) {
	const n = 200
	var lastIdx atomic.Int64
	lastIdx.Store(-1)
	order := Funcs[int, string]{
		ExporterName: "order",
		OnExport: func(i int, p int, r string) error {
			if int64(i) != lastIdx.Load()+1 {
				t.Errorf("export order: got %d after %d", i, lastIdx.Load())
			}
			lastIdx.Store(int64(i))
			return nil
		},
	}
	collect := NewCollector[int, string](n)
	sum, err := Run(Config{Workers: 8}, testGen(n, ""), noState, testTrial, collect, order)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Done || sum.Exported != n {
		t.Fatalf("summary = %+v, want done with %d exported", sum, n)
	}
	results := collect.Results()
	if len(results) != n {
		t.Fatalf("collected %d results, want %d", len(results), n)
	}
	for i, r := range results {
		if want := fmt.Sprintf("r%d", i*3); r != want {
			t.Fatalf("result[%d] = %q, want %q", i, r, want)
		}
	}
}

func TestZeroTrials(t *testing.T) {
	began, closed := false, false
	e := Funcs[int, string]{
		ExporterName: "e",
		OnBegin:      func(Meta) error { began = true; return nil },
		OnClose:      func(done bool) error { closed = done; return nil },
	}
	sum, err := Run(Config{}, testGen(0, ""), noState, testTrial, e)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Done || !began || !closed {
		t.Fatalf("zero-trial campaign: sum=%+v began=%v closedDone=%v", sum, began, closed)
	}
}

func runJSONL(t *testing.T, dir string, n int, cfg Config, extra ...Exporter[int, string]) (Summary, []byte) {
	t.Helper()
	path := filepath.Join(dir, "out.jsonl")
	exp := NewJSONL(path, func(i int, p int, r string) (any, error) {
		return map[string]any{"i": i, "r": r}, nil
	})
	exporters := append([]Exporter[int, string]{exp}, extra...)
	sum, err := Run(cfg, testGen(n, "fp1"), noState, testTrial, exporters...)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sum, data
}

func TestResumeAfterMaxTrialsByteIdentical(t *testing.T) {
	const n = 57
	refDir := t.TempDir()
	_, want := runJSONL(t, refDir, n, Config{Workers: 4})

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ck.json")
	sum, _ := runJSONL(t, dir, n, Config{Workers: 4, Checkpoint: ckpt, CheckpointEvery: 10, MaxTrials: 23})
	if sum.Done || sum.Exported != 23 {
		t.Fatalf("interrupted run: %+v, want 23 exported not done", sum)
	}
	sum, got := runJSONL(t, dir, n, Config{Workers: 4, Checkpoint: ckpt, CheckpointEvery: 10})
	if !sum.Done || sum.Start != 23 || sum.Exported != n {
		t.Fatalf("resumed run: %+v, want done from 23", sum)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed output differs from uninterrupted run:\ngot %d bytes\nwant %d bytes", len(got), len(want))
	}
}

// TestResumeTruncatesAfterCrash kills the campaign with an exporter
// error between checkpoints, so the JSONL file holds lines past the
// last checkpoint; the resume must truncate them and still produce
// byte-identical output.
func TestResumeTruncatesAfterCrash(t *testing.T) {
	const n = 57
	refDir := t.TempDir()
	_, want := runJSONL(t, refDir, n, Config{Workers: 4})

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ck.json")
	path := filepath.Join(dir, "out.jsonl")
	boom := Funcs[int, string]{
		ExporterName: "boom",
		OnExport: func(i int, p int, r string) error {
			if i == 37 {
				return fmt.Errorf("crash at %d", i)
			}
			return nil
		},
	}
	exp := NewJSONL(path, func(i int, p int, r string) (any, error) {
		return map[string]any{"i": i, "r": r}, nil
	})
	_, err := Run(Config{Workers: 4, Checkpoint: ckpt, CheckpointEvery: 10},
		testGen(n, "fp1"), noState, testTrial, exp, boom)
	if err == nil {
		t.Fatal("expected crash error")
	}
	// The file now holds more lines than the last checkpoint (30)
	// covers; Close(false) flushed them.
	crashed, _ := os.ReadFile(path)
	if got := bytes.Count(crashed, []byte("\n")); got <= 30 {
		t.Fatalf("crash left %d lines, expected trailing lines past checkpoint 30", got)
	}
	sum, got := runJSONL(t, dir, n, Config{Workers: 4, Checkpoint: ckpt}, boomNoop())
	if !sum.Done || sum.Start != 30 {
		t.Fatalf("resumed run: %+v, want done from 30", sum)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed output differs from uninterrupted run")
	}
}

// boomNoop stands in for the crashed exporter on resume (the
// checkpoint names it, so the resume must present it).
func boomNoop() Exporter[int, string] {
	return Funcs[int, string]{ExporterName: "boom"}
}

func TestResumeRefusesFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ck.json")
	path := filepath.Join(dir, "out.jsonl")
	mk := func() Exporter[int, string] {
		return NewJSONL(path, func(i int, p int, r string) (any, error) { return r, nil })
	}
	if _, err := Run(Config{Checkpoint: ckpt, MaxTrials: 5}, testGen(20, "fpA"), noState, testTrial, mk()); err != nil {
		t.Fatal(err)
	}
	_, err := Run(Config{Checkpoint: ckpt}, testGen(20, "fpB"), noState, testTrial, mk())
	if err == nil {
		t.Fatal("resume under a different fingerprint must fail")
	}
	_, err = Run(Config{Checkpoint: ckpt}, Fixed[int]{CampaignName: "other", N: 20, Fn: func(i int) int { return i }, FP: "fpA"}, noState, testTrial, mk())
	if err == nil {
		t.Fatal("resume under a different campaign name must fail")
	}
}

// TestDoneCheckpointShortCircuits pins the rerun contract of a
// finished campaign: no trial executes, every exporter is restored and
// closed as done (so aggregates reappear), the summary reports done at
// the end index, and neither the JSONL nor the checkpoint changes.
func TestDoneCheckpointShortCircuits(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ck.json")
	path := filepath.Join(dir, "out.jsonl")
	mk := func() Exporter[int, string] {
		return NewJSONL(path, func(i int, p int, r string) (any, error) { return r, nil })
	}
	// count is a checkpointable exporter standing in for an aggregate
	// (the survey summary): its state must survive the rerun.
	count := func(n *int, closedDone *bool) Exporter[int, string] {
		return Funcs[int, string]{
			ExporterName: "count",
			OnExport:     func(int, int, string) error { *n++; return nil },
			OnCheckpoint: func() (json.RawMessage, error) { return json.Marshal(*n) },
			OnRestore:    func(state json.RawMessage) error { return json.Unmarshal(state, n) },
			OnClose:      func(done bool) error { *closedDone = done; return nil },
		}
	}
	var first int
	var firstDone bool
	if _, err := Run(Config{Checkpoint: ckpt}, testGen(10, "fp"), noState, testTrial, mk(), count(&first, &firstDone)); err != nil {
		t.Fatal(err)
	}
	jsonlBefore, _ := os.ReadFile(path)
	ckBefore, _ := os.ReadFile(ckpt)

	ran := false
	trial := func(s struct{}, p int) string { ran = true; return testTrial(s, p) }
	var again int
	var againDone bool
	sum, err := Run(Config{Checkpoint: ckpt}, testGen(10, "fp"), noState, trial, mk(), count(&again, &againDone))
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("rerun of a done campaign executed a trial")
	}
	if !sum.Done || sum.Start != 10 || sum.End != 10 || sum.Exported != 10 {
		t.Fatalf("rerun summary = %+v, want done at index 10", sum)
	}
	if again != first || !againDone {
		t.Fatalf("rerun exporter: count %d closed done=%v, want the restored count %d closed done", again, againDone, first)
	}
	if jsonlAfter, _ := os.ReadFile(path); !bytes.Equal(jsonlBefore, jsonlAfter) {
		t.Fatal("rerun of a done campaign modified the JSONL")
	}
	if ckAfter, _ := os.ReadFile(ckpt); !bytes.Equal(ckBefore, ckAfter) {
		t.Fatalf("rerun of a done campaign modified the checkpoint:\n%s\nvs\n%s", ckAfter, ckBefore)
	}
}

func TestCollectorRefusesResume(t *testing.T) {
	c := NewCollector[int, string](4)
	if err := c.Begin(Meta{Start: 3}); err == nil {
		t.Fatal("Collector must refuse a mid-campaign start")
	}
	if _, err := c.Checkpoint(); err == nil {
		t.Fatal("Collector must refuse to checkpoint")
	}
}

func TestStopChannel(t *testing.T) {
	// A stop that is already readable drains before any trial is
	// claimed: nothing executes, nothing exports, and the campaign is
	// left resumable (Done false).
	stop := make(chan struct{})
	close(stop)
	collect := NewCollector[int, string](50)
	sum, err := Run(Config{Workers: 4, Stop: stop}, testGen(50, ""), noState, testTrial, collect)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Done || sum.Exported != 0 {
		t.Fatalf("pre-stopped campaign: %+v, want zero exports, not done", sum)
	}
}

func TestCheckpointFileShape(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ck.json")
	path := filepath.Join(dir, "out.jsonl")
	exp := NewJSONL(path, func(i int, p int, r string) (any, error) { return r, nil })
	if _, err := Run(Config{Checkpoint: ckpt, MaxTrials: 7}, testGen(20, "fp"), noState, testTrial, exp); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var ck checkpointFile
	if err := json.Unmarshal(data, &ck); err != nil {
		t.Fatal(err)
	}
	if ck.Campaign != "test" || ck.Fingerprint != "fp" || ck.Trials != 20 || ck.Next != 7 || ck.DoneFlag {
		t.Fatalf("checkpoint = %+v", ck)
	}
	if _, ok := ck.Exporters[exp.Name()]; !ok {
		t.Fatalf("checkpoint lacks exporter state, has %v", ck.Exporters)
	}
}
