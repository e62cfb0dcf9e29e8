package pipeline

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/jsonenc"
)

// stringAppender mirrors the fallback encode used by the tests below
// (the line is json.Marshal of the result string), so appender and
// reflection paths must produce identical bytes.
func stringAppender() AppendFunc[int, string] {
	return func(dst []byte, i int, p int, r string) ([]byte, error) {
		return jsonenc.AppendString(dst, r), nil
	}
}

// TestAppenderMatchesFallbackBytes runs the same campaign through the
// append fast path and the json.Marshal fallback and requires
// byte-identical files — the contract that makes the fast path safe
// to substitute under checkpointed campaigns.
func TestAppenderMatchesFallbackBytes(t *testing.T) {
	const n = 100
	run := func(app Appender[int, string]) []byte {
		dir := t.TempDir()
		path := filepath.Join(dir, "out.jsonl")
		exp := NewJSONL(path, func(i int, p int, r string) (any, error) { return r, nil })
		if app != nil {
			exp.WithAppender(app)
		}
		if _, err := Run(Config{Workers: 4}, testGen(n, ""), noState, testTrial, exp); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	want := run(nil)
	got := run(stringAppender())
	if !bytes.Equal(got, want) {
		t.Fatalf("append fast path diverges from fallback:\n got %q\nwant %q", got, want)
	}
}

// TestEncodeErrorAbortsAndLeavesRestorableCheckpoint fails the
// appender mid-campaign: the run must surface the error, and the
// checkpoint left behind must resume to a byte-identical file.
func TestEncodeErrorAbortsAndLeavesRestorableCheckpoint(t *testing.T) {
	const n = 57
	refDir := t.TempDir()
	_, want := runJSONL(t, refDir, n, Config{Workers: 4})

	mk := func(path string, failAt int) *JSONL[int, string] {
		return NewJSONL(path, func(i int, p int, r string) (any, error) {
			return map[string]any{"i": i, "r": r}, nil
		}).WithAppender(AppendFunc[int, string](func(dst []byte, i int, p int, r string) ([]byte, error) {
			if failAt >= 0 && i == failAt {
				return dst, fmt.Errorf("encode failure at %d", i)
			}
			// Replicate json.Marshal(map[string]any{"i": i, "r": r})
			// (keys sorted: "i" then "r") so the resumed file matches
			// the fallback reference byte for byte.
			dst = append(dst, `{"i":`...)
			dst = jsonenc.AppendInt(dst, int64(i))
			dst = append(dst, `,"r":`...)
			dst = jsonenc.AppendString(dst, r)
			return append(dst, '}'), nil
		}))
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ck.json")
	path := filepath.Join(dir, "out.jsonl")
	_, err := Run(Config{Workers: 4, Checkpoint: ckpt, CheckpointEvery: 10},
		testGen(n, "fp1"), noState, testTrial, mk(path, 37))
	if err == nil || !strings.Contains(err.Error(), "encode failure at 37") {
		t.Fatalf("want encode failure, got %v", err)
	}
	sum, err := Run(Config{Workers: 4, Checkpoint: ckpt},
		testGen(n, "fp1"), noState, testTrial, mk(path, -1))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !sum.Done || sum.Start != 30 {
		t.Fatalf("resume summary %+v, want done from checkpoint 30", sum)
	}
	got, _ := os.ReadFile(path)
	if !bytes.Equal(got, want) {
		t.Fatal("resumed file differs from uninterrupted reference")
	}
}

// TestWriterErrorAbortsAndLeavesRestorableCheckpoint fails the real
// write path (the JSONL file descriptor dies mid-campaign, as a full
// disk would make it): the campaign must abort with the write error
// and the checkpoint must still resume to a byte-identical file.
func TestWriterErrorAbortsAndLeavesRestorableCheckpoint(t *testing.T) {
	const n = 57
	refDir := t.TempDir()
	_, want := runJSONL(t, refDir, n, Config{Workers: 4})

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ck.json")
	path := filepath.Join(dir, "out.jsonl")
	exp := NewJSONL(path, func(i int, p int, r string) (any, error) {
		return map[string]any{"i": i, "r": r}, nil
	}).WithBufferSize(1) // flush every line so the dead fd surfaces immediately
	// sabotage runs before the JSONL exporter in the list: at trial 37
	// it closes the file out from under the writer, the way ENOSPC
	// kills a stream mid-write.
	sabotage := Funcs[int, string]{
		ExporterName: "sabotage",
		OnExport: func(i int, p int, r string) error {
			if i == 37 {
				return exp.file.Close()
			}
			return nil
		},
	}
	_, err := Run(Config{Workers: 4, Checkpoint: ckpt, CheckpointEvery: 10},
		testGen(n, "fp1"), noState, testTrial, sabotage, exp)
	if err == nil {
		t.Fatal("want write error after fd death, got nil")
	}
	sum, got := runJSONL(t, dir, n, Config{Workers: 4, Checkpoint: ckpt},
		Funcs[int, string]{ExporterName: "sabotage"})
	if !sum.Done || sum.Start != 30 {
		t.Fatalf("resume summary %+v, want done from checkpoint 30", sum)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed file differs from uninterrupted reference")
	}
}

// TestCollectorPreSizesFromMeta pins the Begin-time pre-sizing: a
// zero-capacity collector must reach campaign capacity without
// regrowth during exports.
func TestCollectorPreSizesFromMeta(t *testing.T) {
	c := NewCollector[int, string](0)
	if err := c.Begin(Meta{Trials: 1000}); err != nil {
		t.Fatal(err)
	}
	if cap(c.results) != 1000 {
		t.Fatalf("cap after Begin = %d, want 1000", cap(c.results))
	}
	base := &c.results[:1][0]
	for i := 0; i < 1000; i++ {
		if err := c.Export(i, i, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if &c.results[0] != base {
		t.Fatal("collector reallocated during exports despite pre-sizing")
	}
}
