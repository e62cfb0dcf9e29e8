package pipeline

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The shard these tests resume: [ckStart, ckEnd) of a ckTrials-trial
// campaign.
const ckTrials, ckStart, ckEnd = 200, 100, 200

// sinkExporter records the indices it exports and accepts any state.
func sinkExporter(got *[]int) Exporter[int, string] {
	return Funcs[int, string]{
		ExporterName: "sink",
		OnExport:     func(i int, _ int, _ string) error { *got = append(*got, i); return nil },
		OnRestore:    func(json.RawMessage) error { return nil },
	}
}

// shardCheckpoint is a valid checkpoint of the test shard, 30 trials
// in.
func shardCheckpoint() checkpointFile {
	return checkpointFile{
		Campaign:    "test",
		Fingerprint: "fp1",
		Trials:      ckTrials,
		RangeStart:  ckStart,
		RangeEnd:    ckEnd,
		Next:        ckStart + 30,
		Exporters:   map[string]json.RawMessage{"sink": json.RawMessage("null")},
	}
}

func writeCheckpoint(t testing.TB, path string, ck checkpointFile) {
	t.Helper()
	data, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRejectsNextOutsideRange edits a shard checkpoint's
// next (and done flag) to values no run could have written: the
// resume must fail rather than re-export trials outside the shard,
// export some twice, or stop short while reporting progress.
func TestCheckpointRejectsNextOutsideRange(t *testing.T) {
	cases := []struct {
		name string
		next int
		done bool
	}{
		{"next below zero", -3, false},
		{"next below range start", 0, false},
		{"next past range end", 250, false},
		{"done before range end", ckStart + 50, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "ck.json")
			ck := shardCheckpoint()
			ck.Next, ck.DoneFlag = c.next, c.done
			writeCheckpoint(t, ckpt, ck)
			var got []int
			sum, err := Run(Config{Start: ckStart, End: ckEnd, Checkpoint: ckpt},
				testGen(ckTrials, "fp1"), noState, testTrial, sinkExporter(&got))
			if err == nil {
				t.Fatalf("resume accepted: %+v, exported %d trials", sum, len(got))
			}
			if len(got) != 0 {
				t.Fatalf("rejected resume still exported %d trials", len(got))
			}
		})
	}
	// The bounds themselves are valid resume points.
	for _, c := range []struct {
		next int
		done bool
	}{{ckStart, false}, {ckEnd, false}, {ckEnd, true}} {
		ck := shardCheckpoint()
		ck.Next, ck.DoneFlag = c.next, c.done
		if err := (&checkpoint{checkpointFile: ck}).verify("test", "fp1", ckTrials, ckStart, ckEnd); err != nil {
			t.Errorf("next=%d done=%v rejected: %v", c.next, c.done, err)
		}
	}
}

// TestResumeRejectsShortResultsFile cuts the JSONL file below the
// checkpointed offset: the resume must fail instead of padding the
// file out to the offset.
func TestResumeRejectsShortResultsFile(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ck.json")
	path := filepath.Join(dir, "out.jsonl")
	mk := func() Exporter[int, string] {
		return NewJSONL(path, func(i int, p int, r string) (any, error) {
			return map[string]any{"i": i, "r": r}, nil
		})
	}
	if _, err := Run(Config{Checkpoint: ckpt, MaxTrials: 30}, testGen(57, "fp1"), noState, testTrial, mk()); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 20); err != nil {
		t.Fatal(err)
	}
	if sum, err := Run(Config{Checkpoint: ckpt}, testGen(57, "fp1"), noState, testTrial, mk()); err == nil {
		t.Fatalf("resume onto a short results file accepted: %+v", sum)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 20 {
		t.Fatalf("refused resume changed the results file: %v, %v", fi.Size(), err)
	}
}

// FuzzCheckpointVerify feeds arbitrary bytes as the checkpoint of the
// test shard. Every input must either be refused with an error or
// resume consistently: execute exactly the trials from the recorded
// next to the range end, in order, and report the shard done.
func FuzzCheckpointVerify(f *testing.F) {
	seed := func(edit func(ck *checkpointFile)) []byte {
		ck := shardCheckpoint()
		edit(&ck)
		data, err := json.Marshal(ck)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	valid := seed(func(*checkpointFile) {})
	f.Add(valid)
	f.Add(seed(func(ck *checkpointFile) { ck.Next = -3 }))
	f.Add(seed(func(ck *checkpointFile) { ck.Next = 0 }))
	f.Add(seed(func(ck *checkpointFile) { ck.Next = 250 }))
	f.Add(seed(func(ck *checkpointFile) { ck.Next, ck.DoneFlag = ckEnd, true }))
	f.Add(seed(func(ck *checkpointFile) { ck.Next, ck.DoneFlag = ckStart+50, true }))
	f.Add(seed(func(ck *checkpointFile) { ck.Fingerprint = "fp2" }))
	f.Add(seed(func(ck *checkpointFile) { ck.RangeStart, ck.RangeEnd = 0, 0 }))
	f.Add(seed(func(ck *checkpointFile) { ck.Exporters = nil }))
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("null"))
	f.Add([]byte(`{"next": 1e99}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ckpt := filepath.Join(t.TempDir(), "ck.json")
		if err := os.WriteFile(ckpt, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got []int
		sum, err := Run(Config{Workers: 1, Start: ckStart, End: ckEnd, Checkpoint: ckpt},
			testGen(ckTrials, "fp1"), noState, testTrial, sinkExporter(&got))
		if err != nil {
			if len(got) != 0 {
				t.Fatalf("refused resume exported %d trials", len(got))
			}
			return
		}
		if sum.Start < ckStart || sum.Start > ckEnd {
			t.Fatalf("resumed at %d, outside [%d, %d]", sum.Start, ckStart, ckEnd)
		}
		if !sum.Done || sum.Exported != ckEnd || len(got) != ckEnd-sum.Start {
			t.Fatalf("inconsistent resume from %d: %+v, exported %d trials", sum.Start, sum, len(got))
		}
		for k, i := range got {
			if i != sum.Start+k {
				t.Fatalf("export %d was trial %d, want %d", k, i, sum.Start+k)
			}
		}
	})
}
