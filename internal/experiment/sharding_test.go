package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/shard"
)

// These tests pin the multi-process contract end to end at the
// experiment layer: a sweep split into contiguous shard slices, each
// serialized across a process-style boundary (JSONL files on disk),
// reassembles into the byte-identical rendered table, and the obs
// state survives checkpointed shard restarts.

// runShardSlices executes def as n contiguous slices into dir,
// returning the concatenated JSONL bytes.
func runShardSlices(t *testing.T, d SweepDef, n int, workers int) []byte {
	t.Helper()
	dir := t.TempDir()
	var cat bytes.Buffer
	for i, r := range shard.Plan(d.Trials, n) {
		path := filepath.Join(dir, "slice.jsonl")
		sum, err := d.RunShard(pipeline.Config{Workers: workers, Start: r.Start, End: r.End}, nil, path)
		if err != nil {
			t.Fatalf("slice %d: %v", i, err)
		}
		if !sum.Done || sum.Exported != r.End {
			t.Fatalf("slice %d: %+v", i, sum)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cat.Write(data)
	}
	return cat.Bytes()
}

func TestSweepShardMergeByteIdentical(t *testing.T) {
	d := delayDef(3, 1)
	want := d.Format(d.Run(Workers(4)))

	for _, shards := range []int{1, 3} {
		cat := runShardSlices(t, d, shards, 2)
		results, err := DecodeTrialResults(bytes.NewReader(cat), d.Trials)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if got := d.Format(results); got != want {
			t.Fatalf("%d shards: merged table differs from in-process run:\n%s\nvs\n%s", shards, got, want)
		}
	}
}

func TestSweepShardBrokenOnPanic(t *testing.T) {
	// Every sweep, in process or sharded, must export a panicked trial
	// as a Broken record — not a zero line, and not a dead process. A
	// nil world panics on first use.
	res := brokenOnPanic(nil, TrialParams{})
	if !res.Broken {
		t.Fatal("brokenOnPanic did not convert the panic into a Broken result")
	}
}

func TestSurveyShardMergeByteIdentical(t *testing.T) {
	cfg := SurveyConfig{SiteTrials: 2, Seed: 1}
	cfg.Corpus.Sites = 6
	cfg.Corpus.Seed = 1

	full := filepath.Join(t.TempDir(), "full.jsonl")
	s := NewSurvey(cfg)
	if _, err := s.Run(pipeline.Config{Workers: 4}, SurveyJSONL(full)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	var cat bytes.Buffer
	for i, r := range shard.Plan(s.Trials(), 3) {
		// A fresh Survey per slice: separate processes share nothing.
		ss := NewSurvey(cfg)
		if ss.Fingerprint() != s.Fingerprint() {
			t.Fatal("survey fingerprint not reproducible from config")
		}
		path := filepath.Join(t.TempDir(), "slice.jsonl")
		sum, err := ss.Run(pipeline.Config{Workers: 2, Start: r.Start, End: r.End}, SurveyJSONL(path))
		if err != nil {
			t.Fatalf("slice %d: %v", i, err)
		}
		if !sum.Done {
			t.Fatalf("slice %d: %+v", i, sum)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cat.Write(data)
	}
	if !bytes.Equal(cat.Bytes(), want) {
		t.Fatal("concatenated survey shard slices differ from single-process JSONL")
	}
}

// TestShardObsExactAcrossInterrupt pins the end-to-end exactness of
// checkpointed shard metrics: a slice interrupted by MaxTrials at
// -j 4 and resumed in a fresh ObsState must report exactly the
// uninterrupted slice's snapshot. This is what MaxTrials-as-end-bound
// buys — under the old emit-side abort, workers raced past the export
// cursor and their metrics were checkpointed, then double-counted
// when the resumed run re-executed those trials.
func TestShardObsExactAcrossInterrupt(t *testing.T) {
	d := delayDef(3, 1)
	dir := t.TempDir()

	ref := NewObsState()
	if _, err := d.RunShard(pipeline.Config{Workers: 4}, ref, filepath.Join(dir, "ref.jsonl")); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	ck := filepath.Join(dir, "ck.json")
	out := filepath.Join(dir, "out.jsonl")
	st1 := NewObsState()
	sum, err := d.RunShard(pipeline.Config{Workers: 4, Checkpoint: ck, CheckpointEvery: 2, MaxTrials: 5}, st1, out)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Done || sum.Exported != 5 {
		t.Fatalf("interrupted run: %+v, want exactly 5 exports", sum)
	}

	st2 := NewObsState()
	sum, err = d.RunShard(pipeline.Config{Workers: 4, Checkpoint: ck, CheckpointEvery: 2}, st2, out)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Done {
		t.Fatalf("resumed run: %+v", sum)
	}
	got, err := st2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got.Text() != want.Text() {
		t.Fatalf("resumed metrics differ from uninterrupted run:\n%s\nvs\n%s", got.Text(), want.Text())
	}
	if n := trialCount(got); n != uint64(d.Trials) {
		t.Fatalf("resumed trial.count = %d, want %d", n, d.Trials)
	}
}

// trialCount sums the trial.count counter over a snapshot's segments.
func trialCount(s *obs.Snapshot) uint64 {
	var n uint64
	for i := range s.Segments {
		n += s.Segments[i].Counter(obs.CTrial.String())
	}
	return n
}

// TestObsStateSurvivesRestart pins the shard-resume metrics contract:
// an ObsState checkpointed mid-range and restored into a fresh
// process must report the union of both incarnations' observations.
func TestObsStateSurvivesRestart(t *testing.T) {
	whole := NewObsState()
	whole.Reg.SetSegments("a", "b")

	// trial feeds one synthetic trial into both segments of a fresh
	// worker shard of each registry.
	trial := func(i int, regs ...*obs.Registry) {
		for _, r := range regs {
			s := r.NewShard()
			for seg := 0; seg < 2; seg++ {
				k := s.Sink(seg)
				k.Inc(obs.CTrial)
				k.Add(obs.CH2Request, uint64(i%4+seg))
				k.Observe(obs.HTCPCwnd, int64(1000*i+seg))
			}
		}
	}

	first := NewObsState()
	first.Reg.SetSegments("a", "b")
	for i := 0; i < 10; i++ {
		trial(i, first.Reg, whole.Reg)
	}
	state, err := first.checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	second := NewObsState()
	second.Reg.SetSegments("a", "b")
	if err := second.restore(state); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 17; i++ {
		trial(i, second.Reg, whole.Reg)
	}

	got, err := second.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := whole.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if n := trialCount(got); n != 2*17 {
		t.Fatalf("restarted trial.count = %d, want %d", n, 2*17)
	}
	if got.Text() != want.Text() {
		t.Fatalf("restarted text differs:\n%s\nvs\n%s", got.Text(), want.Text())
	}
	// Repeated snapshots must not double-count the restored base.
	again, err := second.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if again.Text() != got.Text() {
		t.Fatalf("second Snapshot() changed the text:\n%s\nvs\n%s", again.Text(), got.Text())
	}
}
