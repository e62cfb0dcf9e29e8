package experiment

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/website"
)

func testSurveyConfig(sites int) SurveyConfig {
	return SurveyConfig{
		Corpus: website.CorpusConfig{
			Seed:       11,
			Sites:      sites,
			MinObjects: 8,
			MaxObjects: 24, // keep test trials quick
		},
		SiteTrials: 1,
		Seed:       1,
	}
}

func runSurveyJSONL(t *testing.T, cfg SurveyConfig, pcfg pipeline.Config, path string) (pipeline.Summary, []byte) {
	t.Helper()
	s := NewSurvey(cfg)
	sum, err := s.Run(pcfg, SurveyJSONL(path))
	if err != nil {
		t.Fatalf("survey run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sum, data
}

func TestSurveyIdenticalAcrossWorkerCounts(t *testing.T) {
	cfg := testSurveyConfig(12)
	dir := t.TempDir()
	_, a := runSurveyJSONL(t, cfg, pipeline.Config{Workers: 1}, filepath.Join(dir, "j1.jsonl"))
	_, b := runSurveyJSONL(t, cfg, pipeline.Config{Workers: 8}, filepath.Join(dir, "j8.jsonl"))
	if !bytes.Equal(a, b) {
		t.Fatal("survey JSONL differs between -j 1 and -j 8")
	}
	if len(a) == 0 {
		t.Fatal("survey produced no output")
	}
}

func TestSurveyResumeByteIdentical(t *testing.T) {
	cfg := testSurveyConfig(17)
	refDir := t.TempDir()
	_, want := runSurveyJSONL(t, cfg, pipeline.Config{Workers: 4}, filepath.Join(refDir, "ref.jsonl"))

	dir := t.TempDir()
	path := filepath.Join(dir, "out.jsonl")
	ckpt := filepath.Join(dir, "ck.json")

	// Kill after 9 trials with checkpoints every 4: the last
	// checkpoint is the stop point itself (graceful), but the summary
	// counters must survive the restart too.
	killed := NewSurvey(cfg)
	killedSummary := NewSurveySummary()
	sum, err := killed.Run(pipeline.Config{
		Workers: 4, Checkpoint: ckpt, CheckpointEvery: 4, MaxTrials: 9,
	}, SurveyJSONL(path), killedSummary)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Done || sum.Exported != 9 {
		t.Fatalf("interrupted survey: %+v", sum)
	}

	resumed := NewSurvey(cfg)
	resumedSummary := NewSurveySummary()
	sum, err = resumed.Run(pipeline.Config{
		Workers: 4, Checkpoint: ckpt, CheckpointEvery: 4,
	}, SurveyJSONL(path), resumedSummary)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Done || sum.Start != 9 || sum.Exported != 17 {
		t.Fatalf("resumed survey: %+v", sum)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed survey JSONL differs from uninterrupted run")
	}

	// The resumed summary must cover the whole campaign.
	uninterrupted := NewSurvey(cfg)
	fullSummary := NewSurveySummary()
	if _, err := uninterrupted.Run(pipeline.Config{Workers: 4}, fullSummary); err != nil {
		t.Fatal(err)
	}
	if resumedSummary.Format() != fullSummary.Format() {
		t.Fatalf("resumed summary differs:\n%s\nvs uninterrupted:\n%s",
			resumedSummary.Format(), fullSummary.Format())
	}
	trials, _ := resumedSummary.Total()
	if trials != 17 {
		t.Fatalf("resumed summary counted %d trials, want 17", trials)
	}
}

// TestSurveyRerunOfDoneCampaignRestoresSummary pins that rerunning a
// finished, checkpointed survey reproduces its summary table: the done
// checkpoint restores the summary state, no trial runs, and the JSONL
// is left as it was.
func TestSurveyRerunOfDoneCampaignRestoresSummary(t *testing.T) {
	cfg := testSurveyConfig(9)
	dir := t.TempDir()
	pcfg := pipeline.Config{Workers: 2, Checkpoint: filepath.Join(dir, "ck.json")}
	path := filepath.Join(dir, "out.jsonl")
	run := func() (pipeline.Summary, string, []byte) {
		t.Helper()
		summary := NewSurveySummary()
		sum, err := NewSurvey(cfg).Run(pcfg, SurveyJSONL(path), summary)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return sum, summary.Format(), data
	}
	_, first, firstLines := run()
	if rows := strings.Count(first, "\n"); rows < 3 {
		t.Fatalf("first run printed no summary rows:\n%s", first)
	}
	sum, again, againLines := run()
	if !sum.Done || sum.Start != 9 || sum.Exported != 9 {
		t.Fatalf("rerun summary = %+v, want done at 9 with nothing run", sum)
	}
	if again != first {
		t.Fatalf("rerun summary differs:\n%s\nvs first run:\n%s", again, first)
	}
	if !bytes.Equal(againLines, firstLines) {
		t.Fatal("rerun of a done survey modified its JSONL")
	}
}

// TestSurveySummaryRestoreRefusesBadState feeds Restore checkpoint
// states by hand: a well-formed one (short bucket lists are padded)
// must restore and format, and a malformed one — a shape with null
// counters, more buckets than size segments, not JSON — must be
// refused with an error that leaves the summary as it was, never
// accepted for Format to trip over.
func TestSurveySummaryRestoreRefusesBadState(t *testing.T) {
	five := `[{},{},{},{},{}]`
	six := `[{},{},{},{},{},{}]`
	for _, tc := range []struct {
		name, state string
		ok          bool
	}{
		{"full", `{"total":{"trials":2},"buckets":` + five + `,"shapes":{"x":{"trials":2}}}`, true},
		{"short buckets", `{"total":{"trials":1},"buckets":[{"trials":1}],"shapes":{}}`, true},
		{"no shapes", `{"total":{},"buckets":` + five + `}`, true},
		{"null shape", `{"total":{},"buckets":` + five + `,"shapes":{"x":null}}`, false},
		{"too many buckets", `{"total":{},"buckets":` + six + `,"shapes":{}}`, false},
		{"not json", `{"total":`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSurveySummary()
			var r SurveyResult
			r.Objects, r.Shape = 3, "y"
			s.Export(0, CorpusTrialParams{}, r)
			before := s.Format()
			err := s.Restore(json.RawMessage(tc.state))
			if tc.ok {
				if err != nil {
					t.Fatalf("Restore refused a good state: %v", err)
				}
				s.Format()
				return
			}
			if err == nil {
				t.Fatal("Restore accepted a malformed state")
			}
			if after := s.Format(); after != before {
				t.Fatalf("refused Restore changed the summary:\n%s\nwant:\n%s", after, before)
			}
		})
	}
}

// TestSurveyMetricsExactAcrossResume pins the survey's whole-campaign
// metrics: with an ObsState riding the checkpoint, a survey stopped by
// MaxTrials and resumed — and then rerun once finished — reports the
// same snapshot JSON as an uninterrupted run.
func TestSurveyMetricsExactAcrossResume(t *testing.T) {
	cfg := testSurveyConfig(13)
	dir := t.TempDir()
	runObs := func(pcfg pipeline.Config, jsonl string) (pipeline.Summary, []byte) {
		t.Helper()
		st := NewObsState()
		s := NewSurvey(cfg)
		s.SetMetrics(st.Reg)
		sum, err := s.Run(pcfg, SurveyJSONL(filepath.Join(dir, jsonl)),
			ObsStateExporter[CorpusTrialParams, SurveyResult](st))
		if err != nil {
			t.Fatal(err)
		}
		snap, err := st.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		return sum, data
	}
	_, want := runObs(pipeline.Config{Workers: 4}, "ref.jsonl")

	ck := filepath.Join(dir, "ck.json")
	sum, _ := runObs(pipeline.Config{Workers: 4, Checkpoint: ck, CheckpointEvery: 3, MaxTrials: 5}, "out.jsonl")
	if sum.Done || sum.Exported != 5 {
		t.Fatalf("interrupted survey: %+v, want exactly 5 exports", sum)
	}
	sum, got := runObs(pipeline.Config{Workers: 4, Checkpoint: ck, CheckpointEvery: 3}, "out.jsonl")
	if !sum.Done || sum.Start != 5 {
		t.Fatalf("resumed survey: %+v", sum)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed survey metrics differ from an uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	_, again := runObs(pipeline.Config{Workers: 4, Checkpoint: ck, CheckpointEvery: 3}, "out.jsonl")
	if !bytes.Equal(again, want) {
		t.Fatalf("rerun of the finished survey reports different metrics:\n%s\nvs\n%s", again, want)
	}
}

func TestSurveyAttackWorksOnCorpusSites(t *testing.T) {
	cfg := testSurveyConfig(10)
	s := NewSurvey(cfg)
	collect := pipeline.NewCollector[CorpusTrialParams, SurveyResult](s.Trials())
	if _, err := s.Run(pipeline.Config{Workers: 4}, collect); err != nil {
		t.Fatal(err)
	}
	identified, complete := 0, 0
	for _, r := range collect.Results() {
		if r.TargetIdentified {
			identified++
		}
		if r.PageComplete {
			complete++
		}
		if r.Objects == 0 || r.TargetID == 0 {
			t.Fatalf("result missing site spec: %+v", r)
		}
	}
	if identified == 0 {
		t.Fatal("predictor never identified the target across 10 corpus sites")
	}
	if complete == 0 {
		t.Fatal("no corpus page load ever completed")
	}
}

// TestSurveySeedZeroStartsAtZero: trial i runs with Seed+i for every
// Seed, zero included, as SurveyConfig.Seed documents.
func TestSurveySeedZeroStartsAtZero(t *testing.T) {
	cfg := testSurveyConfig(2)
	cfg.Seed = 0
	s := NewSurvey(cfg)
	for i := 0; i < s.Trials(); i++ {
		if got := s.Params(i).Seed; got != int64(i) {
			t.Errorf("trial %d runs seed %d, want %d", i, got, i)
		}
	}
	if fp := s.Fingerprint(); !strings.Contains(fp, "seed0=0 ") {
		t.Errorf("fingerprint %q does not record seed0=0", fp)
	}
}
