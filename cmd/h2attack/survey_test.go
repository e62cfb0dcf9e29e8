package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/pipeline"
	"repro/internal/website"
)

// surveyPanickedRe matches the status line that counts a survey's
// panicked trials; campaign tooling parses the count from it.
var surveyPanickedRe = regexp.MustCompile(`(?m)^survey: (\d+) trials panicked`)

// TestSurveyPanicExportsBrokenTrial makes one trial of a four-site
// survey panic. Its JSONL line must be a broken trial carrying its
// site's spec, the summary table must count exactly the exported
// lines, and the status line must report one panicked trial.
func TestSurveyPanicExportsBrokenTrial(t *testing.T) {
	const sites, bad = 4, 2
	s := experiment.NewSurvey(experiment.SurveyConfig{
		Corpus:     website.CorpusConfig{Seed: 11, Sites: sites, MinObjects: 8, MaxObjects: 24},
		SiteTrials: 1,
		Seed:       1,
	})
	path := filepath.Join(t.TempDir(), "survey.jsonl")
	summary := experiment.NewSurveySummary()
	trial := func(w *experiment.World, p experiment.CorpusTrialParams) experiment.SurveyResult {
		if p.Site == bad {
			panic("injected trial panic")
		}
		return w.RunSiteTrial(s.Corpus().Build(p.Site), p)
	}
	sum, err := pipeline.Run(pipeline.Config{Workers: 2}, s, experiment.NewWorld, trial,
		experiment.SurveyJSONL(path), summary)
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != sites {
		t.Fatalf("%d JSONL lines, want %d", len(lines), sites)
	}
	fromLines := experiment.NewSurveySummary()
	for i, line := range lines {
		var r experiment.SurveyResult
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if i == bad {
			want := experiment.SurveyResult{SiteSpec: s.Corpus().Build(bad).Spec, TrialSeed: 1 + bad, Broken: true}
			if r != want {
				t.Errorf("panicked trial exported as %+v, want %+v", r, want)
			}
		}
		_ = fromLines.Export(i, s.Params(i), r)
	}

	out, err := captureStdout(t, func() error {
		return reportSurvey(&cliFlags{corpus: sites}, surveyExports{summary: true}, sum, summary, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	m := surveyPanickedRe.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no panicked-trials line in:\n%s", out)
	}
	if n, _ := strconv.Atoi(m[1]); n != 1 {
		t.Errorf("status line counts %d panicked trials, want 1", n)
	}
	if !bytes.Contains([]byte(out), []byte(fromLines.Format())) {
		t.Errorf("summary table does not match the exported lines:\n%s\nwant\n%s", out, fromLines.Format())
	}
}
