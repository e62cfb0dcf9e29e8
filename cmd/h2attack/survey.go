package main

import (
	"fmt"
	"os"
	"os/signal"
	"strings"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/runner"
	"repro/internal/website"
)

// surveyFlags carries the -survey mode's configuration out of main.
type surveyFlags struct {
	plane      *telemetryPlane
	corpus     int
	siteTrials int
	seed       int64
	jobs       int
	progress   bool
	metrics    bool

	export          string
	checkpoint      string
	checkpointEvery int
	maxTrials       int
}

// runSurvey executes a survey campaign: the paper's attack against a
// synthetic site corpus, streamed through the pipeline to the
// exporters named by -export, with optional checkpoint/resume.
func runSurvey(f surveyFlags) error {
	if f.corpus <= 0 {
		return fmt.Errorf("-corpus must be positive, got %d", f.corpus)
	}
	if f.siteTrials <= 0 {
		f.siteTrials = 1
	}
	cfg := experiment.SurveyConfig{
		Corpus: website.CorpusConfig{
			Seed:  uint64(f.seed),
			Sites: f.corpus,
		},
		SiteTrials: f.siteTrials,
		Seed:       f.seed,
	}
	s := experiment.NewSurvey(cfg)

	var (
		exporters []pipeline.Exporter[experiment.CorpusTrialParams, experiment.SurveyResult]
		summary   *experiment.SurveySummary
		reg       *obs.Registry
	)
	if f.metrics {
		reg = obs.NewRegistry()
	}
	for _, spec := range strings.Split(f.export, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		name, arg, hasArg := strings.Cut(spec, "=")
		switch {
		case name == "summary" && !hasArg:
			if summary == nil {
				summary = experiment.NewSurveySummary()
				exporters = append(exporters, summary)
			}
		case name == "jsonl" && hasArg:
			exporters = append(exporters, experiment.SurveyJSONL(arg))
		case name == "obs" && hasArg:
			if reg == nil {
				reg = obs.NewRegistry()
			}
			exporters = append(exporters, experiment.SurveyObsExport(reg, arg))
		default:
			return fmt.Errorf("-export: unknown spec %q (want summary, jsonl=FILE, or obs=FILE)", spec)
		}
	}
	if len(exporters) == 0 {
		return fmt.Errorf("-export: no exporters configured")
	}
	if reg != nil {
		s.SetMetrics(reg)
	}

	f.plane.campaign(s.Name(), s.Fingerprint(), "", s.Trials())
	pcfg := pipeline.Config{
		Workers:         f.jobs,
		Checkpoint:      f.checkpoint,
		CheckpointEvery: f.checkpointEvery,
		MaxTrials:       f.maxTrials,
		Stop:            interruptChannel(),
		Gauges:          f.plane.liveGauges(),
	}
	var inner func(runner.Progress)
	if f.progress {
		inner = progressPrinter("survey")
	}
	pcfg.OnProgress = f.plane.progress(inner)

	sum, err := s.Run(pcfg, exporters...)
	if err != nil {
		return err
	}
	fmt.Printf("survey: %d sites x %d trials, %d/%d trials exported (this run: %d)\n",
		f.corpus, s.Trials()/f.corpus, sum.Exported, sum.Trials, sum.Exported-sum.Start)
	if len(sum.Failures) > 0 {
		fmt.Printf("survey: %d trials panicked and were exported as zero results\n", len(sum.Failures))
	}
	if !sum.Done {
		if f.checkpoint != "" {
			fmt.Printf("survey: stopped at trial %d; rerun with the same flags and -checkpoint %s to resume\n",
				sum.Exported, f.checkpoint)
		} else {
			fmt.Println("survey: stopped (no -checkpoint, progress not saved)")
		}
		return nil
	}
	if summary != nil {
		fmt.Println()
		fmt.Print(summary.Format())
	}
	if reg != nil && f.metrics {
		fmt.Printf("\nmetrics: survey\n%s\n", reg.Snapshot().Text())
	}
	return nil
}

// interruptChannel returns a channel closed on the first SIGINT, so a
// long campaign checkpoints and exits cleanly; a second SIGINT kills
// the process as usual.
func interruptChannel() <-chan struct{} {
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "survey: interrupt — checkpointing and stopping")
		close(stop)
		signal.Stop(sigc)
	}()
	return stop
}
