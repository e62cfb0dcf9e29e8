package main

import (
	"fmt"
	"os"
	"os/signal"
	"strings"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/website"
)

// newSurvey builds the -survey campaign from the flags. Single-process,
// shard and merge runs all build it here, so they agree on the
// fingerprint.
func (cli *cliFlags) newSurvey() (*experiment.Survey, error) {
	if cli.corpus <= 0 {
		return nil, fmt.Errorf("-corpus must be positive, got %d", cli.corpus)
	}
	return experiment.NewSurvey(experiment.SurveyConfig{
		Corpus:     website.CorpusConfig{Seed: uint64(cli.seed), Sites: cli.corpus},
		SiteTrials: cli.siteTrials,
		Seed:       cli.seed,
	}), nil
}

// surveyExports is the parsed -export list.
type surveyExports struct {
	summary bool
	jsonl   []string // jsonl=FILE paths
	obs     []string // obs=FILE paths
}

// parseExport parses -export.
func (cli *cliFlags) parseExport() (surveyExports, error) {
	var ex surveyExports
	for _, spec := range strings.Split(cli.export, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		name, arg, hasArg := strings.Cut(spec, "=")
		switch {
		case name == "summary" && !hasArg:
			ex.summary = true
		case name == "jsonl" && hasArg:
			ex.jsonl = append(ex.jsonl, arg)
		case name == "obs" && hasArg:
			ex.obs = append(ex.obs, arg)
		default:
			return ex, fmt.Errorf("-export: unknown spec %q (want summary, jsonl=FILE, or obs=FILE)", spec)
		}
	}
	if !ex.summary && len(ex.jsonl) == 0 && len(ex.obs) == 0 {
		return ex, fmt.Errorf("-export: no exporters configured")
	}
	return ex, nil
}

// runSurveyCampaign runs the survey through the pipeline. With st
// non-nil the campaign's metrics collect into st, which rides the
// checkpoint, so they cover every trial across resumes.
func runSurveyCampaign(s *experiment.Survey, cfg pipeline.Config, st *experiment.ObsState,
	exporters ...pipeline.Exporter[experiment.CorpusTrialParams, experiment.SurveyResult]) (pipeline.Summary, error) {
	if st != nil {
		s.SetMetrics(st.Reg)
		exporters = append(exporters, experiment.ObsStateExporter[experiment.CorpusTrialParams, experiment.SurveyResult](st))
	}
	return s.Run(cfg, exporters...)
}

// runSurvey executes a survey campaign: the paper's attack against a
// synthetic site corpus, streamed through the pipeline to the
// exporters named by -export, with optional checkpoint/resume.
func runSurvey(cli *cliFlags, tp *telemetryPlane) error {
	s, err := cli.newSurvey()
	if err != nil {
		return err
	}
	ex, err := cli.parseExport()
	if err != nil {
		return err
	}
	var (
		exporters []pipeline.Exporter[experiment.CorpusTrialParams, experiment.SurveyResult]
		summary   *experiment.SurveySummary
		st        *experiment.ObsState
	)
	if ex.summary {
		summary = experiment.NewSurveySummary()
		exporters = append(exporters, summary)
	}
	for _, path := range ex.jsonl {
		exporters = append(exporters, experiment.SurveyJSONL(path))
	}
	if cli.metrics || len(ex.obs) > 0 {
		st = experiment.NewObsState()
	}

	cfg := cli.campaignConfig(tp, s.Name(), s.Fingerprint(), "", s.Trials())
	cfg.MaxTrials, cfg.Checkpoint, cfg.Stop = cli.maxTrials, cli.checkpoint, interruptChannel()
	sum, err := runSurveyCampaign(s, cfg, st, exporters...)
	if err != nil {
		return err
	}
	var snap *obs.Snapshot
	if st != nil && sum.Done {
		if snap, err = st.Snapshot(); err != nil {
			return err
		}
	}
	return reportSurvey(cli, ex, sum, summary, snap)
}

// reportSurvey finishes a survey run: it prints the status line and,
// once the campaign is done, writes the obs= files and prints the
// summary table and the -metrics summary. Single-process and -merge
// runs both finish here.
func reportSurvey(cli *cliFlags, ex surveyExports, sum pipeline.Summary, summary *experiment.SurveySummary, snap *obs.Snapshot) error {
	fmt.Printf("survey: %d sites x %d trials, %d/%d trials exported (this run: %d)\n",
		cli.corpus, sum.Trials/cli.corpus, sum.Exported, sum.Trials, sum.Exported-sum.Start)
	if len(sum.Failures) > 0 {
		fmt.Printf("survey: %d trials panicked and were exported as broken\n", len(sum.Failures))
	}
	if !sum.Done {
		if cli.checkpoint != "" {
			fmt.Printf("survey: stopped at trial %d; rerun with the same flags and -checkpoint %s to resume\n",
				sum.Exported, cli.checkpoint)
		} else {
			fmt.Println("survey: stopped (no -checkpoint, progress not saved)")
		}
		return nil
	}
	for _, path := range ex.obs {
		data, err := obs.MarshalSweeps(map[string]*obs.Snapshot{"survey": snap})
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
	}
	if summary != nil {
		fmt.Println()
		fmt.Print(summary.Format())
	}
	if cli.metrics {
		fmt.Printf("\nmetrics: survey\n%s\n", snap.Text())
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
