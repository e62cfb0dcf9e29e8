package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/runner"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/website"
)

// This file is the multi-process scale-out driver. `-shard i/N
// -shard-dir DIR` runs the i-th contiguous slice of every selected
// campaign and writes a self-describing bundle into DIR; `-merge
// dir1,dir2,...` validates a complete bundle set and reassembles it —
// tables, JSONL exports, and -metrics-json output byte-identical to
// the same flags run in a single process (see internal/shard).

// shardModeFlags carries the -shard / -merge configuration out of
// main. defs holds the flag-selected sweep definitions; the survey
// fields mirror the -survey flags.
type shardModeFlags struct {
	defs  []experiment.SweepDef
	plane *telemetryPlane

	survey     bool
	corpus     int
	siteTrials int
	seed       int64

	jobs       int
	progress   bool
	metrics    bool
	metricsOut string
	export     string

	checkpointEvery int
	maxTrials       int
}

// parseShardSpec parses "i/N" (1-based, as printed by -shard's usage)
// into a 0-based shard index and the shard count.
func parseShardSpec(spec string) (idx, count int, err error) {
	var i, n int
	if _, err := fmt.Sscanf(spec, "%d/%d", &i, &n); err != nil {
		return 0, 0, fmt.Errorf("-shard: want i/N (e.g. 2/3), got %q", spec)
	}
	if n < 1 || i < 1 || i > n {
		return 0, 0, fmt.Errorf("-shard: index %d outside 1..%d", i, n)
	}
	return i - 1, n, nil
}

// newSurvey builds the survey campaign exactly as runSurvey does, so
// shard and merge modes agree with single-process runs on the
// fingerprint.
func (f *shardModeFlags) newSurvey() (*experiment.Survey, error) {
	if f.corpus <= 0 {
		return nil, fmt.Errorf("-corpus must be positive, got %d", f.corpus)
	}
	st := f.siteTrials
	if st <= 0 {
		st = 1
	}
	return experiment.NewSurvey(experiment.SurveyConfig{
		Corpus:     website.CorpusConfig{Seed: uint64(f.seed), Sites: f.corpus},
		SiteTrials: st,
		Seed:       f.seed,
	}), nil
}

// progressFn builds the progress reporter for one campaign slice: the
// shared stderr line (same rendering as the single-process modes) plus
// the telemetry plane's range gauge and tracker feed when -status is
// live.
func (f *shardModeFlags) progressFn(name string) func(runner.Progress) {
	var inner func(runner.Progress)
	if f.progress {
		inner = progressPrinter(name)
	}
	g := f.plane.liveGauges()
	cb := f.plane.progress(inner)
	if g == nil {
		return cb
	}
	return func(p runner.Progress) {
		g.Set(telemetry.GRangeDone, int64(p.Completed))
		if cb != nil {
			cb(p)
		}
	}
}

// runShardMode executes one shard's slice of every selected campaign
// into a bundle directory. Each campaign slice is checkpointed inside
// the bundle, so an interrupted shard resumes with the same command;
// the manifest is written only once every slice completed, marking
// the bundle ready to merge.
func runShardMode(spec, dir string, f shardModeFlags) error {
	idx, count, err := parseShardSpec(spec)
	if err != nil {
		return err
	}
	if dir == "" {
		return fmt.Errorf("-shard requires -shard-dir DIR (the bundle output directory)")
	}
	if len(f.defs) == 0 && !f.survey {
		return fmt.Errorf("-shard: no campaigns selected (add -table1..-defenses, -all, or -survey)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stop := interruptChannel()

	man := &shard.Manifest{Shard: idx, Shards: count}
	done := true
	// runSlice executes one campaign's [start, end) slice through run,
	// writes the slice's obs snapshot, and records the campaign in the
	// manifest. Base filenames derive from the campaign name.
	runSlice := func(name, fingerprint string, trials int,
		run func(cfg pipeline.Config, st *experiment.ObsState, jsonl string) (pipeline.Summary, error)) error {
		r := shard.Plan(trials, count)[idx]
		if g := f.plane.liveGauges(); g != nil {
			g.Set(telemetry.GShardIndex, int64(idx+1))
			g.Set(telemetry.GShardCount, int64(count))
			g.Set(telemetry.GRangeStart, int64(r.Start))
			g.Set(telemetry.GRangeEnd, int64(r.End))
			g.Set(telemetry.GRangeDone, 0)
		}
		f.plane.campaign(name, fingerprint, fmt.Sprintf("%d/%d", idx+1, count), r.End-r.Start)
		cm := shard.CampaignManifest{
			Campaign:    name,
			Fingerprint: fingerprint,
			Trials:      trials,
			Start:       r.Start,
			End:         r.End,
			SeedBase:    f.seed,
			Results:     name + ".jsonl",
			Snapshot:    name + ".obs.json",
			Checkpoint:  name + ".ck.json",
		}
		st := experiment.NewObsState()
		cfg := pipeline.Config{
			Workers:         f.jobs,
			Start:           r.Start,
			End:             r.End,
			Checkpoint:      filepath.Join(dir, cm.Checkpoint),
			CheckpointEvery: f.checkpointEvery,
			MaxTrials:       f.maxTrials,
			Stop:            stop,
			OnProgress:      f.progressFn(name),
			Gauges:          f.plane.liveGauges(),
		}
		sum, err := run(cfg, st, filepath.Join(dir, cm.Results))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := writeSliceSnapshot(dir, cm, sum, st, cfg.Checkpoint); err != nil {
			return fmt.Errorf("%s: snapshot: %w", name, err)
		}
		man.Campaigns = append(man.Campaigns, cm)
		if !sum.Done {
			done = false
			fmt.Fprintf(os.Stderr, "shard %d/%d: %s stopped at trial %d of [%d, %d); rerun the same command to resume\n",
				idx+1, count, name, sum.Exported, r.Start, r.End)
		} else {
			fmt.Printf("shard %d/%d: %s trials [%d, %d) done\n", idx+1, count, name, r.Start, r.End)
		}
		return nil
	}

	for _, d := range f.defs {
		err := runSlice(d.Name, d.Fingerprint(), d.Trials,
			func(cfg pipeline.Config, st *experiment.ObsState, jsonl string) (pipeline.Summary, error) {
				return d.RunShard(cfg, st, jsonl)
			})
		if err != nil {
			return err
		}
	}
	if f.survey {
		s, err := f.newSurvey()
		if err != nil {
			return err
		}
		err = runSlice(s.Name(), s.Fingerprint(), s.Trials(),
			func(cfg pipeline.Config, st *experiment.ObsState, jsonl string) (pipeline.Summary, error) {
				s.SetMetrics(st.Reg)
				return s.Run(cfg, experiment.SurveyJSONL(jsonl),
					experiment.ObsStateExporter[experiment.CorpusTrialParams, experiment.SurveyResult](st))
			})
		if err != nil {
			return err
		}
	}

	if !done {
		// No manifest: the bundle is incomplete and -merge must refuse
		// it until a rerun finishes the remaining trials.
		return nil
	}
	if err := man.Save(dir); err != nil {
		return err
	}
	fmt.Printf("shard %d/%d: bundle complete: %s\n", idx+1, count, dir)
	return nil
}

// writeSliceSnapshot writes one slice's obs snapshot file. A slice
// whose checkpoint already said done short-circuits the pipeline
// without restoring any exporter, so the live ObsState is empty — in
// that case the bundle's existing snapshot is kept (a rerun of a
// complete shard must not wipe its metrics), falling back to the
// snapshot recorded inside the done checkpoint if the file is missing
// (process killed between the final checkpoint and the snapshot
// write).
func writeSliceSnapshot(dir string, cm shard.CampaignManifest, sum pipeline.Summary, st *experiment.ObsState, ckPath string) error {
	path := filepath.Join(dir, cm.Snapshot)
	shortCircuited := sum.Done && sum.Start >= sum.End
	if shortCircuited {
		if _, err := os.Stat(path); err == nil {
			return nil
		}
		if state, ok, err := pipeline.CheckpointExporterState(ckPath, "obs-state"); err != nil {
			return err
		} else if ok {
			// Re-marshal through the snapshot type: the checkpoint file
			// is indented, the bundle snapshot is compact.
			snap := &obs.Snapshot{}
			if err := json.Unmarshal(state, snap); err != nil {
				return err
			}
			data, err := json.Marshal(snap)
			if err != nil {
				return err
			}
			return os.WriteFile(path, append(data, '\n'), 0o644)
		}
	}
	snap, err := st.Snapshot()
	if err != nil {
		return err
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// loadShardSnapshot reads one bundle campaign's serialized snapshot.
func loadShardSnapshot(path string) (*obs.Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap := &obs.Snapshot{}
	if err := json.Unmarshal(data, snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}

// mergeSnapshots merges one campaign's per-shard snapshots in shard
// order.
func mergeSnapshots(slices []shard.CampaignManifest) (*obs.Snapshot, error) {
	var merged *obs.Snapshot
	for _, cm := range slices {
		if cm.Snapshot == "" {
			return nil, fmt.Errorf("campaign %q shard [%d, %d) has no snapshot", cm.Campaign, cm.Start, cm.End)
		}
		snap, err := loadShardSnapshot(cm.Snapshot)
		if err != nil {
			return nil, err
		}
		if merged == nil {
			merged = snap
			continue
		}
		if err := merged.Merge(snap); err != nil {
			return nil, fmt.Errorf("campaign %q: %w", cm.Campaign, err)
		}
	}
	return merged, nil
}

// runMergeMode validates a bundle set and reassembles the selected
// campaigns: sweep tables re-rendered from the concatenated results,
// the survey's exporters re-fed from the concatenated lines, metrics
// from the merged snapshots. stdout and every file export are
// byte-identical to the same flags run in a single process.
func runMergeMode(dirList string, f shardModeFlags) error {
	var dirs []string
	for _, d := range strings.Split(dirList, ",") {
		if d = strings.TrimSpace(d); d != "" {
			dirs = append(dirs, d)
		}
	}
	set, err := shard.LoadSet(dirs)
	if err != nil {
		return err
	}
	if len(f.defs) == 0 && !f.survey {
		return fmt.Errorf("-merge: no campaigns selected (add the same campaign flags the shards ran with)")
	}

	snaps := map[string]*obs.Snapshot{}
	for _, d := range f.defs {
		slices, err := set.Campaign(d.Name)
		if err != nil {
			return err
		}
		// The bundles agree with each other (shard.LoadSet); they must
		// also agree with this invocation's -trials/-seed.
		if got, want := slices[0].Fingerprint, d.Fingerprint(); got != want {
			return fmt.Errorf("campaign %q was sharded under a different configuration:\n  bundles: %s\n  -merge:  %s",
				d.Name, got, want)
		}
		var buf bytes.Buffer
		if err := set.ConcatResults(d.Name, &buf); err != nil {
			return err
		}
		results, err := experiment.DecodeTrialResults(&buf, d.Trials)
		if err != nil {
			return fmt.Errorf("campaign %q: %w", d.Name, err)
		}
		fmt.Print(d.Format(results))
		fmt.Println()
		if f.metrics || f.metricsOut != "" {
			snap, err := mergeSnapshots(slices)
			if err != nil {
				return err
			}
			snaps[d.Name] = snap
			if f.metrics {
				fmt.Printf("metrics: %s\n%s\n", d.Name, snap.Text())
			}
		}
	}

	if f.survey {
		if err := mergeSurvey(set, f); err != nil {
			return err
		}
	}

	if f.metricsOut != "" && len(snaps) > 0 {
		data, err := obs.MarshalSweeps(snaps)
		if err != nil {
			return err
		}
		if err := os.WriteFile(f.metricsOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// mergeSurvey reassembles the survey campaign: concatenated JSONL
// lines re-fed through the same exporters a single-process run wires
// from -export, so the summary table and every file export match
// byte-for-byte.
func mergeSurvey(set *shard.Set, f shardModeFlags) error {
	s, err := f.newSurvey()
	if err != nil {
		return err
	}
	slices, err := set.Campaign(s.Name())
	if err != nil {
		return err
	}
	if got, want := slices[0].Fingerprint, s.Fingerprint(); got != want {
		return fmt.Errorf("campaign %q was sharded under a different configuration:\n  bundles: %s\n  -merge:  %s",
			s.Name(), got, want)
	}

	var lines bytes.Buffer
	if err := set.ConcatResults(s.Name(), &lines); err != nil {
		return err
	}

	var (
		summary   *experiment.SurveySummary
		jsonlOut  []string
		obsOut    []string
		wantObs   bool
		wantLines = lines.Bytes()
	)
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
			}
		case name == "jsonl" && hasArg:
			jsonlOut = append(jsonlOut, arg)
		case name == "obs" && hasArg:
			obsOut = append(obsOut, arg)
			wantObs = true
		default:
			return fmt.Errorf("-export: unknown spec %q (want summary, jsonl=FILE, or obs=FILE)", spec)
		}
	}
	if summary == nil && len(jsonlOut) == 0 && len(obsOut) == 0 {
		return fmt.Errorf("-export: no exporters configured")
	}

	trials := slices[0].Trials
	if summary != nil {
		// Re-feed the concatenated lines through the summary exporter —
		// the same aggregation path Export runs per live trial.
		sc := json.NewDecoder(bytes.NewReader(wantLines))
		for i := 0; i < trials; i++ {
			var r experiment.SurveyResult
			if err := sc.Decode(&r); err != nil {
				return fmt.Errorf("survey record %d: %w", i, err)
			}
			if err := summary.Export(i, experiment.CorpusTrialParams{}, r); err != nil {
				return err
			}
		}
	}
	for _, path := range jsonlOut {
		if err := os.WriteFile(path, wantLines, 0o644); err != nil {
			return err
		}
	}
	var snap *obs.Snapshot
	if wantObs || f.metrics {
		if snap, err = mergeSnapshots(slices); err != nil {
			return err
		}
	}
	for _, path := range obsOut {
		data, err := obs.MarshalSweeps(map[string]*obs.Snapshot{"survey": snap})
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
	}

	// The status line a completed single-process campaign prints.
	fmt.Printf("survey: %d sites x %d trials, %d/%d trials exported (this run: %d)\n",
		f.corpus, trials/f.corpus, trials, trials, trials)
	if summary != nil {
		fmt.Println()
		fmt.Print(summary.Format())
	}
	if f.metrics {
		fmt.Printf("\nmetrics: survey\n%s\n", snap.Text())
	}
	return nil
}
