package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// This file is the multi-process scale-out driver. `-shard i/N
// -shard-dir DIR` runs the i-th contiguous slice of every selected
// campaign and writes a self-describing bundle into DIR; `-merge
// dir1,dir2,...` validates a complete bundle set and reassembles it —
// tables, JSONL exports, and -metrics-json output byte-identical to
// the same flags run in a single process (see internal/shard).

// parseShardSpec parses "i/N" (1-based, as printed by -shard's usage)
// into a 0-based shard index and the shard count. Both numbers are
// plain decimal digits; anything else, a sign included, is refused.
func parseShardSpec(spec string) (idx, count int, err error) {
	is, ns, ok := strings.Cut(spec, "/")
	i, ierr := strconv.Atoi(is)
	n, nerr := strconv.Atoi(ns)
	if !ok || ierr != nil || nerr != nil || strings.ContainsAny(spec, "+-") {
		return 0, 0, fmt.Errorf("want i/N (e.g. 2/3), got %q", spec)
	}
	if n < 1 || i < 1 || i > n {
		return 0, 0, fmt.Errorf("index %d outside 1..%d", i, n)
	}
	return i - 1, n, nil
}

// runShardMode executes one shard's slice of every selected campaign
// into a bundle directory. Each campaign slice is checkpointed inside
// the bundle, so an interrupted shard resumes with the same command;
// the manifest is written only once every slice completed, marking
// the bundle ready to merge.
func runShardMode(cli *cliFlags, defs []experiment.SweepDef, tp *telemetryPlane) error {
	idx, count, err := parseShardSpec(cli.shardSpec)
	if err != nil {
		return err
	}
	dir := cli.shardDir
	if dir == "" {
		return fmt.Errorf("requires -shard-dir DIR (the bundle output directory)")
	}
	if len(defs) == 0 && !cli.survey {
		return fmt.Errorf("no campaigns selected (add -table1..-defenses, -all, or -survey)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stop := interruptChannel()

	man := &shard.Manifest{Shard: idx, Shards: count}
	done := true
	// runSlice executes one campaign's [start, end) slice through run,
	// writes the slice's obs snapshot, and records the campaign in the
	// manifest. Base filenames derive from the campaign name. segments
	// labels the metrics registry as run would, for an empty slice.
	runSlice := func(name, fingerprint string, trials int, segments func(*obs.Registry),
		run func(cfg pipeline.Config, st *experiment.ObsState, jsonl string) (pipeline.Summary, error)) error {
		r := shard.Plan(trials, count)[idx]
		if g := tp.liveGauges(); g != nil {
			g.Set(telemetry.GShardIndex, int64(idx+1))
			g.Set(telemetry.GShardCount, int64(count))
			g.Set(telemetry.GRangeStart, int64(r.Start))
			g.Set(telemetry.GRangeEnd, int64(r.End))
			g.Set(telemetry.GRangeDone, 0)
		}
		cm := shard.CampaignManifest{
			Campaign:    name,
			Fingerprint: fingerprint,
			Trials:      trials,
			Start:       r.Start,
			End:         r.End,
			SeedBase:    cli.seed,
			Results:     name + ".jsonl",
			Snapshot:    name + ".obs.json",
			Checkpoint:  name + ".ck.json",
		}
		cfg := cli.campaignConfig(tp, name, fingerprint, fmt.Sprintf("%d/%d", idx+1, count), r.End-r.Start)
		cfg.Start, cfg.End = r.Start, r.End
		cfg.Checkpoint = filepath.Join(dir, cm.Checkpoint)
		cfg.Stop = stop
		st := experiment.NewObsState()
		results := filepath.Join(dir, cm.Results)
		var (
			sum pipeline.Summary
			err error
		)
		if r.Start == r.End {
			// pipeline.Config reads End 0 as the whole campaign, so an
			// empty slice never reaches run: it runs no trial and
			// leaves an empty results file and a zero snapshot.
			segments(st.Reg)
			sum.Done = true
			err = os.WriteFile(results, nil, 0o644)
		} else {
			sum, err = run(cfg, st, results)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := writeSliceSnapshot(filepath.Join(dir, cm.Snapshot), st); err != nil {
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

	for _, d := range defs {
		segments := func(reg *obs.Registry) { reg.SetSegments(d.Segments...) }
		if err := runSlice(d.Name, d.Fingerprint(), d.Trials, segments, d.RunShard); err != nil {
			return err
		}
	}
	if cli.survey {
		s, err := cli.newSurvey()
		if err != nil {
			return err
		}
		err = runSlice(s.Name(), s.Fingerprint(), s.Trials(), s.SetMetrics,
			func(cfg pipeline.Config, st *experiment.ObsState, jsonl string) (pipeline.Summary, error) {
				return runSurveyCampaign(s, cfg, st, experiment.SurveyJSONL(jsonl))
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

// writeSliceSnapshot writes one slice's obs snapshot file. The
// ObsState rides the slice checkpoint, so the snapshot covers the
// whole range however often the shard restarted; a rerun of a finished
// slice restores it from the done checkpoint and rewrites the same
// bytes (or recreates a file lost to a kill after the final
// checkpoint).
func writeSliceSnapshot(path string, st *experiment.ObsState) error {
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
// campaigns: sweep tables re-rendered from the streamed results,
// the survey's exporters re-fed from the concatenated lines, metrics
// from the merged snapshots. stdout and every file export are
// byte-identical to the same flags run in a single process.
func runMergeMode(cli *cliFlags, defs []experiment.SweepDef) error {
	var dirs []string
	for _, d := range strings.Split(cli.mergeDirs, ",") {
		if d = strings.TrimSpace(d); d != "" {
			dirs = append(dirs, d)
		}
	}
	set, err := shard.LoadSet(dirs)
	if err != nil {
		return err
	}
	if len(defs) == 0 && !cli.survey {
		return fmt.Errorf("no campaigns selected (add the same campaign flags the shards ran with)")
	}

	snaps := map[string]*obs.Snapshot{}
	for _, d := range defs {
		slices, err := campaignSlices(set, d.Name, d.Fingerprint())
		if err != nil {
			return err
		}
		results, err := decodeSweep(set, d)
		if err != nil {
			return fmt.Errorf("campaign %q: %w", d.Name, err)
		}
		var snap *obs.Snapshot
		if cli.metrics || cli.metricsOut != "" {
			if snap, err = mergeSnapshots(slices); err != nil {
				return err
			}
		}
		reportSweep(cli, snaps, d.Name, d.Format(results), snap)
	}

	if cli.survey {
		if err := mergeSurvey(set, cli); err != nil {
			return err
		}
	}
	return writeMetricsJSON(cli.metricsOut, snaps)
}

// decodeSweep decodes one sweep's results as its slices stream off
// disk, never holding the campaign's JSONL in memory. ConcatResults'
// own refusals (a slice with the wrong line count or no final newline)
// reach the decoder as the pipe's read error; a refused record closes
// the read end, which fails the copy's next write, so the copy always
// returns and is waited for.
func decodeSweep(set *shard.Set, d experiment.SweepDef) ([]experiment.TrialResult, error) {
	pr, pw := io.Pipe()
	copied := make(chan struct{})
	go func() {
		defer close(copied)
		pw.CloseWithError(set.ConcatResults(d.Name, pw))
	}()
	results, err := experiment.DecodeTrialResults(pr, d.Trials)
	pr.Close()
	<-copied
	return results, err
}

// campaignSlices returns one campaign's bundle slices in shard order.
// The bundles agree with each other (shard.LoadSet); they must also
// agree with this invocation's flags.
func campaignSlices(set *shard.Set, name, fingerprint string) ([]shard.CampaignManifest, error) {
	slices, err := set.Campaign(name)
	if err != nil {
		return nil, err
	}
	if got := slices[0].Fingerprint; got != fingerprint {
		return nil, fmt.Errorf("campaign %q was sharded under a different configuration:\n  bundles: %s\n  -merge:  %s",
			name, got, fingerprint)
	}
	return slices, nil
}

// mergeSurvey reassembles the survey campaign: concatenated JSONL
// lines re-fed through the same exporters a single-process run wires
// from -export, so the summary table and every file export match
// byte-for-byte.
func mergeSurvey(set *shard.Set, cli *cliFlags) error {
	s, err := cli.newSurvey()
	if err != nil {
		return err
	}
	ex, err := cli.parseExport()
	if err != nil {
		return err
	}
	slices, err := campaignSlices(set, s.Name(), s.Fingerprint())
	if err != nil {
		return err
	}
	var lines bytes.Buffer
	if err := set.ConcatResults(s.Name(), &lines); err != nil {
		return err
	}

	trials := slices[0].Trials
	var summary *experiment.SurveySummary
	if ex.summary {
		summary = experiment.NewSurveySummary()
	}
	// Every line must hold exactly one record, summary or not:
	// ConcatResults counts lines per slice, so a line holding two
	// records beside a blank one passes its count but would shift
	// every later record onto the wrong trial index. The lines that
	// pass are re-fed through the summary exporter — the aggregation
	// Export runs per live trial.
	rest := lines.Bytes()
	for i := 0; i < trials; i++ {
		line, tail, _ := bytes.Cut(rest, []byte{'\n'})
		rest = tail
		var r experiment.SurveyResult
		if err := json.Unmarshal(line, &r); err != nil {
			return fmt.Errorf("campaign %q: survey record %d: %w", s.Name(), i, err)
		}
		if summary != nil {
			if err := summary.Export(i, experiment.CorpusTrialParams{}, r); err != nil {
				return err
			}
		}
	}
	for _, path := range ex.jsonl {
		if err := os.WriteFile(path, lines.Bytes(), 0o644); err != nil {
			return err
		}
	}
	var snap *obs.Snapshot
	if len(ex.obs) > 0 || cli.metrics {
		if snap, err = mergeSnapshots(slices); err != nil {
			return err
		}
	}
	// Report as the completed single-process campaign would.
	return reportSurvey(cli, ex, pipeline.Summary{Trials: trials, End: trials, Exported: trials, Done: true}, summary, snap)
}
