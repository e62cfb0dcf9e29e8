// Command h2attack runs the paper's experiments on the simulation
// stack and prints the tables and series the paper reports.
//
// Usage:
//
//	h2attack -table1            # Table I (jitter sweep)
//	h2attack -fig5              # Figure 5 (bandwidth sweep)
//	h2attack -drops             # Section IV-D (targeted drops)
//	h2attack -table2            # Table II (full attack accuracy)
//	h2attack -delay             # Section IV-A control (uniform delay)
//	h2attack -defenses          # Section VII defence evaluation
//	h2attack -all               # everything
//
// h2attack runs campaigns only. cmd/h2trace replays any single trial
// a campaign counted: its narration, flight-recorder dump, Perfetto
// timeline and CSV exports.
//
// Survey campaigns run the attack against a synthetic site corpus
// through the streaming pipeline, with checkpointed resume:
//
//	h2attack -survey -corpus 1000 -export summary,jsonl=out.jsonl \
//	         -checkpoint ck.json -progress
//
// Interrupt a campaign with ^C (or bound it with -max-trials); rerun
// the same command to resume from the checkpoint — the final exporter
// output is byte-identical to an uninterrupted run.
//
// Any selection of campaigns also splits across OS processes: each
// process runs one contiguous slice of every selected campaign into a
// self-describing bundle directory, and a merge run reassembles the
// bundles into output byte-identical to a single process:
//
//	h2attack -all -shard 1/3 -shard-dir s1     # likewise 2/3, 3/3
//	h2attack -all -merge s1,s2,s3
//
// scripts/shard.sh wraps the fan-out and merge in one command. An
// interrupted shard resumes when rerun (bundles carry per-campaign
// checkpoints); -merge refuses incomplete bundles and bundles whose
// campaign fingerprints do not match the merge run's own flags.
//
// Use -trials and -seed to control the sweep size and reproducibility.
// Sweeps fan their trials across -j worker goroutines (default: all
// CPUs); the printed tables are identical at every -j because trial
// seeds derive from the trial index, not the worker. -progress shows
// a live completion/ETA line on stderr.
//
// -status ADDR serves live wall-side telemetry while any campaign
// runs: /metrics (Prometheus text), /status (JSON progress and health
// gauges), /events?seed=N (on-demand flight-recorder replay). The
// plane samples atomics the trial paths update; nothing it observes
// feeds back into campaign output, which stays byte-identical with it
// on or off.
//
// -metrics prints a cross-layer metrics summary after each sweep
// (counters and histograms per configuration segment); -metrics-json
// FILE exports the same snapshots as JSON next to the BENCH_*.json
// baselines. Both are byte-identical at every -j. Trials/s is on
// -progress and /status; mean trial latency is
// h2attack_runner_busy_nanos_total / h2attack_runner_trials_done_total
// on /metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// cliFlags holds every h2attack flag value.
type cliFlags struct {
	table1     bool
	fig5       bool
	drops      bool
	table2     bool
	delay      bool
	defenses   bool
	all        bool
	metrics    bool
	metricsOut string
	status     string
	trials     int
	seed       int64
	jobs       int
	progress   bool
	cpuprofile string
	memprofile string
	shardSpec  string
	shardDir   string
	mergeDirs  string
	survey     bool
	corpus     int
	siteTrials int
	export     string
	checkpoint string
	ckptEvery  int
	maxTrials  int
}

// defineFlags registers every h2attack flag on fs (the README flag
// table is checked against this set).
func defineFlags(fs *flag.FlagSet) *cliFlags {
	c := &cliFlags{}
	fs.BoolVar(&c.table1, "table1", false, "reproduce Table I (jitter sweep)")
	fs.BoolVar(&c.fig5, "fig5", false, "reproduce Figure 5 (bandwidth sweep)")
	fs.BoolVar(&c.drops, "drops", false, "reproduce section IV-D (targeted drops)")
	fs.BoolVar(&c.table2, "table2", false, "reproduce Table II (full attack)")
	fs.BoolVar(&c.delay, "delay", false, "run the section IV-A uniform-delay control")
	fs.BoolVar(&c.defenses, "defenses", false, "evaluate the section VII defence proposals")
	fs.BoolVar(&c.all, "all", false, "run every experiment")
	fs.BoolVar(&c.metrics, "metrics", false, "print a cross-layer metrics summary after each sweep")
	fs.StringVar(&c.metricsOut, "metrics-json", "", "write every sweep's metrics snapshot into this one JSON file")
	fs.StringVar(&c.status, "status", "", "serve live campaign telemetry on this address (/metrics, /status, /events?seed=N); never affects campaign output")
	fs.IntVar(&c.trials, "trials", 100, "page loads per configuration")
	fs.Int64Var(&c.seed, "seed", 1, "base seed (trial i uses seed+i)")
	fs.IntVar(&c.jobs, "j", runtime.GOMAXPROCS(0), "trial worker goroutines per sweep (1 = serial)")
	fs.BoolVar(&c.progress, "progress", false, "report sweep completion and ETA on stderr")
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.memprofile, "memprofile", "", "write an allocation profile to this file on exit")
	fs.StringVar(&c.shardSpec, "shard", "", "run slice i/N (1-based) of every selected campaign and write a bundle into -shard-dir")
	fs.StringVar(&c.shardDir, "shard-dir", "", "shard: bundle output directory (holds JSONL slices, obs snapshots, checkpoints, manifest)")
	fs.StringVar(&c.mergeDirs, "merge", "", "merge completed shard bundles (comma-separated directories); output is byte-identical to a single-process run")
	fs.BoolVar(&c.survey, "survey", false, "run a survey campaign against a synthetic site corpus")
	fs.IntVar(&c.corpus, "corpus", 1000, "survey: number of synthetic sites")
	fs.IntVar(&c.siteTrials, "site-trials", 1, "survey: attack repetitions per site")
	fs.StringVar(&c.export, "export", "summary", "survey: comma-separated exporters (summary, jsonl=FILE, obs=FILE)")
	fs.StringVar(&c.checkpoint, "checkpoint", "", "survey: checkpoint file for resumable campaigns")
	fs.IntVar(&c.ckptEvery, "checkpoint-every", 1000, "survey: trials between checkpoint writes")
	fs.IntVar(&c.maxTrials, "max-trials", 0, "survey and -shard: stop (checkpointing) after this many trials this run; 0 = no limit")
	return c
}

func run(args []string) int {
	fs := flag.NewFlagSet("h2attack", flag.ContinueOnError)
	cli := defineFlags(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if cli.all {
		cli.table1, cli.fig5, cli.drops, cli.table2, cli.delay, cli.defenses = true, true, true, true, true, true
	}
	// The fixed sweeps are driven through their shardable definitions
	// (experiment.Sweeps) so single-process, shard, and merge modes all
	// agree on campaign names, fingerprints, and rendered tables.
	selected := map[string]bool{
		"table1": cli.table1, "fig5": cli.fig5, "drops": cli.drops,
		"table2": cli.table2, "delay": cli.delay, "defenses": cli.defenses,
	}
	var defs []experiment.SweepDef
	for _, d := range experiment.Sweeps(cli.trials, cli.seed) {
		if selected[d.Name] {
			defs = append(defs, d)
		}
	}

	var usageErr string
	switch {
	case len(defs) > 0 && cli.trials < 1:
		// The tables divide by the trial count: zero trials would print
		// NaN% cells, not results.
		usageErr = fmt.Sprintf("-trials must be at least 1 when a sweep is selected, got %d", cli.trials)
	case cli.ckptEvery < 1:
		usageErr = fmt.Sprintf("-checkpoint-every must be at least 1, got %d", cli.ckptEvery)
	case cli.siteTrials < 1:
		usageErr = fmt.Sprintf("-site-trials must be at least 1, got %d", cli.siteTrials)
	case cli.maxTrials < 0:
		usageErr = fmt.Sprintf("-max-trials must be at least 0 (0 = no limit), got %d", cli.maxTrials)
	}
	if usageErr != "" {
		fmt.Fprintf(os.Stderr, "h2attack: %s\n", usageErr)
		fs.Usage()
		return 2
	}

	if cli.cpuprofile != "" {
		f, err := os.Create(cli.cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "h2attack: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "h2attack: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if cli.memprofile != "" {
		f, err := os.Create(cli.memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "h2attack: -memprofile: %v\n", err)
			return 1
		}
		defer func() {
			// The allocation profile is written at exit so it covers
			// the whole run; GC first so the heap samples are current.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "h2attack: -memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	// The telemetry plane is wall-side only: with -status unset it is
	// inert (nil gauges, no server); either way campaign output is
	// byte-identical.
	tp, err := startTelemetry(cli.status)
	if err != nil {
		fmt.Fprintf(os.Stderr, "h2attack: -status: %v\n", err)
		return 1
	}
	defer tp.shutdown()

	if cli.shardSpec != "" && cli.mergeDirs != "" {
		fmt.Fprintln(os.Stderr, "h2attack: -shard and -merge are mutually exclusive")
		return 2
	}
	if cli.shardSpec != "" {
		if err := runShardMode(cli, defs, tp); err != nil {
			fmt.Fprintf(os.Stderr, "h2attack: -shard: %v\n", err)
			return 1
		}
		return 0
	}
	if cli.mergeDirs != "" {
		if err := runMergeMode(cli, defs); err != nil {
			fmt.Fprintf(os.Stderr, "h2attack: -merge: %v\n", err)
			return 1
		}
		return 0
	}
	ran := false
	snaps := map[string]*obs.Snapshot{}
	for _, d := range defs {
		// Results do not depend on the worker count, the progress
		// callback or the telemetry plane (trial seeds derive from the
		// trial index).
		cfg := cli.campaignConfig(tp, d.Name, d.Fingerprint(), "", d.Trials)
		var reg *obs.Registry
		if cli.metrics || cli.metricsOut != "" {
			reg = obs.NewRegistry()
		}
		results := d.Collect(cfg, reg)
		var snap *obs.Snapshot
		if reg != nil {
			snap = reg.Snapshot()
		}
		reportSweep(cli, snaps, d.Name, d.Format(results), snap)
		ran = true
	}
	if cli.survey {
		if err := runSurvey(cli, tp); err != nil {
			fmt.Fprintf(os.Stderr, "h2attack: -survey: %v\n", err)
			return 1
		}
		ran = true
	}
	if err := writeMetricsJSON(cli.metricsOut, snaps); err != nil {
		fmt.Fprintf(os.Stderr, "h2attack: -metrics-json: %v\n", err)
		return 1
	}
	if !ran {
		fs.Usage()
		return 2
	}
	return 0
}

// campaignConfig announces one campaign to the telemetry plane and
// builds the pipeline configuration every mode runs it under: -j,
// -checkpoint-every, the live gauges, and one progress callback
// feeding the -progress line, the /status tracker and, for a shard
// slice (slice "i/N"; "" for a whole campaign), the range gauge.
// Checkpointed callers (survey, shard) add -max-trials, the checkpoint
// path, the stop channel and a shard's index range; an in-memory sweep
// always runs whole.
func (cli *cliFlags) campaignConfig(tp *telemetryPlane, name, fingerprint, slice string, total int) pipeline.Config {
	tp.campaign(name, fingerprint, slice, total)
	var inner func(pipeline.Progress)
	if cli.progress {
		inner = progressPrinter(name)
	}
	return pipeline.Config{
		Workers:         cli.jobs,
		CheckpointEvery: cli.ckptEvery,
		OnProgress:      tp.progress(inner, slice != ""),
		Gauges:          tp.liveGauges(),
	}
}

// reportSweep prints one sweep's table followed, with -metrics, by its
// metrics summary, and keeps a non-nil snapshot for -metrics-json.
// Single-process and -merge runs both report through it.
func reportSweep(cli *cliFlags, snaps map[string]*obs.Snapshot, name, table string, snap *obs.Snapshot) {
	fmt.Print(table)
	fmt.Println()
	if snap == nil {
		return
	}
	snaps[name] = snap
	if cli.metrics {
		fmt.Printf("metrics: %s\n%s\n", name, snap.Text())
	}
}

// writeMetricsJSON writes every sweep's snapshot into the -metrics-json
// file; a no-op without the flag or without sweeps.
func writeMetricsJSON(path string, snaps map[string]*obs.Snapshot) error {
	if path == "" || len(snaps) == 0 {
		return nil
	}
	data, err := obs.MarshalSweeps(snaps)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
