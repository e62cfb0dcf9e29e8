// Package pipeline is the streaming experiment surface of the
// repository: a generator → executor → exporter pipeline that executes
// seeded trial campaigns of any length in bounded memory, with
// checkpointed progress and byte-identical resume.
//
// The three stage contracts are deliberately small:
//
//   - A Generator describes the campaign: how many trials, and the
//     parameters of trial i. Params(i) must be a cheap pure function
//     of i — that one rule is what makes the whole pipeline
//     deterministic at any worker count, resumable from any index,
//     and free to re-derive parameters instead of storing them.
//   - The executor fans trial indices across a worker pool, each
//     worker holding one reusable state arena, and delivers results in
//     strict index order through a bounded reorder window, so memory
//     stays bounded no matter how long the campaign runs. A panicking
//     trial is isolated and reported as a TrialError. Every worker
//     count, -j 1 included, runs the same claim/deliver loop, and
//     Config is the one place its knobs are declared.
//   - Exporters consume the ordered (index, params, result) stream:
//     accumulate a table, append a JSONL line, feed a metrics
//     registry. Because the stream order is index order, an
//     exporter's output is a pure function of the campaign
//     definition — the same bytes at -j 1 and -j 64.
//
// Checkpointing rides on the same purity. Every CheckpointEvery
// trials the pipeline collects each exporter's serialized state plus
// the next trial index into one JSON checkpoint file (written
// atomically). A resumed run restores the exporters, re-verifies the
// campaign fingerprint, and continues from the recorded index; trials
// after the checkpoint re-execute identically, so the final exporter
// output is byte-identical to an uninterrupted run. A kill between
// checkpoints loses at most CheckpointEvery trials of work, never
// output integrity: exporters whose sinks can hold partial trailing
// data (the JSONL file) truncate back to their checkpointed state on
// restore. A checkpoint marked done resumes the same way with nothing
// left to run, so rerunning a finished campaign restores and closes
// every exporter and reproduces the campaign's final output.
//
// Every sweep in this repository executes through Run — the paper's
// six fixed sweeps (via experiment's Fixed generators and a Collector
// exporter) and the synthetic-corpus survey campaigns (via the
// website corpus generator and the JSONL/summary/obs-state exporters) are
// configurations of this one path, not separate harnesses.
package pipeline

import (
	"encoding/json"
	"fmt"

	"repro/internal/telemetry"
)

// Config tunes one Run. The zero value runs on all CPUs with no
// checkpointing.
type Config struct {
	// Workers is the number of worker goroutines executing trials;
	// zero or negative means runtime.GOMAXPROCS(0). It never affects
	// exported bytes.
	Workers int

	// Batch is the number of consecutive trial indices one worker
	// claims at a time. Chunks are aligned to multiples of Batch (the
	// first after a resume may be short), so set it to the campaign's
	// parameter period — e.g. the survey's SiteTrials — and per-worker
	// caches (built sites, primed size tables) serve the whole period
	// instead of being diluted across workers. Zero claims one index.
	// Never affects exported bytes.
	Batch int

	// OnProgress receives completion/ETA snapshots, serialized, after
	// every trial. It runs under the executor's lock; keep it cheap.
	OnProgress func(Progress)

	// Start is the first trial index this invocation executes (default
	// 0). A checkpointed resume overrides it with the recorded next
	// index. Together with End it confines the run to one contiguous
	// slice [Start, End) of the campaign — the process-level
	// partitioning internal/shard builds on: because Params(i) is pure,
	// a campaign sliced across processes exports exactly the lines a
	// single process would for those indices.
	Start int

	// End, when positive, bounds execution to trial indices below it;
	// zero means the full campaign (Generator.Trials()).
	End int

	// Checkpoint is the checkpoint file path; empty disables
	// checkpointing (and resume).
	Checkpoint string

	// CheckpointEvery is the number of exported trials between
	// checkpoint writes. Zero means 1000. The final state at
	// completion or stop is always checkpointed.
	CheckpointEvery int

	// MaxTrials, when positive, stops the run after that many trials
	// have been exported by this invocation, checkpointing the stop
	// point. The campaign is resumed by running again with the same
	// checkpoint file — the chunked execution mode for multi-hour
	// campaigns (and the deterministic "kill" used by the resume
	// tests). It is implemented as a tighter execution end bound, so
	// no trial beyond the stop point ever runs: state recorded during
	// execution (the shard obs snapshot) exactly matches the exported
	// prefix at the final checkpoint.
	MaxTrials int

	// Stop, when non-nil, requests a graceful stop when it becomes
	// readable (e.g. closed on SIGINT): workers claim no further
	// trials, trials already claimed complete and export, and the
	// pipeline checkpoints the stop point, returning with
	// Summary.Done == false. At most Workers×Batch trials execute
	// after the signal. Draining — rather than discarding in-flight
	// trials — is what keeps execution-time side effects (metrics
	// shards) exact across the stop/resume boundary.
	Stop <-chan struct{}

	// Gauges, when non-nil, receives live health samples: the worker
	// pool's size, busy count, claims and busy clock, reorder-ring
	// occupancy, and the exported-trial/byte cursors and checkpoint
	// lag. Setting it enables per-trial wall timing (the busy clock).
	// Write-only from the pipeline's perspective: the telemetry
	// status server samples it, nothing is read back, so exported
	// bytes are identical with the plane on or off. Nil (default)
	// disables it at zero cost.
	Gauges *telemetry.Gauges
}

// Summary reports what one Run invocation did.
type Summary struct {
	// Name is the generator's campaign name.
	Name string

	// Trials is the total campaign size.
	Trials int

	// Start is the index this invocation began at (non-zero on
	// resume or for a shard range).
	Start int

	// End is the index this invocation runs up to: Trials for a full
	// campaign, Config.End for a shard range.
	End int

	// Exported counts trials exported so far (== the next index to
	// run; Start + this run's exports).
	Exported int

	// Failures are this invocation's panicked trials, in index order
	// (their results were exported as zero values, or as the
	// generator's PanicResult).
	Failures []*TrialError

	// Done reports whether the campaign range completed. False means
	// a MaxTrials/Stop stop was checkpointed for resume.
	Done bool
}

// Run executes gen's campaign through a worker pool and streams every
// trial, in index order, to each exporter. newState builds one
// reusable worker arena (e.g. an experiment.World) and trial executes
// one trial in it; trial(state, gen.Params(i)) must depend only on i
// (see execute for the purity contract).
//
// With cfg.Checkpoint set, Run resumes from an existing checkpoint
// file (restoring exporter state and the next index, after verifying
// the generator fingerprint) and periodically checkpoints progress.
// A campaign whose checkpoint says done is resumed like any other: its
// exporters are restored, no trial executes, and they close with
// done=true, so a rerun of a finished campaign reproduces its final
// output instead of an empty one.
func Run[P, R, S any](cfg Config, gen Generator[P], newState func() S, trial func(state S, p P) R, exporters ...Exporter[P, R]) (Summary, error) {
	n := gen.Trials()
	end := cfg.End
	if end <= 0 || end > n {
		end = n
	}
	sum := Summary{Name: gen.Name(), Trials: n, Start: cfg.Start, End: end}
	if cfg.Start < 0 || cfg.Start > end {
		return sum, fmt.Errorf("pipeline: range [%d, %d) outside campaign of %d trials", cfg.Start, end, n)
	}

	var ck *checkpoint
	resumed := false
	if cfg.Checkpoint != "" {
		loaded, err := loadCheckpoint(cfg.Checkpoint)
		if err != nil {
			return sum, err
		}
		resumed = loaded != nil
		if loaded != nil {
			if err := loaded.verify(gen.Name(), gen.Fingerprint(), n, cfg.Start, end); err != nil {
				return sum, err
			}
			for _, e := range exporters {
				state, ok := loaded.Exporters[e.Name()]
				if !ok {
					return sum, fmt.Errorf("pipeline: checkpoint %s has no state for exporter %q", cfg.Checkpoint, e.Name())
				}
				if err := e.Restore(state); err != nil {
					return sum, fmt.Errorf("pipeline: restore exporter %q: %w", e.Name(), err)
				}
			}
			sum.Start = loaded.Next
		}
		ck = newCheckpoint(cfg.Checkpoint, gen.Name(), gen.Fingerprint(), n, cfg.Start, end)
	}

	// checkpointStates collects every exporter's serialized state; a
	// failing exporter aborts the save so a checkpoint never records
	// a partial exporter set.
	checkpointStates := func() (map[string]json.RawMessage, error) {
		states := make(map[string]json.RawMessage, len(exporters))
		for _, e := range exporters {
			state, err := e.Checkpoint()
			if err != nil {
				return nil, fmt.Errorf("pipeline: checkpoint exporter %q: %w", e.Name(), err)
			}
			if state == nil {
				state = json.RawMessage("null")
			}
			states[e.Name()] = state
		}
		return states, nil
	}
	g := cfg.Gauges
	saveCheckpoint := func(next int, done bool) error {
		states, err := checkpointStates()
		if err != nil {
			return err
		}
		if err := ck.save(next, done, states); err != nil {
			return err
		}
		// Checkpoint lag is read as GExportedTrials-GCkptTrials and
		// GExportBytes-GCkptBytes: both cursors are sampled after the
		// save, so the lag gauges describe durable state.
		g.Set(telemetry.GCkptTrials, int64(next))
		g.Set(telemetry.GCkptBytes, g.Load(telemetry.GExportBytes))
		return nil
	}

	meta := Meta{Name: gen.Name(), Trials: n, Start: sum.Start, Resumed: resumed, Gauges: cfg.Gauges}
	for _, e := range exporters {
		if err := e.Begin(meta); err != nil {
			return sum, fmt.Errorf("pipeline: exporter %q: %w", e.Name(), err)
		}
	}

	every := cfg.CheckpointEvery
	if every <= 0 {
		every = 1000
	}
	// MaxTrials is a tighter end bound, not an emit-side abort: the
	// executor runs exactly [sum.Start, execEnd), so nothing runs
	// beyond the checkpointed stop point.
	execEnd := end
	if cfg.MaxTrials > 0 && sum.Start+cfg.MaxTrials < execEnd {
		execEnd = sum.Start + cfg.MaxTrials
	}
	panicResult, _ := any(gen).(PanicResulter[P, R])
	exported := 0
	var runErr error
	execute(cfg, sum.Start, execEnd, newState, func(s S, i int) R {
		return trial(s, gen.Params(i))
	}, func(i int, result R, err *TrialError) bool {
		// Exporters run here, on the executor's serialized,
		// index-ordered emit callback.
		p := gen.Params(i)
		if err != nil {
			sum.Failures = append(sum.Failures, err)
			if panicResult != nil {
				result = panicResult.PanicResult(p)
			}
		}
		for _, e := range exporters {
			if expErr := e.Export(i, p, result); expErr != nil {
				runErr = fmt.Errorf("pipeline: exporter %q at trial %d: %w", e.Name(), i, expErr)
				return false
			}
		}
		exported++
		g.Set(telemetry.GExportedTrials, int64(i+1))
		if ck != nil && exported%every == 0 {
			if ckErr := saveCheckpoint(i+1, false); ckErr != nil {
				runErr = ckErr
				return false
			}
		}
		return true
	})

	sum.Exported = sum.Start + exported
	if runErr != nil {
		// The exporters may be mid-trial; close them without the
		// done-side effects and leave the last periodic checkpoint as
		// the resume point.
		for _, e := range exporters {
			_ = e.Close(false)
		}
		return sum, runErr
	}
	sum.Done = sum.Exported == end
	if ck != nil {
		if err := saveCheckpoint(sum.Exported, sum.Done); err != nil {
			return sum, err
		}
	}
	for _, e := range exporters {
		if err := e.Close(sum.Done); err != nil {
			return sum, fmt.Errorf("pipeline: close exporter %q: %w", e.Name(), err)
		}
	}
	return sum, nil
}
