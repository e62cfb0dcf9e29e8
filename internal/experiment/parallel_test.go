package experiment

import (
	"reflect"
	"testing"

	"repro/internal/pipeline"
)

// The worker pool must be invisible in the results: every sweep's
// trial results are a pure function of (trials, seed0), so running the
// same sweep serially and at 8 workers must produce deeply equal
// results, and so equal rows from every aggregator. Trial counts are
// small; the 100-trial equivalence is checked on the full CLI output
// in EXPERIMENTS.md.

func TestSweepsIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, d := range Sweeps(3, 1) {
		s, p := d.Run(Workers(1)), d.Run(Workers(8))
		if !reflect.DeepEqual(s, p) {
			t.Errorf("%s results differ across worker counts:\nserial:   %+v\nparallel: %+v", d.Name, s, p)
		}
		if d.Format(s) != d.Format(p) {
			t.Errorf("%s table differs across worker counts", d.Name)
		}
	}
}

func TestSweepProgressCoversWholeSweep(t *testing.T) {
	// All configurations of a table share one progress stream: Table I
	// has 4 jitter values, so Total must be 4*trials, and the stream
	// must end exactly at completion.
	var last pipeline.Progress
	calls := 0
	tableIDef(3, 1).Collect(pipeline.Config{Workers: 2, OnProgress: func(p pipeline.Progress) {
		last = p
		calls++
	}}, nil)
	if calls != 12 {
		t.Errorf("progress callbacks = %d, want one per trial (12)", calls)
	}
	if last.Completed != 12 || last.Total != 12 {
		t.Errorf("final progress = %d/%d, want 12/12", last.Completed, last.Total)
	}
}

func TestZeroTrialSweep(t *testing.T) {
	// A zero-trial sweep must not panic or hang; rows carry NaN
	// percentages (0/0) exactly as the serial code always did.
	rows := tableIRows(0, tableIDef(0, 1).Run(Workers(8)))
	if len(rows) != 4 {
		t.Errorf("zero-trial TableI rows = %d, want 4", len(rows))
	}
}
