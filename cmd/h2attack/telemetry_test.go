package main

import (
	"reflect"
	"testing"

	"repro/internal/experiment"
)

// TestReplayIsTable2Trial pins what -events, -events-trace and /events
// replay: the full-attack trial on the paper site, which is -table2's
// trial at that seed. A campaign of any other sweep or a survey runs
// a different trial at the same seed.
func TestReplayIsTable2Trial(t *testing.T) {
	const trials, seed0 = 3, 11
	var table2 experiment.SweepDef
	for _, d := range experiment.Sweeps(trials, seed0) {
		if d.Name == "table2" {
			table2 = d
		}
	}
	results := table2.Run()
	if len(results) != trials {
		t.Fatalf("table2 ran %d trials, want %d", len(results), trials)
	}
	var tr trialReplayer
	for i, want := range results {
		seed := seed0 + int64(i)
		if got := tr.replay(seed); !reflect.DeepEqual(got, want) {
			t.Errorf("replay(%d) = %+v, want table2's trial %+v", seed, got, want)
		}
		if len(tr.rec.Events()) == 0 {
			t.Errorf("replay(%d) recorded no events", seed)
		}
	}
}
