package main

import (
	"reflect"
	"testing"

	"repro/internal/experiment"
	"repro/internal/obs"
)

// TestEventsReplaysTable2Trial pins what /events replays: the trial
// -table2 runs at that seed. A world running that campaign's own trial
// parameters records the same ring.
func TestEventsReplaysTable2Trial(t *testing.T) {
	const trials, seed0 = 3, 11
	var table2 experiment.SweepDef
	for _, d := range experiment.Sweeps(trials, seed0) {
		if d.Name == "table2" {
			table2 = d
		}
	}
	replay := newEventReplayer()
	w, rec := experiment.NewWorld(), obs.NewRecorder(4096)
	w.SetRecorder(rec)
	for i := 0; i < table2.Trials; i++ {
		seed := seed0 + int64(i)
		got, err := replay(seed)
		if err != nil {
			t.Fatal(err)
		}
		w.RunTrial(table2.Params(i))
		if want := rec.Events(); len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("/events?seed=%d replayed %d events, want table2 trial %d's %d", seed, len(got), i, len(want))
		}
	}
}
