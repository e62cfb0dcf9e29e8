package analysis_test

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/experiment"
	"repro/internal/trace"
	"repro/internal/website"
)

// mapCopies is the map-keyed reconstruction the dense copy table
// replaced, kept as the reference: one map[CopyKey]int lookup per wire
// frame, transmissions in first-occurrence order, then sorted by first
// wire byte.
func mapCopies(tr *trace.Trace) []analysis.CopyTransmission {
	byKey := map[analysis.CopyKey]int{}
	var arena []analysis.CopyTransmission
	var wire []trace.FrameEvent
	for _, f := range tr.Frames {
		if f.Len == 0 {
			continue
		}
		wire = append(wire, f)
		k := analysis.CopyKey{ObjectID: f.ObjectID, CopyID: f.CopyID}
		idx, ok := byKey[k]
		if !ok {
			idx = len(arena)
			byKey[k] = idx
			arena = append(arena, analysis.CopyTransmission{Key: k, StreamID: f.StreamID, Start: f.Offset, StartTime: f.Time})
		}
		ct := &arena[idx]
		ct.Bytes += f.Len
		ct.End = max(ct.End, f.Offset+int64(f.WireLen))
		ct.EndTime = max(ct.EndTime, f.Time)
		ct.Complete = ct.Complete || f.End
	}
	sort.Slice(wire, func(i, j int) bool { return wire[i].Offset < wire[j].Offset })
	foreign := func(x *analysis.CopyTransmission, f trace.FrameEvent) bool {
		y := &arena[byKey[analysis.CopyKey{ObjectID: f.ObjectID, CopyID: f.CopyID}]]
		return y != x && x.Start < y.End && y.Start < x.End
	}
	for i, f := range wire {
		x := &arena[byKey[analysis.CopyKey{ObjectID: f.ObjectID, CopyID: f.CopyID}]]
		if (i > 0 && foreign(x, wire[i-1])) || (i+1 < len(wire) && foreign(x, wire[i+1])) {
			x.InterleavedBytes += f.Len
		}
	}
	for i := range arena {
		if x := &arena[i]; x.Bytes > 0 {
			x.Degree = float64(x.InterleavedBytes) / float64(x.Bytes)
		}
	}
	sort.Slice(arena, func(i, j int) bool { return arena[i].Start < arena[j].Start })
	return arena
}

// TestCopyTableMatchesMap scores the ground truth of golden-style
// trials (every adversary mode on the paper site) and of corpus
// sites with one reused Analyzer, and checks every transmission
// against the map-keyed reference.
func TestCopyTableMatchesMap(t *testing.T) {
	var an analysis.Analyzer
	w := experiment.NewWorld()
	check := func(name string) {
		t.Helper()
		sess, _ := w.Last()
		want := mapCopies(sess.GroundTruth)
		got := an.Copies(sess.GroundTruth)
		if len(want) == 0 {
			t.Fatalf("%s: no transmissions", name)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d transmissions, reference has %d", name, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(*got[i], want[i]) {
				t.Fatalf("%s: transmission %d = %+v, reference %+v", name, i, *got[i], want[i])
			}
		}
	}
	modes := []experiment.TrialParams{
		{Mode: experiment.ModePassive},
		{Mode: experiment.ModeJitter, Spacing: 50 * time.Millisecond},
		{Mode: experiment.ModeFullAttack},
	}
	for seed := int64(1); seed <= 4; seed++ {
		for _, p := range modes {
			p.Seed = seed
			w.RunTrial(p)
			check("golden")
		}
	}
	corpus := website.NewCorpus(website.CorpusConfig{Seed: 9, Sites: 12})
	for i := 0; i < corpus.Len(); i++ {
		w.RunSiteTrial(corpus.Build(i), experiment.CorpusTrialParams{Site: i, Seed: int64(100 + i)})
		check("survey")
	}
}
