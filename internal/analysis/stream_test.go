package analysis

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/trace"
)

// testConfig mirrors core.Predictor's protocol defaults.
func testConfig() SegmentConfig {
	return SegmentConfig{
		FullCipher:        1400 + 9 + 24,
		MinDataCipher:     120,
		PerRecordOverhead: 24 + 9,
		IdleGap:           600 * time.Millisecond,
	}
}

// referenceRuns is an independent transliteration of the post-hoc
// inference pass (core's test-only inferAppend minus the size-table
// match): the oracle the streaming engine must agree with.
func referenceRuns(cfg SegmentConfig, records []trace.RecordObs) []Run {
	var out []Run
	var runSize, runRecs int
	var start, lastSeen time.Duration
	for _, r := range records {
		if r.Dir != trace.ServerToClient || !r.IsAppData() {
			continue
		}
		if runRecs > 0 && cfg.IdleGap > 0 && r.Time-lastSeen > cfg.IdleGap {
			runSize, runRecs = 0, 0
		}
		lastSeen = r.Time
		if r.Length < cfg.MinDataCipher {
			runSize, runRecs = 0, 0
			continue
		}
		if runRecs == 0 {
			start = r.Time
		}
		payload := r.Length - cfg.PerRecordOverhead
		if payload < 0 {
			payload = 0
		}
		runSize += payload
		runRecs++
		if r.Length < cfg.FullCipher {
			out = append(out, Run{Size: runSize, Records: runRecs, Start: start, End: r.Time})
			runSize, runRecs = 0, 0
		}
	}
	return out
}

// feedAll pushes a record stream through a segmenter one observation
// at a time, collecting the completed runs — the streaming consumer.
func feedAll(g *Segmenter, cfg SegmentConfig, records []trace.RecordObs) []Run {
	g.Reset(cfg)
	var out []Run
	for _, r := range records {
		if run, ok := g.Feed(r); ok {
			out = append(out, run)
		}
	}
	return out
}

// randomStream generates an adversarially messy record stream: full
// and sub-full data records, control-size records, wrong-direction
// and non-appdata noise, idle gaps, boundary lengths.
func randomStream(rng *rand.Rand, n int) []trace.RecordObs {
	cfg := testConfig()
	recs := make([]trace.RecordObs, 0, n)
	now := time.Duration(0)
	for i := 0; i < n; i++ {
		// Gaps span 0..1.3×IdleGap, so idle discards occur but do not
		// dominate.
		now += time.Duration(rng.Int63n(int64(cfg.IdleGap) * 13 / 10))
		r := trace.RecordObs{Time: now, Dir: trace.ServerToClient, ContentType: 23}
		switch rng.Intn(10) {
		case 0: // control-size record (HEADERS / SETTINGS)
			r.Length = 20 + rng.Intn(cfg.MinDataCipher-20)
		case 1: // client-direction noise
			r.Dir = trace.ClientToServer
			r.Length = 60 + rng.Intn(400)
		case 2: // handshake-type noise
			r.ContentType = 22
			r.Length = 100 + rng.Intn(2000)
		case 3: // boundary lengths around the thresholds
			edges := []int{cfg.MinDataCipher - 1, cfg.MinDataCipher, cfg.MinDataCipher + 1,
				cfg.PerRecordOverhead - 1, cfg.PerRecordOverhead,
				cfg.FullCipher - 1, cfg.FullCipher, cfg.FullCipher + 1}
			r.Length = edges[rng.Intn(len(edges))]
			if r.Length < 0 {
				r.Length = 0
			}
		case 4, 5: // delimiting sub-full data record
			r.Length = cfg.MinDataCipher + rng.Intn(cfg.FullCipher-cfg.MinDataCipher)
		default: // full-size data record
			r.Length = cfg.FullCipher
		}
		recs = append(recs, r)
	}
	return recs
}

func TestStreamingMatchesPostHoc(t *testing.T) {
	cfg := testConfig()
	var g Segmenter
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		recs := randomStream(rng, 50+rng.Intn(400))
		want := referenceRuns(cfg, recs)
		got := feedAll(&g, cfg, recs) // reused across seeds on purpose
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: streaming runs diverge from post-hoc\n got %+v\nwant %+v", seed, got, want)
		}
	}
}

func TestSegmenterFiltersNonResponseData(t *testing.T) {
	cfg := testConfig()
	var g Segmenter
	g.Reset(cfg)
	noise := []trace.RecordObs{
		{Time: 0, Dir: trace.ClientToServer, ContentType: 23, Length: cfg.FullCipher},
		{Time: 1, Dir: trace.ServerToClient, ContentType: 22, Length: cfg.FullCipher},
		{Time: 2, Dir: trace.ClientToServer, ContentType: 20, Length: 500},
	}
	for _, r := range noise {
		if _, ok := g.Feed(r); ok {
			t.Fatalf("non-response record %+v completed a run", r)
		}
	}
	// The noise must not have touched run state: a lone sub-full data
	// record now yields a single-record run.
	run, ok := g.Feed(trace.RecordObs{Time: 3, Dir: trace.ServerToClient, ContentType: 23, Length: 500})
	if !ok || run.Records != 1 || run.Size != 500-cfg.PerRecordOverhead {
		t.Fatalf("run = %+v ok = %v after noise", run, ok)
	}
}

func TestSegmenterControlRecordDiscardsOpenRun(t *testing.T) {
	cfg := testConfig()
	var g Segmenter
	g.Reset(cfg)
	resp := func(at time.Duration, length int) trace.RecordObs {
		return trace.RecordObs{Time: at, Dir: trace.ServerToClient, ContentType: 23, Length: length}
	}
	g.Feed(resp(0, cfg.FullCipher))
	if _, ok := g.Feed(resp(1, 60)); ok { // control-size record
		t.Fatal("control record completed a run")
	}
	run, ok := g.Feed(resp(2, 800))
	if !ok || run.Records != 1 {
		t.Fatalf("run after control discard = %+v ok=%v, want fresh 1-record run", run, ok)
	}
}

func TestSegmenterIdleGapDiscardsOpenRun(t *testing.T) {
	cfg := testConfig()
	var g Segmenter
	g.Reset(cfg)
	resp := func(at time.Duration, length int) trace.RecordObs {
		return trace.RecordObs{Time: at, Dir: trace.ServerToClient, ContentType: 23, Length: length}
	}
	g.Feed(resp(0, cfg.FullCipher))
	run, ok := g.Feed(resp(cfg.IdleGap+time.Millisecond, 800))
	if !ok {
		t.Fatal("delimiting record after idle gap did not complete a run")
	}
	if run.Records != 1 || run.Size != 800-cfg.PerRecordOverhead {
		t.Fatalf("run = %+v, want the stale full record discarded", run)
	}
}

func TestSegmenterResetDropsTrailingRun(t *testing.T) {
	cfg := testConfig()
	var g Segmenter
	g.Reset(cfg)
	g.Feed(trace.RecordObs{Time: 0, Dir: trace.ServerToClient, ContentType: 23, Length: cfg.FullCipher})
	g.Reset(cfg) // new trial: the unterminated run must not leak
	run, ok := g.Feed(trace.RecordObs{Time: 1, Dir: trace.ServerToClient, ContentType: 23, Length: 700})
	if !ok || run.Records != 1 || run.Size != 700-cfg.PerRecordOverhead {
		t.Fatalf("run after Reset = %+v ok=%v", run, ok)
	}
}

// randomTrace builds a ground-truth frame trace with duplicate copies,
// HEADERS markers and out-of-order wire offsets, for analyzer reuse
// testing.
func randomTrace(rng *rand.Rand) *trace.Trace {
	tr := &trace.Trace{}
	nObjects := 1 + rng.Intn(12)
	off := int64(0)
	now := time.Duration(0)
	type copyRef struct{ obj, cp int }
	var open []copyRef
	for o := 0; o < nObjects; o++ {
		copies := 1 + rng.Intn(3)
		for c := 0; c < copies; c++ {
			open = append(open, copyRef{obj: o + 1, cp: c})
		}
	}
	rng.Shuffle(len(open), func(i, j int) { open[i], open[j] = open[j], open[i] })
	for _, ref := range open {
		frames := 1 + rng.Intn(4)
		for f := 0; f < frames; f++ {
			if rng.Intn(8) == 0 {
				tr.AddFrame(trace.FrameEvent{ObjectID: ref.obj, CopyID: ref.cp, Len: 0, WireLen: 70, Time: now})
			}
			n := 100 + rng.Intn(1400)
			tr.AddFrame(trace.FrameEvent{
				Time: now, StreamID: uint32(2*ref.obj + 1), ObjectID: ref.obj, CopyID: ref.cp,
				Len: n, Offset: off, WireLen: n + 38, End: f == frames-1 && rng.Intn(4) > 0,
			})
			off += int64(n + 38)
			now += time.Duration(rng.Intn(3)) * time.Millisecond
		}
	}
	return tr
}

// deref flattens transmissions to values so pointer identity does not
// mask content differences (Analyzer.Copies returns arena pointers).
func deref(copies []*CopyTransmission) []CopyTransmission {
	out := make([]CopyTransmission, len(copies))
	for i, c := range copies {
		out[i] = *c
	}
	return out
}

func TestAnalyzerMatchesCopyTransmissions(t *testing.T) {
	var reused Analyzer
	for seed := int64(1); seed <= 40; seed++ {
		tr := randomTrace(rand.New(rand.NewSource(seed)))
		want := deref(CopyTransmissions(tr))
		if got := deref(reused.Copies(tr)); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: reused Copies diverges\n got %+v\nwant %+v", seed, got, want)
		}
	}
}

// TestAnalyzerCopiesAreFresh pins the retention contract split:
// CopyTransmissions results belong to the caller, while a reused
// Analyzer's Copies results live in its arena.
func TestAnalyzerCopiesAreFresh(t *testing.T) {
	var a Analyzer
	tr1 := randomTrace(rand.New(rand.NewSource(7)))
	first := CopyTransmissions(tr1)
	snapshot := deref(first)
	// Scoring more traces, through CopyTransmissions or a reused
	// analyzer, must not mutate previously returned results.
	for seed := int64(8); seed <= 12; seed++ {
		CopyTransmissions(randomTrace(rand.New(rand.NewSource(seed))))
		a.Copies(randomTrace(rand.New(rand.NewSource(seed + 100))))
	}
	if !reflect.DeepEqual(deref(first), snapshot) {
		t.Fatal("CopyTransmissions result mutated by later calls")
	}
	// The arena is reused: a second Copies call hands back the same
	// storage once it has grown to the trace's size.
	c1 := a.Copies(tr1)
	c2 := a.Copies(tr1)
	if len(c1) == 0 || c1[0] != c2[0] {
		t.Fatal("Analyzer.Copies did not reuse its arena")
	}
	if !reflect.DeepEqual(deref(c2), snapshot) {
		t.Fatal("arena-backed Copies diverges from CopyTransmissions")
	}
}
