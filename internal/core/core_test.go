package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tlsrec"
	"repro/internal/trace"
	"repro/internal/website"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// --- Controller ---

func controllerFixture(t *testing.T) (*sim.Simulator, *Controller, *[]time.Duration, *int) {
	t.Helper()
	s := sim.New(1)
	var deliveries []time.Duration
	var serverGot int
	path := netem.NewPath(s, netem.PathConfig{},
		func(*netem.Packet) {},
		func(*netem.Packet) { serverGot++; deliveries = append(deliveries, s.Now()) },
	)
	ctl := NewController(s, path)
	ctl.Install()
	sendReq := func() { path.SendFromClient(&netem.Packet{Payload: wiretest.Lit([]byte("GET"))}) }
	_ = sendReq
	t.Cleanup(func() {})
	// expose the path via closure-captured send below
	controllerTestPath = path
	return s, ctl, &deliveries, &serverGot
}

var controllerTestPath *netem.Path

func TestControllerSpacingEnforced(t *testing.T) {
	s, ctl, deliveries, _ := controllerFixture(t)
	ctl.SetSpacing(50 * time.Millisecond)
	for i := 0; i < 5; i++ {
		controllerTestPath.SendFromClient(&netem.Packet{Payload: wiretest.Lit([]byte("GET"))})
	}
	s.Run(math.MaxInt64)
	if len(*deliveries) != 5 {
		t.Fatalf("delivered %d packets", len(*deliveries))
	}
	for i := 1; i < len(*deliveries); i++ {
		gap := (*deliveries)[i] - (*deliveries)[i-1]
		// Grid spacing minus the random component's worst-case
		// inversion still leaves a positive floor near zero; the MEAN
		// gap must approximate the spacing.
		if gap < 0 {
			t.Errorf("deliveries out of order at %d", i)
		}
	}
	total := (*deliveries)[len(*deliveries)-1] - (*deliveries)[0]
	if total < 3*50*time.Millisecond {
		t.Errorf("5 packets spread over %v, want >= 150ms of spacing", total)
	}
	if ctl.Stats.Held == 0 {
		t.Error("no packets held")
	}
}

func TestControllerPureAcksPass(t *testing.T) {
	s, ctl, deliveries, _ := controllerFixture(t)
	ctl.SetSpacing(100 * time.Millisecond)
	controllerTestPath.SendFromClient(&netem.Packet{Payload: wiretest.Lit([]byte("GET1"))})
	controllerTestPath.SendFromClient(&netem.Packet{}) // pure ACK
	s.Run(math.MaxInt64)
	if len(*deliveries) != 2 {
		t.Fatalf("delivered %d", len(*deliveries))
	}
	// The ACK (second send) must not be delayed by the grid: it
	// arrives before or at the held GET.
	if ctl.Stats.Held == 0 {
		t.Skip("first packet not held; nothing to compare")
	}
}

func TestControllerTargetedDrops(t *testing.T) {
	s, ctl, _, _ := controllerFixture(t)
	clientGot := 0
	// rewire client receive counting by sending from server side
	path := controllerTestPath
	path.Mbox.Interceptor = ctl.Intercept
	_ = clientGot
	ctl.StartDrops(1.0, time.Second) // drop everything for 1s
	dropped0 := ctl.Stats.Dropped
	for i := 0; i < 10; i++ {
		path.SendFromServer(&netem.Packet{Payload: wiretest.Lit([]byte("data"))})
	}
	path.SendFromServer(&netem.Packet{}) // pure ACK: never dropped
	s.Run(math.MaxInt64)
	if got := ctl.Stats.Dropped - dropped0; got != 10 {
		t.Errorf("dropped %d, want 10 (payload only)", got)
	}
	// After the window, packets pass again.
	s.RunUntil(s.Now() + 2*time.Second)
	if ctl.DroppingNow() {
		t.Error("still dropping past the window")
	}
	ctl.StopDrops()
	before := ctl.Stats.Dropped
	path.SendFromServer(&netem.Packet{Payload: wiretest.Lit([]byte("data"))})
	s.Run(math.MaxInt64)
	if ctl.Stats.Dropped != before {
		t.Error("dropped after StopDrops")
	}
}

func TestControllerBandwidth(t *testing.T) {
	s, ctl, deliveries, _ := controllerFixture(t)
	ctl.SetBandwidth(1_000_000) // 1 Mbps
	controllerTestPath.SendFromClient(&netem.Packet{Payload: wiretest.Lit(make([]byte, 1210))})
	s.Run(math.MaxInt64)
	if len(*deliveries) != 1 {
		t.Fatal("packet lost")
	}
	// 1250 wire bytes at 1 Mbps = 10ms serialization.
	if (*deliveries)[0] < 10*time.Millisecond {
		t.Errorf("throttled delivery at %v, want >= 10ms", (*deliveries)[0])
	}
}

// --- Monitor ---

// sealed returns one record carrying plain as literal bytes.
func sealed(ct uint8, plain []byte) wire.Bytes {
	var b wire.Bytes
	tlsrec.SealHeader(&b, ct, len(plain))
	b.AppendLiteral(plain)
	tlsrec.SealTrailer(&b)
	return b
}

func TestMonitorCountsGets(t *testing.T) {
	s := sim.New(1)
	m := NewMonitor(s)
	var gets []int
	m.OnGet = func(n int) { gets = append(gets, n) }

	// First record: SETTINGS (skipped).
	m.Tap(trace.ClientToServer, sealed(tlsrec.TypeAppData, make([]byte, 30)))
	// Three GET-sized records.
	for i := 0; i < 3; i++ {
		m.Tap(trace.ClientToServer, sealed(tlsrec.TypeAppData, make([]byte, 50)))
	}
	// A tiny control record (SETTINGS ack): not counted.
	m.Tap(trace.ClientToServer, sealed(tlsrec.TypeAppData, make([]byte, 9)))
	// A data-sized record: not a GET.
	m.Tap(trace.ClientToServer, sealed(tlsrec.TypeAppData, make([]byte, 1400)))

	if m.GetCount() != 3 {
		t.Errorf("GetCount = %d, want 3", m.GetCount())
	}
	if len(gets) != 3 || gets[2] != 3 {
		t.Errorf("OnGet calls = %v", gets)
	}
}

func TestMonitorDetectsResetBurst(t *testing.T) {
	s := sim.New(1)
	m := NewMonitor(s)
	resets := 0
	m.OnResetBurst = func() { resets++ }
	m.Tap(trace.ClientToServer, sealed(tlsrec.TypeAppData, make([]byte, 30))) // SETTINGS
	// A 40-stream RST batch: 40*13 = 520 plaintext bytes.
	m.Tap(trace.ClientToServer, sealed(tlsrec.TypeAppData, make([]byte, 520)))
	if resets != 1 {
		t.Errorf("reset bursts = %d, want 1", resets)
	}
	if m.GetCount() != 0 {
		t.Errorf("reset burst counted as GET")
	}
}

func TestMonitorSplitRecordsAcrossTaps(t *testing.T) {
	s := sim.New(1)
	m := NewMonitor(s)
	stream := sealed(tlsrec.TypeAppData, make([]byte, 30))
	stream.Append(sealed(tlsrec.TypeAppData, make([]byte, 60)))
	// Feed byte by byte: records must still parse exactly once.
	for i := 0; i < stream.Len(); i++ {
		m.Tap(trace.ClientToServer, stream.Slice(i, i+1))
	}
	if m.GetCount() != 1 {
		t.Errorf("GetCount = %d, want 1", m.GetCount())
	}
	if len(m.Records) != 2 {
		t.Errorf("records = %d, want 2", len(m.Records))
	}
}

func TestMonitorResponseRecords(t *testing.T) {
	s := sim.New(1)
	m := NewMonitor(s)
	m.Tap(trace.ServerToClient, sealed(tlsrec.TypeAppData, make([]byte, 1400)))
	m.Tap(trace.ServerToClient, sealed(tlsrec.TypeHandshake, make([]byte, 40)))
	m.Tap(trace.ClientToServer, sealed(tlsrec.TypeAppData, make([]byte, 50)))
	rr := m.ResponseRecords()
	if len(rr) != 1 || rr[0].Length != 1400+tlsrec.Overhead {
		t.Errorf("ResponseRecords = %+v", rr)
	}
}

// --- Predictor ---

// rec builds a server→client app-data record observation.
func rec(at time.Duration, plainLen int) trace.RecordObs {
	return trace.RecordObs{
		Time: at, Dir: trace.ServerToClient,
		ContentType: tlsrec.TypeAppData,
		Length:      plainLen + tlsrec.Overhead,
	}
}

// objRecords renders a clean transmission of n bytes as records:
// HEADERS (small) + full chunks + the sub-full delimiter.
func objRecords(at time.Duration, n int) []trace.RecordObs {
	out := []trace.RecordObs{rec(at, 40)} // response HEADERS
	for n > 1400 {
		out = append(out, rec(at, 1400+9))
		n -= 1400
	}
	out = append(out, rec(at, n+9))
	return out
}

func TestPredictorIdentifiesCleanObjects(t *testing.T) {
	site := website.Survey(website.IdentityPermutation())
	p := NewPredictor(site)
	var records []trace.RecordObs
	at := time.Second
	records = append(records, objRecords(at, website.ResultHTMLSize)...)
	records = append(records, objRecords(at, website.EmblemSizes[3])...)
	infs := p.Infer(records)
	if len(infs) != 2 {
		t.Fatalf("inferences = %d, want 2", len(infs))
	}
	if !p.IdentifiedHTML(infs) {
		t.Error("HTML not identified")
	}
	if infs[1].Object == nil || infs[1].Object.ID != website.EmblemID(3) {
		t.Errorf("second inference = %+v", infs[1].Object)
	}
	if infs[0].EstSize != website.ResultHTMLSize {
		t.Errorf("HTML size estimate = %d", infs[0].EstSize)
	}
}

func TestPredictorRejectsInterleavedRuns(t *testing.T) {
	site := website.Survey(website.IdentityPermutation())
	p := NewPredictor(site)
	// Interleave two objects' full records, then one delimiter: the
	// summed run matches nothing.
	var records []trace.RecordObs
	for i := 0; i < 12; i++ {
		records = append(records, rec(time.Second, 1400+9))
	}
	records = append(records, rec(time.Second, 500+9))
	infs := p.Infer(records)
	for _, inf := range infs {
		if inf.Object != nil {
			t.Errorf("interleaved run identified as %v (est %d)", inf.Object.Label, inf.EstSize)
		}
	}
}

func TestPredictorDiscardsRunAtHeaders(t *testing.T) {
	site := website.Survey(website.IdentityPermutation())
	p := NewPredictor(site)
	var records []trace.RecordObs
	// A cut-off transfer: 3 full records, never delimited...
	for i := 0; i < 3; i++ {
		records = append(records, rec(time.Second, 1400+9))
	}
	// ...then a fresh response (HEADERS + clean emblem).
	records = append(records, objRecords(2*time.Second, website.EmblemSizes[0])...)
	infs := p.Infer(records)
	if len(infs) != 1 {
		t.Fatalf("inferences = %d, want 1", len(infs))
	}
	if infs[0].Object == nil || infs[0].Object.ID != website.EmblemID(0) {
		t.Errorf("got %+v", infs[0])
	}
}

func TestPredictorDiscardsRunOnIdleGap(t *testing.T) {
	site := website.Survey(website.IdentityPermutation())
	p := NewPredictor(site)
	var records []trace.RecordObs
	// Unterminated records, then silence, then a clean object WITHOUT
	// a HEADERS record (only the gap separates them).
	records = append(records, rec(time.Second, 1400+9), rec(time.Second, 1400+9))
	clean := objRecords(5*time.Second, website.EmblemSizes[1])
	records = append(records, clean[1:]...) // skip the HEADERS marker
	infs := p.Infer(records)
	if len(infs) != 1 || infs[0].Object == nil || infs[0].Object.ID != website.EmblemID(1) {
		t.Errorf("inferences = %+v", infs)
	}
}

func TestPredictorUnterminatedTrailingRunDropped(t *testing.T) {
	site := website.Survey(website.IdentityPermutation())
	p := NewPredictor(site)
	records := []trace.RecordObs{rec(time.Second, 1400+9), rec(time.Second, 1400+9)}
	if infs := p.Infer(records); len(infs) != 0 {
		t.Errorf("trailing run produced inferences: %+v", infs)
	}
}

func TestPredictorToleranceWindow(t *testing.T) {
	site := website.Survey(website.IdentityPermutation())
	p := NewPredictor(site)
	// Estimate off by Tolerance-1 still matches; off by 200 does not.
	infs := p.Infer(objRecords(0, website.ResultHTMLSize+tolerance-1))
	if len(infs) != 1 || infs[0].Object == nil || infs[0].Object.ID != website.ResultHTMLID {
		t.Errorf("near match failed: %+v", infs)
	}
	// +80 bytes: inside the site's guaranteed 150-byte exclusion zone
	// around the HTML, but beyond the 32-byte tolerance — no match.
	infs = p.Infer(objRecords(0, website.ResultHTMLSize+80))
	if len(infs) != 1 || infs[0].Object != nil {
		t.Errorf("far size matched: %+v", infs)
	}
}

func TestPredictEmblemOrder(t *testing.T) {
	site := website.Survey(website.IdentityPermutation())
	p := NewPredictor(site)
	var records []trace.RecordObs
	order := []int{5, 2, 7}
	for i, party := range order {
		records = append(records, objRecords(time.Duration(i)*time.Second, website.EmblemSizes[party])...)
	}
	pred := p.PredictEmblemOrder(p.Infer(records))
	want := [website.PartyCount]int{5, 2, 7, -1, -1, -1, -1, -1}
	if pred != want {
		t.Errorf("pred = %v, want %v", pred, want)
	}
}

// --- Attack wiring (integration is exercised in internal/experiment) ---

func TestPaperAttackConfig(t *testing.T) {
	cfg := PaperAttack()
	if cfg.Phase1Spacing != 50*time.Millisecond ||
		cfg.TriggerGet != 6 ||
		cfg.ThrottleBps != 800_000_000 ||
		cfg.DropRate != 0.8 ||
		cfg.DropDuration != 6*time.Second ||
		cfg.Phase2Spacing != 80*time.Millisecond {
		t.Errorf("PaperAttack = %+v does not match section V", cfg)
	}
}
