package experiment

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/h2sim"
	"repro/internal/obs"
	"repro/internal/tcpsim"
	"repro/internal/trace"
	"repro/internal/website"
)

// TestWorldMatchesFreshTrial is the reuse-correctness contract of the
// trial world: for every adversary mode, a trial run in a reused
// world must equal the same trial run in a fresh world, bit for bit —
// the result and every copy transmission of the ground truth.
func TestWorldMatchesFreshTrial(t *testing.T) {
	params := []TrialParams{
		{Seed: 7, Mode: ModePassive},
		{Seed: 8, Mode: ModeJitter, Spacing: 50e6},
		{Seed: 9, Mode: ModeJitterThrottle, Spacing: 50e6, Bandwidth: 100_000_000},
		{Seed: 10, Mode: ModeFullAttack},
		{Seed: 11, Mode: ModeFullAttack, CanonicalOrder: true},
		{Seed: 12, Mode: ModeFullAttack, PadBucket: 4096},
		{Seed: 13, Mode: ModePassive, PushEmblems: true},
	}
	w := NewWorld()
	for _, p := range params {
		fw := NewWorld()
		fresh := fw.RunTrial(p)
		reused := w.RunTrial(p)
		if !reflect.DeepEqual(fresh, reused) {
			t.Errorf("params %+v: reused-world result differs from fresh world\nfresh:  %+v\nreused: %+v",
				p, fresh, reused)
		}
		sameCopies(t, fw, w)
	}
}

// TestWorldNoStateLeak dirties a world with trials at different seeds
// — including a broken-connection trial, the messiest exit path (RST
// bursts, parked workers, packets still in flight when the run stops)
// — and checks that a target trial afterwards still matches a fresh
// world exactly. Run under -race via scripts/ci.sh, this is the
// regression gate for every Reset method in the stack.
func TestWorldNoStateLeak(t *testing.T) {
	target := TrialParams{Seed: 42, Mode: ModeFullAttack}
	fw := NewWorld()
	want := fw.RunTrial(target)

	// A near-certain-drop attack phase against a transport with no
	// retry budget: the dirtying trial must end with a broken
	// connection so the leak test covers the abort path (RST bursts,
	// parked workers, packets still in flight), not just clean exits.
	breaker := TrialParams{
		Seed: 5,
		Mode: ModeFullAttack,
		TCP:  tcpsim.Config{MaxRetries: 1},
		Attack: core.AttackConfig{
			Phase1Spacing: 50e6,
			TriggerGet:    2,
			ThrottleBps:   1_000_000,
			DropRate:      0.995,
			DropDuration:  60e9,
			Phase2Spacing: 80e6,
		},
	}

	w := NewWorld()
	if r := w.RunTrial(breaker); !r.Broken {
		t.Fatalf("dirtying trial did not break the connection; pick a harsher config")
	}
	for _, dirty := range []TrialParams{
		{Seed: 1, Mode: ModeFullAttack},
		{Seed: 2, Mode: ModePassive, PushEmblems: true},
		{Seed: 3, Mode: ModeJitter, Spacing: 80e6},
	} {
		w.RunTrial(dirty)
	}
	got := w.RunTrial(target)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("world state leaked across trials\nfresh:  %+v\ndirty world: %+v", want, got)
	}
	sameCopies(t, fw, w)
}

// sameCopies checks that two worlds' last trials put the same copy
// transmissions on the wire, compared field by field.
func sameCopies(t *testing.T, fresh, reused *World) {
	t.Helper()
	want := analysis.CopyTransmissions(fresh.sess.GroundTruth)
	got := analysis.CopyTransmissions(reused.sess.GroundTruth)
	if len(want) == 0 {
		t.Fatal("fresh trial transmitted no copies")
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("copy transmissions differ\nfresh:  %+v\nreused: %+v", want, got)
	}
}

// TestWorldTrialAllocs pins the steady-state allocation budget of a
// reused-world full-attack trial. The reset-don't-rebuild design
// keeps the whole trial - session, transport, TLS, HTTP/2, adversary,
// analysis - within a small constant budget once pools are warm; a
// regression here means some layer started rebuilding or leaking.
func TestWorldTrialAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	w := NewWorld()
	// Warm-up: grow every pool and scratch buffer to its high-water
	// mark across both clean and broken trials.
	for s := int64(0); s < 5; s++ {
		w.RunTrial(TrialParams{Seed: 90000 + s, Mode: ModeFullAttack})
	}
	seed := int64(90005)
	allocs := testing.AllocsPerRun(10, func() {
		w.RunTrial(TrialParams{Seed: seed, Mode: ModeFullAttack})
		seed++
	})
	// Headroom above the ~39 measured (was ~160 before RST_STREAM
	// rounds reused a frame scratch): trial-to-trial variation can
	// touch fresh high-water marks (more resets, more copies). The
	// pre-world baseline was ~2974.
	if allocs > 120 {
		t.Errorf("reused-world full-attack trial allocates %.0f objects/run, budget 120", allocs)
	}
	t.Logf("%.0f allocations per trial", allocs)
}

// TestStreamingInferenceZeroAllocs pins the streaming inference
// engine's steady state to zero allocations per trial: once the
// inference buffer and the primed size table have reached their
// high-water marks, a full Start → Observe-every-record → Inferences
// cycle over a real trial's record stream must not allocate. This is
// the inference-side counterpart of TestWorldTrialAllocs.
func TestStreamingInferenceZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Capture a real full-attack trial's record stream.
	site := website.Survey(website.IdentityPermutation())
	sess := h2sim.NewSession(site, h2sim.SessionConfig{Seed: 42, RandomizeAmbient: true})
	atk := core.InstallPassive(sess)
	sess.Run()
	records := append([]trace.RecordObs(nil), atk.Monitor.Records...)
	if len(records) == 0 {
		t.Fatal("captured no records")
	}

	p := core.NewPredictor(site)
	var eng core.StreamInference
	cycle := func() {
		eng.Start(p, obs.Sink{})
		for _, r := range records {
			eng.Observe(r)
		}
		if len(eng.Inferences()) == 0 {
			t.Fatal("streaming engine classified nothing")
		}
	}
	cycle() // warm: grow the inference buffer, prime the table
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("steady-state streaming inference allocates %.0f objects/trial, want 0", allocs)
	}
}
