package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/h2sim"
	"repro/internal/obs"
	"repro/internal/website"
)

// TestStreamingMatchesPostHoc runs full attack sessions and checks
// that the online inference the attack accumulated while the monitor
// tapped records is identical — fields and matched-object pointers —
// to the post-hoc reference pass (the test-only inferAppend with its
// linear-scan match, over the stored records), and that
// Predictor.Infer's replay of the same records agrees too. This is
// the end-to-end half of the equivalence suite; internal/analysis
// covers the segmentation state machine on synthetic streams.
func TestStreamingMatchesPostHoc(t *testing.T) {
	cases := []struct {
		name string
		arm  func(a *Attack)
	}{
		{"passive", func(a *Attack) { a.ArmPassive() }},
		{"jitter", func(a *Attack) { a.Arm(AttackConfig{Phase1Spacing: 50 * time.Millisecond}) }},
		{"full", func(a *Attack) { a.Arm(PaperAttack()) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				site := website.Survey(website.IdentityPermutation())
				sess := h2sim.NewSession(site, h2sim.SessionConfig{Seed: seed, RandomizeAmbient: true})
				atk := NewAttack(sess)
				tc.arm(atk)
				sess.Run()

				streamed := atk.Infer()
				posthoc := atk.Predictor.inferAppend(nil, atk.Monitor.Records)
				if len(posthoc) == 0 && tc.name != "passive" {
					t.Fatalf("seed %d: no inferences — degenerate trial", seed)
				}
				sameInferences(t, seed, "streaming", streamed, posthoc)
				replayed := NewPredictor(site).Infer(atk.Monitor.Records)
				sameInferences(t, seed, "Predictor.Infer", replayed, posthoc)
			}
		})
	}
}

// sameInferences fails the test unless got equals want field by field
// with the same matched-object pointers.
func sameInferences(t *testing.T, seed int64, name string, got, want []Inference) {
	t.Helper()
	if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
		t.Fatalf("seed %d: %s inference diverges from post-hoc\n got %+v\nwant %+v", seed, name, got, want)
	}
	for i := range got {
		if got[i].Object != want[i].Object {
			t.Fatalf("seed %d run %d: %s matched object pointers differ", seed, i, name)
		}
	}
}

// TestStreamingSurvivesRearm checks a re-armed attack on a reused
// session still agrees with the reference pass (the world-reuse
// path: stale stream state must not leak across trials).
func TestStreamingSurvivesRearm(t *testing.T) {
	site := website.Survey(website.IdentityPermutation())
	sess := h2sim.NewSession(site, h2sim.SessionConfig{Seed: 1, RandomizeAmbient: true})
	atk := NewAttack(sess)
	for seed := int64(1); seed <= 5; seed++ {
		sess.Reset(website.Survey(website.IdentityPermutation()), h2sim.SessionConfig{Seed: seed, RandomizeAmbient: true})
		atk.Arm(PaperAttack())
		sess.Run()
		sameInferences(t, seed, "re-armed streaming", atk.Infer(),
			atk.Predictor.inferAppend(nil, atk.Monitor.Records))
	}
}

// TestAttackInferCountsOnce checks that the prediction counters count
// each classified run once, when it is classified: reading the
// inferences again in the same trial must not add to them.
func TestAttackInferCountsOnce(t *testing.T) {
	site := website.Survey(website.IdentityPermutation())
	sess := h2sim.NewSession(site, h2sim.SessionConfig{Seed: 3, RandomizeAmbient: true})
	atk := NewAttack(sess)
	reg := obs.NewRegistry()
	atk.Obs = reg.NewShard().Sink(0)
	atk.Arm(PaperAttack())
	sess.Run()
	var identified, unknown uint64
	for _, inf := range atk.Infer() {
		if inf.Object != nil {
			identified++
		} else {
			unknown++
		}
	}
	if identified == 0 || unknown == 0 {
		t.Fatalf("degenerate trial: %d identified, %d unknown runs", identified, unknown)
	}
	atk.Infer()
	seg := reg.Snapshot().Segment("all")
	if got := seg.Counter("attack.pred.identified"); got != identified {
		t.Errorf("attack.pred.identified = %d after two Infer calls, want %d", got, identified)
	}
	if got := seg.Counter("attack.pred.unknown"); got != unknown {
		t.Errorf("attack.pred.unknown = %d after two Infer calls, want %d", got, unknown)
	}
}

// TestStreamingEmitsPredRunEvents checks the flight-recorder hook:
// every classified run produces one attack.pred.run event with the
// estimated size and matched object ID.
func TestStreamingEmitsPredRunEvents(t *testing.T) {
	site := website.Survey(website.IdentityPermutation())
	sess := h2sim.NewSession(site, h2sim.SessionConfig{Seed: 3, RandomizeAmbient: true})
	atk := NewAttack(sess)
	rec := obs.NewRecorder(4096)
	atk.Obs = obs.Sink{}.WithRecorder(rec)
	atk.Arm(PaperAttack())
	sess.Run()
	infs := atk.Infer()
	var events []obs.Event
	for _, e := range rec.Events() {
		if e.Kind == obs.EvPredRun {
			events = append(events, e)
		}
	}
	if len(events) != len(infs) {
		t.Fatalf("recorded %d EvPredRun events for %d inferences", len(events), len(infs))
	}
	for i, e := range events {
		if int(e.A) != infs[i].EstSize || e.At != infs[i].End {
			t.Errorf("event %d = %+v, inference %+v", i, e, infs[i])
		}
		wantB := int64(-1)
		if infs[i].Object != nil {
			wantB = int64(infs[i].Object.ID)
		}
		if e.B != wantB {
			t.Errorf("event %d object = %d, want %d", i, e.B, wantB)
		}
	}
}

// siteWithSizes builds a minimal site whose objects have the given
// sizes, IDs 1..n in order.
func siteWithSizes(sizes ...int) *website.Site {
	s := &website.Site{}
	for i, size := range sizes {
		s.Objects = append(s.Objects, website.Object{ID: i + 1, Size: size})
	}
	return s
}

// TestPrimedMatchEquivalence drives the binary-search matcher and the
// linear-scan reference over adversarial size tables — duplicate
// sizes, exact ties above and below, out-of-tolerance estimates —
// and every estimate in a covering range. The two must agree on the
// returned object pointer, not just its size.
func TestPrimedMatchEquivalence(t *testing.T) {
	sites := []*website.Site{
		siteWithSizes(),
		siteWithSizes(5000),
		siteWithSizes(5000, 5000, 5000),
		siteWithSizes(1000, 1064),              // tie at est 1032
		siteWithSizes(1064, 1000),              // tie, reversed declaration order
		siteWithSizes(300, 332, 364, 364, 400), // duplicates adjacent to ties
		siteWithSizes(100, 5000, 5032, 90000),
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 30; i++ {
		n := 1 + rng.Intn(40)
		sizes := make([]int, n)
		for j := range sizes {
			sizes[j] = 50 + rng.Intn(4000) // dense: many within-tolerance collisions
		}
		sites = append(sites, siteWithSizes(sizes...))
	}
	for si, site := range sites {
		p := NewPredictor(site)
		p.Prime()
		lo, hi := -10, 10
		for _, o := range site.Objects {
			if o.Size+tolerance+2 > hi {
				hi = o.Size + tolerance + 2
			}
		}
		for est := lo; est <= hi; est++ {
			want := p.match(est)
			got := p.matchPrimed(est)
			if got != want {
				t.Fatalf("site %d est %d: matchPrimed=%v match=%v", si, est, got, want)
			}
		}
	}
}

// TestPrimeInvalidatesOnSiteChange checks the pointer-keyed table
// cache: re-pointing the predictor at a different site recompiles.
func TestPrimeInvalidatesOnSiteChange(t *testing.T) {
	s1 := siteWithSizes(1000, 2000)
	s2 := siteWithSizes(3000)
	p := NewPredictor(s1)
	p.Prime()
	if got := p.matchPrimed(1000); got == nil || got.Size != 1000 {
		t.Fatalf("match on s1 = %v", got)
	}
	p.Site = s2
	p.Prime()
	if got := p.matchPrimed(3000); got == nil || got.Size != 3000 {
		t.Fatalf("match on s2 = %v", got)
	}
	if got := p.matchPrimed(1000); got != nil {
		t.Fatalf("stale s1 entry survived reprime: %v", got)
	}
}
