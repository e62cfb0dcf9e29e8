package experiment

import (
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/h2sim"
	"repro/internal/website"
)

// Trial counts are kept modest so the suite stays fast; the bench
// harness (bench_test.go at the repo root) runs the full 100-trial
// versions that EXPERIMENTS.md records.

func TestBaselineMultiplexingShape(t *testing.T) {
	// Paper section IV: by default the result HTML is multiplexed in
	// most trials (Table I row 0: 32% clean), and when multiplexed its
	// degree is high (~98%).
	clean, mux := 0, 0
	var degSum float64
	const trials = 50
	for i := 0; i < trials; i++ {
		r := RunTrial(TrialParams{Seed: int64(40000 + i), Mode: ModePassive})
		if r.Broken {
			t.Fatalf("trial %d broke at baseline", i)
		}
		if r.HTMLCleanAny {
			clean++
		} else if r.HTMLDegree > 0 {
			mux++
			degSum += r.HTMLDegree
		}
	}
	pct := 100 * float64(clean) / trials
	if pct < 15 || pct > 55 {
		t.Errorf("baseline clean%% = %.0f, want near the paper's 32%%", pct)
	}
	if mux > 0 {
		if mean := degSum / float64(mux); mean < 0.6 {
			t.Errorf("mean degree when multiplexed = %.2f, want high (~0.98)", mean)
		}
	}
}

func TestJitterImprovesSerialization(t *testing.T) {
	// Table I shape: 50ms spacing raises the non-multiplexed fraction
	// well above baseline.
	cleanAt := func(spacing time.Duration) int {
		clean := 0
		for i := 0; i < 40; i++ {
			p := TrialParams{Seed: int64(40000 + i), Mode: ModeJitter, Spacing: spacing}
			if spacing == 0 {
				p.Mode = ModePassive
			}
			if RunTrial(p).HTMLCleanAny {
				clean++
			}
		}
		return clean
	}
	base := cleanAt(0)
	at50 := cleanAt(50 * time.Millisecond)
	if at50 <= base {
		t.Errorf("50ms jitter did not help: baseline %d/40, 50ms %d/40", base, at50)
	}
}

func TestJitterIncreasesRetransmissions(t *testing.T) {
	// Table I: retransmissions grow with jitter (paper: +130% at 50ms,
	// +194% at 100ms).
	retransAt := func(spacing time.Duration) int {
		total := 0
		for i := 0; i < 30; i++ {
			p := TrialParams{Seed: int64(41000 + i), Mode: ModeJitter, Spacing: spacing}
			if spacing == 0 {
				p.Mode = ModePassive
			}
			total += RunTrial(p).Retransmissions
		}
		return total
	}
	base := retransAt(0)
	at100 := retransAt(100 * time.Millisecond)
	if at100 <= base {
		t.Errorf("100ms jitter did not raise retransmissions: %d vs %d", at100, base)
	}
}

func TestUniformDelayDoesNotHelpAdversary(t *testing.T) {
	// Section IV-A: constant added delay cannot increase inter-arrival
	// spacing, so it never raises the non-multiplexed fraction (in the
	// simulation it actually lowers it, by slowing the drain); the
	// paper accordingly rejects delay as an attack knob.
	rows := delayRows(40, delayDef(40, 42000).Run())
	base := rows[0].NotMultiplexedPct
	for _, r := range rows[1:] {
		if r.NotMultiplexedPct > base+12 { // noise bound for 40 trials
			t.Errorf("uniform delay %v raised clean%% from %.0f to %.0f; delay must not help",
				r.Delay, base, r.NotMultiplexedPct)
		}
	}
}

func TestFullAttackBreaksHTMLPrivacy(t *testing.T) {
	// Section V: the composed attack identifies the result HTML in the
	// vast majority of trials (paper: 90-100%).
	success := 0
	const trials = 40
	for i := 0; i < trials; i++ {
		if RunTrial(TrialParams{Seed: int64(43000 + i), Mode: ModeFullAttack}).HTMLSuccess() {
			success++
		}
	}
	if pct := 100 * success / trials; pct < 75 {
		t.Errorf("full attack HTML success = %d%%, want >= 75%%", pct)
	}
}

func TestFullAttackRecoversImageSequence(t *testing.T) {
	// Table II: the survey outcome (emblem order) is recovered with
	// high per-position accuracy.
	var posOK [website.PartyCount]int
	const trials = 30
	for i := 0; i < trials; i++ {
		r := RunTrial(TrialParams{Seed: int64(44000 + i), Mode: ModeFullAttack})
		for k := 0; k < website.PartyCount; k++ {
			if r.ImageSuccess(k) {
				posOK[k]++
			}
		}
	}
	for k, ok := range posOK {
		if pct := 100 * ok / trials; pct < 60 {
			t.Errorf("image position %d accuracy = %d%%, want >= 60%%", k+1, pct)
		}
	}
}

func TestDropsForceStreamResets(t *testing.T) {
	// Section IV-D: at an 80% drop rate the client resets its streams
	// in essentially every trial.
	resets := 0
	const trials = 25
	for i := 0; i < trials; i++ {
		r := RunTrial(TrialParams{Seed: int64(45000 + i), Mode: ModeFullAttack})
		if r.Resets > 0 {
			resets++
		}
	}
	if resets < trials*8/10 {
		t.Errorf("resets in %d/%d trials, want nearly all", resets, trials)
	}
}

func TestPassiveAdversaryFailsOnMultiplexedTraffic(t *testing.T) {
	// The point of the paper's related-work comparison: without active
	// interference, the delimiter-based size attack identifies the
	// HTML only when it happens to transmit clean.
	okWithoutClean := 0
	for i := 0; i < 40; i++ {
		r := RunTrial(TrialParams{Seed: int64(46000 + i), Mode: ModePassive})
		if r.HTMLIdentified && !r.HTMLCleanAny {
			okWithoutClean++
		}
	}
	if okWithoutClean > 4 {
		t.Errorf("passive predictor identified multiplexed HTML %d times: side channel too strong", okWithoutClean)
	}
}

// --- Ablations (DESIGN.md section 5) ---

func TestAblationDisableBackpressure(t *testing.T) {
	// Ablation 1: without socket-buffer backpressure, worker enqueues
	// are service-paced and transmissions rarely overlap — baseline
	// multiplexing collapses and the HTML is almost always clean.
	clean := 0
	const trials = 25
	for i := 0; i < trials; i++ {
		r := RunTrial(TrialParams{
			Seed:   int64(47000 + i),
			Mode:   ModePassive,
			Server: h2sim.ServerConfig{DisableBackpressure: true},
		})
		if r.HTMLCleanAny {
			clean++
		}
	}
	if clean < trials*8/10 {
		t.Errorf("without backpressure only %d/%d clean; multiplexing should collapse", clean, trials)
	}
}

func TestAblationDisableReRequest(t *testing.T) {
	// Ablation 2: without the duplicate-request policy, jitter cannot
	// inflate retransmissions the way Table I reports.
	retrans := func(disable bool) int {
		total := 0
		for i := 0; i < 25; i++ {
			total += RunTrial(TrialParams{
				Seed:    int64(48000 + i),
				Mode:    ModeJitter,
				Spacing: 100 * time.Millisecond,
				Client:  h2sim.ClientConfig{DisableReRequest: disable},
			}).ReRequests
		}
		return total
	}
	if with, without := retrans(false), retrans(true); without != 0 || with == 0 {
		t.Errorf("re-requests with=%d without=%d; ablation should zero them", with, without)
	}
}

func TestAblationDisableReset(t *testing.T) {
	// Ablation 3: without the reset-streams policy the composed attack
	// loses most of its HTML success (the post-reset clean window is
	// the mechanism).
	succ := func(disable bool) int {
		n := 0
		for i := 0; i < 25; i++ {
			r := RunTrial(TrialParams{
				Seed:   int64(49000 + i),
				Mode:   ModeFullAttack,
				Client: h2sim.ClientConfig{DisableReset: disable},
			})
			if r.HTMLSuccess() {
				n++
			}
		}
		return n
	}
	with, without := succ(false), succ(true)
	if without >= with {
		t.Errorf("attack success with resets %d/25, without %d/25; resets should matter", with, without)
	}
}

func TestAblationWideRefetchWindow(t *testing.T) {
	// Ablation: a large post-reset refetch window re-creates the
	// interleaving and costs image-sequence accuracy.
	acc := func(window int) int {
		total := 0
		for i := 0; i < 20; i++ {
			r := RunTrial(TrialParams{
				Seed:   int64(50000 + i),
				Mode:   ModeFullAttack,
				Client: h2sim.ClientConfig{RefetchWindow: window},
			})
			for k := 0; k < website.PartyCount; k++ {
				if r.ImageSuccess(k) {
					total++
				}
			}
		}
		return total
	}
	narrow, wide := acc(2), acc(24)
	if wide >= narrow {
		t.Errorf("image successes narrow=%d wide=%d; wide window should hurt", narrow, wide)
	}
}

// --- Harness plumbing ---

func TestRunTrialDeterminism(t *testing.T) {
	a := RunTrial(TrialParams{Seed: 51000, Mode: ModeFullAttack})
	b := RunTrial(TrialParams{Seed: 51000, Mode: ModeFullAttack})
	if a.Retransmissions != b.Retransmissions || a.Resets != b.Resets ||
		a.HTMLCleanAny != b.HTMLCleanAny || a.PredOrder != b.PredOrder {
		t.Error("same seed produced different trial results")
	}
	c := RunTrial(TrialParams{Seed: 51001, Mode: ModeFullAttack})
	if a.TruthOrder == c.TruthOrder && a.Retransmissions == c.Retransmissions {
		t.Error("different seeds produced identical trials")
	}
}

func TestTruthOrderMatchesPermutation(t *testing.T) {
	r := RunTrial(TrialParams{Seed: 52000, Mode: ModePassive})
	var seen [website.PartyCount]bool
	for _, p := range r.TruthOrder {
		if p < 0 || p >= website.PartyCount || seen[p] {
			t.Fatalf("truth order %v is not a permutation", r.TruthOrder)
		}
		seen[p] = true
	}
}

func TestGroundTruthConsistency(t *testing.T) {
	w := NewWorld()
	r := w.RunTrial(TrialParams{Seed: 53000, Mode: ModePassive})
	if !r.PageComplete {
		t.Fatal("baseline page incomplete")
	}
	copies := analysis.CopyTransmissions(w.sess.GroundTruth)
	// Original copy byte counts equal object sizes for complete copies.
	site := website.Survey(r.TruthOrder)
	for _, spec := range site.Schedule {
		obj, _ := site.Object(spec.ObjectID)
		found := false
		for _, c := range analysis.CopiesOf(copies, spec.ObjectID) {
			if c.Complete && c.Bytes == obj.Size {
				found = true
			}
		}
		if !found {
			t.Errorf("object %d has no complete copy of %d bytes", spec.ObjectID, obj.Size)
		}
	}
}

func TestFormatters(t *testing.T) {
	// The formatters must render without panicking and include the
	// paper's reference values.
	tbl := FormatTableI([]TableIRow{{Jitter: 0, NotMultiplexedPct: 32}})
	if tbl == "" {
		t.Error("empty Table I")
	}
	f5 := FormatFig5([]Fig5Row{{LabelMbps: 800, Bandwidth: 10e6, SuccessPct: 63}})
	if f5 == "" {
		t.Error("empty Fig 5")
	}
	ds := FormatDropSweep([]DropRow{{DropRate: 0.8, SuccessPct: 90}})
	if ds == "" {
		t.Error("empty drop sweep")
	}
	t2 := FormatTableII(TableIIResult{Trials: 1})
	if t2 == "" {
		t.Error("empty Table II")
	}
	dl := FormatDelaySweep([]DelayRow{{Delay: 0, NotMultiplexedPct: 30}})
	if dl == "" {
		t.Error("empty delay sweep")
	}
}

func TestDefenseCanonicalOrderHidesOutcome(t *testing.T) {
	// Section VII extension: with images requested in a fixed order,
	// the attack still identifies objects but the recovered sequence
	// carries no information about the survey outcome (~12.5% per
	// position by chance).
	posOK, trials := 0, 25
	for i := 0; i < trials; i++ {
		r := RunTrial(TrialParams{
			Seed: int64(80000 + i), Mode: ModeFullAttack, CanonicalOrder: true,
		})
		for k := 0; k < website.PartyCount; k++ {
			if r.ImageSuccess(k) {
				posOK++
			}
		}
	}
	if pct := 100 * posOK / (trials * website.PartyCount); pct > 35 {
		t.Errorf("ordering defence leaked: position accuracy %d%%, want near chance", pct)
	}
}

func TestDefensePaddingDefeatsSizeTable(t *testing.T) {
	// Section VII extension: padding to 4KiB buckets makes sizes
	// collide and the size->identity mapping ambiguous.
	htmlOK, trials := 0, 25
	for i := 0; i < trials; i++ {
		r := RunTrial(TrialParams{
			Seed: int64(81000 + i), Mode: ModeFullAttack, PadBucket: 4096,
		})
		if r.HTMLSuccess() {
			htmlOK++
		}
	}
	if pct := 100 * htmlOK / trials; pct > 30 {
		t.Errorf("padding defence leaked: HTML success %d%%, want low", pct)
	}
}

func TestDefenseServerPushDefeatsSpacing(t *testing.T) {
	// Section VII extension: pushed resources are server-initiated, so
	// the adversary's request-spacing lever cannot serialize them, and
	// simultaneous pushes multiplex one another.
	posOK, trials := 0, 25
	for i := 0; i < trials; i++ {
		r := RunTrial(TrialParams{
			Seed: int64(82000 + i), Mode: ModeFullAttack, PushEmblems: true,
		})
		for k := 0; k < website.PartyCount; k++ {
			if r.ImageSuccess(k) {
				posOK++
			}
		}
	}
	if pct := 100 * posOK / (trials * website.PartyCount); pct > 20 {
		t.Errorf("push defence leaked: position accuracy %d%%", pct)
	}
}

func TestMonitorGetCountMatchesClientRequests(t *testing.T) {
	// Cross-layer validation: the adversary's GET counter (parsed from
	// cleartext record headers at the middlebox) must track the
	// client's actual request count closely — it is the trigger for
	// the attack's phase transitions.
	for i := 0; i < 10; i++ {
		site := website.Survey(website.IdentityPermutation())
		sess := h2sim.NewSession(site, h2sim.SessionConfig{Seed: int64(90000 + i)})
		atk := core.InstallPassive(sess)
		sess.Run()
		gets := atk.Monitor.GetCount()
		reqs := sess.Client.Stats.Requests
		sched := len(site.Schedule)
		// The monitor must see every first-time request (the attack
		// trigger counts those); re-requests HPACK-index their paths
		// into records below the GET-size floor, so the count may fall
		// short of the client's total but never below the schedule.
		if gets < sched-1 || gets > reqs+2 {
			t.Errorf("seed %d: monitor counted %d GETs (schedule %d, client total %d)",
				90000+i, gets, sched, reqs)
		}
	}
}

func TestBaselineImageDegreesHigh(t *testing.T) {
	// Paper section V: "In absence of any adversarial intervention,
	// the degree of multiplexing of each of these objects range from
	// 80% to 99%." The emblem images arrive in a sub-millisecond burst
	// and must interleave heavily at baseline.
	var sum float64
	var n int
	for i := 0; i < 20; i++ {
		w := NewWorld()
		w.RunTrial(TrialParams{Seed: int64(95000 + i), Mode: ModePassive})
		copies := analysis.CopyTransmissions(w.sess.GroundTruth)
		for p := 0; p < website.PartyCount; p++ {
			d := analysis.OriginalDegree(copies, website.EmblemID(p))
			if d >= 0 {
				sum += d
				n++
			}
		}
	}
	if n == 0 {
		t.Fatal("no image transmissions observed")
	}
	if mean := sum / float64(n); mean < 0.6 {
		t.Errorf("mean baseline image degree = %.2f, want high (paper: 0.8-0.99)", mean)
	}
}
