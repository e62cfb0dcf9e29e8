package h2sim

import (
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/website"
)

func TestBaselinePageLoadCompletes(t *testing.T) {
	site := website.Survey(website.IdentityPermutation())
	sess := NewSession(site, SessionConfig{Seed: 1})
	sess.Run()
	if sess.Broken() {
		t.Fatal("baseline load broke the connection")
	}
	if !sess.Client.AllScheduledComplete() {
		t.Fatalf("page incomplete: %d/%d objects", sess.Client.Stats.Completed, len(site.Schedule))
	}
	if sess.Server.Stats.Requests < len(site.Schedule) {
		t.Errorf("server saw %d requests, want >= %d", sess.Server.Stats.Requests, len(site.Schedule))
	}
}

func TestBaselineHTMLIsHeavilyMultiplexed(t *testing.T) {
	// Paper section IV: without an adversary, the 9500-byte result
	// HTML has a high degree of multiplexing in most trials.
	cleanTrials := 0
	var degreeSum float64
	degreeTrials := 0
	const trials = 30
	for i := 0; i < trials; i++ {
		site := website.Survey(website.IdentityPermutation())
		sess := NewSession(site, SessionConfig{Seed: int64(1000 + i)})
		sess.Run()
		if sess.Broken() {
			t.Fatalf("trial %d broke", i)
		}
		copies := analysis.CopyTransmissions(sess.GroundTruth)
		d := analysis.OriginalDegree(copies, website.ResultHTMLID)
		if d < 0 {
			t.Fatalf("trial %d: HTML never transmitted", i)
		}
		if d == 0 {
			cleanTrials++
		} else {
			degreeSum += d
			degreeTrials++
		}
	}
	t.Logf("baseline: clean %d/%d trials; mean degree when multiplexed %.2f",
		cleanTrials, trials, degreeSum/float64(max(degreeTrials, 1)))
	if cleanTrials == trials {
		t.Error("HTML was never multiplexed at baseline; paper reports ~98% default degree")
	}
	if degreeTrials > 0 && degreeSum/float64(degreeTrials) < 0.5 {
		t.Errorf("mean multiplexed degree %.2f too low; want heavy interleaving",
			degreeSum/float64(degreeTrials))
	}
}

func TestBaselineDeterminism(t *testing.T) {
	run := func() (int, int, int64) {
		site := website.Survey(website.IdentityPermutation())
		sess := NewSession(site, SessionConfig{Seed: 7})
		sess.Run()
		return sess.Client.Stats.Requests, sess.TotalRetransmissions(), sess.Server.Stats.BytesData
	}
	a1, b1, c1 := run()
	a2, b2, c2 := run()
	if a1 != a2 || b1 != b2 || c1 != c2 {
		t.Errorf("same seed diverged: (%d,%d,%d) vs (%d,%d,%d)", a1, b1, c1, a2, b2, c2)
	}
}

func TestServerServesDuplicateRequests(t *testing.T) {
	// Lossy enough that the client re-requests; the server must spawn
	// extra workers (paper's intensified-multiplexing mechanism).
	site := website.Survey(website.IdentityPermutation())
	cfg := SessionConfig{Seed: 3, Path: DefaultPath()}
	cfg.Path.ServerSide.Loss = 0.12
	sess := NewSession(site, cfg)
	sess.Run()
	if sess.Client.Stats.ReRequests == 0 {
		t.Skip("seed produced no re-requests under loss; adjust seed")
	}
	if sess.Server.Stats.Duplicates == 0 {
		t.Error("client re-requested but server spawned no duplicate workers")
	}
}

func TestDisableDuplicatesAblation(t *testing.T) {
	site := website.Survey(website.IdentityPermutation())
	cfg := SessionConfig{Seed: 3, Path: DefaultPath()}
	cfg.Path.ServerSide.Loss = 0.12
	cfg.Server.DisableDuplicates = true
	sess := NewSession(site, cfg)
	sess.Run()
	copies := analysis.CopyTransmissions(sess.GroundTruth)
	for _, c := range copies {
		if c.Key.CopyID > 0 && c.Bytes > 0 {
			t.Fatalf("deduplicating server transmitted duplicate copy %+v", c.Key)
		}
	}
}

func TestGroundTruthAccountsAllBytes(t *testing.T) {
	site := website.Survey(website.IdentityPermutation())
	sess := NewSession(site, SessionConfig{Seed: 5})
	sess.Run()
	copies := analysis.CopyTransmissions(sess.GroundTruth)
	// Every scheduled object must appear with a complete copy of the
	// right size.
	for _, spec := range site.Schedule {
		obj, _ := site.Object(spec.ObjectID)
		found := false
		for _, c := range analysis.CopiesOf(copies, spec.ObjectID) {
			if c.Complete && c.Bytes == obj.Size {
				found = true
			}
			if c.Bytes > obj.Size {
				t.Errorf("object %d copy %d transmitted %d bytes > size %d",
					spec.ObjectID, c.Key.CopyID, c.Bytes, obj.Size)
			}
		}
		if !found {
			t.Errorf("object %d: no complete copy of %d bytes", spec.ObjectID, obj.Size)
		}
	}
}

func TestResetFlushesServerWorkers(t *testing.T) {
	// Under a sustained blackout of the response path the client must
	// eventually reset streams, and the server must stop the affected
	// workers.
	site := website.Survey(website.IdentityPermutation())
	cfg := SessionConfig{Seed: 11, Path: DefaultPath(), TimeLimit: 60 * time.Second}
	cfg.Client.StallBase = 200 * time.Millisecond
	sess := NewSession(site, cfg)
	// Blackhole server->client data from 0.3s to 6s.
	sess.Sim.After(300*time.Millisecond, func() {
		sess.Conn.Path.LinkM2C.SetLoss(0.85)
	})
	sess.Sim.After(6*time.Second, func() {
		sess.Conn.Path.LinkM2C.SetLoss(0)
	})
	sess.Run()
	if sess.Client.Stats.Resets == 0 {
		t.Fatal("client never reset streams under sustained loss")
	}
	if sess.Server.Stats.Resets == 0 {
		t.Fatal("server never received RST_STREAM")
	}
}
