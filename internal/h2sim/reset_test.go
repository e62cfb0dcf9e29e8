package h2sim

import (
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/website"
)

// packetObs is one packet as it crossed the middlebox.
type packetObs struct {
	Time       time.Duration
	Dir        trace.Direction
	Seq        uint32
	PayloadLen int
	WireLen    int
}

// recordPackets installs a pass-through interceptor on the session's
// middlebox that logs every packet crossing it. Session.Reset clears
// the interceptor, so call it again after each Reset.
func recordPackets(sess *Session) *[]packetObs {
	var log []packetObs
	sess.Middlebox().Interceptor = func(dir trace.Direction, p *netem.Packet) netem.Decision {
		log = append(log, packetObs{
			Time:       sess.Sim.Now(),
			Dir:        dir,
			Seq:        p.Seq,
			PayloadLen: p.Payload.Len(),
			WireLen:    p.WireLen(),
		})
		return netem.Pass()
	}
	return &log
}

// packetsEqual compares two packet logs element-wise.
func packetsEqual(t *testing.T, a, b []packetObs) {
	t.Helper()
	if len(a) != len(b) {
		t.Errorf("packet count %d != %d", len(a), len(b))
		return
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("packet %d: %+v != %+v", i, a[i], b[i])
			return
		}
	}
}

// framesEqual compares two ground-truth traces element-wise (capacity
// and nilness of the backing arrays are irrelevant — a reused trace
// keeps its arrays, a fresh one grows them).
func framesEqual(t *testing.T, a, b *trace.Trace) {
	t.Helper()
	if len(a.Frames) != len(b.Frames) {
		t.Errorf("frame count %d != %d", len(a.Frames), len(b.Frames))
		return
	}
	for i := range a.Frames {
		if a.Frames[i] != b.Frames[i] {
			t.Errorf("frame %d: %+v != %+v", i, a.Frames[i], b.Frames[i])
			return
		}
	}
}

// TestSessionResetReplaysFreshRun is the session-level reuse
// contract: a session dirtied by trials at other seeds and then Reset
// to a target (site, cfg, seed) must produce the same wire trace and
// ground truth, byte for byte, as a session freshly constructed for
// that target.
func TestSessionResetReplaysFreshRun(t *testing.T) {
	site := website.Survey(website.IdentityPermutation())
	targetCfg := SessionConfig{Seed: 77, RandomizeAmbient: true}

	fresh := NewSession(site, targetCfg)
	freshPackets := recordPackets(fresh)
	fresh.Run()
	if len(*freshPackets) == 0 {
		t.Fatal("no packets crossed the middlebox")
	}

	reused := NewSession(site, SessionConfig{Seed: 5, RandomizeAmbient: true})
	recordPackets(reused)
	reused.Run()
	otherSite := website.Survey(website.RandomPermutation(sim.NewRand(9)))
	reused.Reset(otherSite, SessionConfig{Seed: 6})
	recordPackets(reused)
	reused.Run()
	reused.Reset(site, targetCfg)
	reusedPackets := recordPackets(reused)
	reused.Run()

	packetsEqual(t, *freshPackets, *reusedPackets)
	framesEqual(t, fresh.GroundTruth, reused.GroundTruth)
	if fresh.Client.Stats != reused.Client.Stats {
		t.Errorf("client stats: fresh %+v != reused %+v", fresh.Client.Stats, reused.Client.Stats)
	}
	if fresh.Server.Stats != reused.Server.Stats {
		t.Errorf("server stats: fresh %+v != reused %+v", fresh.Server.Stats, reused.Server.Stats)
	}
	if fresh.TotalRetransmissions() != reused.TotalRetransmissions() {
		t.Errorf("retransmissions: fresh %d != reused %d",
			fresh.TotalRetransmissions(), reused.TotalRetransmissions())
	}
}
