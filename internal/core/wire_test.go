package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"
	"time"

	"repro/internal/h2sim"
	"repro/internal/netem"
	"repro/internal/trace"
	"repro/internal/website"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// wireDigest hashes what the middlebox sees of one group of trials:
// per direction, every packet handed to the interceptor (time, seq,
// ack, payload length) and every run the tap delivers (time, length,
// the bytes themselves).
type wireDigest struct {
	packets, tap [2]hash.Hash
	npkt, ntap   int
}

func newWireDigest() *wireDigest {
	d := &wireDigest{}
	for i := range d.packets {
		d.packets[i], d.tap[i] = sha256.New(), sha256.New()
	}
	return d
}

// wrap installs the recording wrappers around the armed attack's
// Interceptor and Tap, leaving both hooks' behaviour unchanged.
func (d *wireDigest) wrap(sess *h2sim.Session) {
	mb := sess.Middlebox()
	icpt, tap := mb.Interceptor, mb.Tap
	var buf [24]byte
	mb.Interceptor = func(dir trace.Direction, p *netem.Packet) netem.Decision {
		binary.BigEndian.PutUint64(buf[0:], uint64(sess.Sim.Now()))
		binary.BigEndian.PutUint32(buf[8:], p.Seq)
		binary.BigEndian.PutUint32(buf[12:], p.Ack)
		binary.BigEndian.PutUint64(buf[16:], uint64(p.Payload.Len()))
		d.packets[dir-1].Write(buf[:])
		d.npkt++
		return icpt(dir, p)
	}
	mb.Tap = func(dir trace.Direction, b wire.Bytes) {
		raw := tapBytes(b)
		binary.BigEndian.PutUint64(buf[0:], uint64(sess.Sim.Now()))
		binary.BigEndian.PutUint64(buf[8:], uint64(len(raw)))
		d.tap[dir-1].Write(buf[:16])
		d.tap[dir-1].Write(raw)
		d.ntap++
		tap(dir, b)
	}
}

// tapBytes materialises one tapped run as plain bytes.
func tapBytes(b wire.Bytes) []byte { return wiretest.Plain(b) }

func (d *wireDigest) sums() map[string]string {
	out := map[string]string{}
	for i, dir := range []string{"c2s", "s2c"} {
		out["packets/"+dir] = hex.EncodeToString(d.packets[i].Sum(nil))
		out["tap/"+dir] = hex.EncodeToString(d.tap[i].Sum(nil))
	}
	return out
}

// TestWireStreamsPinned pins, per direction, every packet the
// middlebox sees and the in-order byte stream its tap rebuilds, over
// full-attack trials (drops, holds and retransmissions), 50 ms jitter
// trials and corpus sites under the full attack. Any change to how
// bytes are framed, sealed, segmented or reassembled must leave these
// digests as they are.
func TestWireStreamsPinned(t *testing.T) {
	type trial struct {
		site *website.Site
		cfg  h2sim.SessionConfig
		atk  AttackConfig
	}
	var full, jitter, corpus []trial
	for seed := int64(1); seed <= 5; seed++ {
		full = append(full, trial{website.Survey(website.IdentityPermutation()),
			h2sim.SessionConfig{Seed: seed, RandomizeAmbient: true}, PaperAttack()})
	}
	for seed := int64(1); seed <= 3; seed++ {
		jitter = append(jitter, trial{website.Survey(website.IdentityPermutation()),
			h2sim.SessionConfig{Seed: seed, RandomizeAmbient: true},
			AttackConfig{Phase1Spacing: 50 * time.Millisecond}})
	}
	c := website.NewCorpus(website.CorpusConfig{Seed: 1, Sites: 20})
	for i := 0; i < c.Len(); i++ {
		gs := c.Build(i)
		cfg := PaperAttack()
		cfg.TriggerGet = gs.Spec.TargetID
		corpus = append(corpus, trial{gs.Site, h2sim.SessionConfig{Seed: int64(10 + i)}, cfg})
	}

	want := map[string]map[string]string{
		"full": {
			"packets/c2s": "187070ce75cebb02895ca1921bf1b4559fd40b248dd724e888aa6c3251c709c3",
			"packets/s2c": "722e4edc38174487951730d29317dc5de868122f73ce337fde04e6ab51290b80",
			"tap/c2s":     "167c72f46687be119814a4f3a4b1dccbc0393ecc33c94909caf84c15352d1e9c",
			"tap/s2c":     "ffb3b6801b80ad06d372278c10617e99b8ac42ee9251a5d39a9f1b69ef909518",
		},
		"jitter": {
			"packets/c2s": "1a893a01375588311be5690ab67cda25bc9f701ff71d139f80c1a35711816694",
			"packets/s2c": "4654a38d93f91b2293fd134871ee528adae5017c6925448273d295ac1037dd29",
			"tap/c2s":     "0d94c8539723cc6d6ab46a656e83202e75862d09ec6e040fa10e07765934708b",
			"tap/s2c":     "1ac148159e9a0bbf714ee20311f939a02422679ba5caef191523133ac819128e",
		},
		"corpus": {
			"packets/c2s": "2d45da378c24878604c89b44f986febd1252d657d3f164080e8af5978f5b6609",
			"packets/s2c": "cead70e215ba5ac808c7747e5773c34fc0bc8d8751a2f89b3eb2ab81b7f572c9",
			"tap/c2s":     "eb498ec133692cd5b2ccd9088496db660cff6bcf7577ee891135c16188badf53",
			"tap/s2c":     "dfe400740eca831c72fda114df33234c8e33b3c3ae23321409203d9ff054f48a",
		},
	}
	for _, g := range []struct {
		name   string
		trials []trial
	}{{"full", full}, {"jitter", jitter}, {"corpus", corpus}} {
		d := newWireDigest()
		var dropped, held int
		for _, tr := range g.trials {
			sess := h2sim.NewSession(tr.site, tr.cfg)
			atk := NewAttack(sess)
			atk.Arm(tr.atk)
			d.wrap(sess)
			sess.Run()
			dropped += atk.Controller.Stats.Dropped
			held += atk.Controller.Stats.Held
		}
		if d.npkt == 0 || d.ntap == 0 || held == 0 || (g.name != "jitter" && dropped == 0) {
			t.Fatalf("%s: degenerate trials: %d packets, %d taps, %d held, %d dropped",
				g.name, d.npkt, d.ntap, held, dropped)
		}
		for k, got := range d.sums() {
			if got != want[g.name][k] {
				t.Errorf("%s %s = %s, want %s", g.name, k, got, want[g.name][k])
			}
		}
	}
}
