package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/h2sim"
	"repro/internal/tcpsim"
	"repro/internal/website"
)

// TestCampaignFingerprintsPinned pins the exact campaign identity
// strings that checkpoints and shard bundles record. A resume or merge
// refuses a fingerprint mismatch, so any change to these strings
// strands every checkpoint and bundle written before it: change them
// only on purpose, together with a model-version bump.
func TestCampaignFingerprintsPinned(t *testing.T) {
	want := []string{
		"sweep{name=table1 trials=100 seed0=1}",
		"sweep{name=fig5 trials=100 seed0=1}",
		"sweep{name=drops trials=100 seed0=1}",
		"sweep{name=table2 trials=100 seed0=1}",
		"sweep{name=delay trials=100 seed0=1}",
		"sweep{name=defenses trials=100 seed0=1}",
	}
	defs := Sweeps(100, 1)
	if len(defs) != len(want) {
		t.Fatalf("Sweeps returned %d definitions, want %d", len(defs), len(want))
	}
	for i, d := range defs {
		if got := d.Fingerprint(); got != want[i] {
			t.Errorf("sweep %d fingerprint = %q, want %q", i, got, want[i])
		}
	}

	// The segment labels name the sweeps' metrics sections in
	// -metrics-json output and in shard snapshots.
	wantSegs := [][]string{
		{"jitter=0ms", "jitter=25ms", "jitter=50ms", "jitter=100ms"},
		{"bw=1000Mbps", "bw=800Mbps", "bw=500Mbps", "bw=100Mbps", "bw=1Mbps"},
		{"drop=0%", "drop=40%", "drop=80%", "drop=95%"},
		{"full-attack"},
		{"delay=0ms", "delay=25ms", "delay=50ms", "delay=100ms"},
		{"none (paper attack)", "canonical order", "server push", "pad to 4KiB", "order + padding"},
	}
	for i, d := range defs {
		if !reflect.DeepEqual(d.Segments, wantSegs[i]) {
			t.Errorf("%s segments = %q, want %q", d.Name, d.Segments, wantSegs[i])
		}
		if d.Trials != 100*len(wantSegs[i]) {
			t.Errorf("%s trials = %d, want %d", d.Name, d.Trials, 100*len(wantSegs[i]))
		}
	}

	surveys := []struct {
		cfg  SurveyConfig
		want string
	}{
		{ // what `h2attack -survey -corpus 1000 -seed 1` builds
			SurveyConfig{Corpus: website.CorpusConfig{Seed: 1, Sites: 1000}, SiteTrials: 1, Seed: 1},
			"corpus{seed=1 sites=1000 objects=8..64 size=300..150000 gap=48 shapes=burst,paced,waves} reps=1 seed0=1 mode=0",
		},
		{
			SurveyConfig{Corpus: website.CorpusConfig{Seed: 1, Sites: 1000, MinObjects: 4, MaxObjects: 12}, SiteTrials: 3, Seed: 1, Mode: ModePassive},
			"corpus{seed=1 sites=1000 objects=4..12 size=300..150000 gap=48 shapes=burst,paced,waves} reps=3 seed0=1 mode=1",
		},
	}
	for _, s := range surveys {
		if got := NewSurvey(s.cfg).Fingerprint(); got != s.want {
			t.Errorf("survey fingerprint = %q, want %q", got, s.want)
		}
	}
}

// TestSweepParamsPinned pins every trial's parameters in the golden
// campaign, Sweeps(100, 1): the sha256 of each sweep's Params(i), i in
// index order, as the fields the sweeps set. A grid edit that moves a
// trial to another seed or configuration fails here before any table
// changes.
func TestSweepParamsPinned(t *testing.T) {
	want := map[string]string{
		"table1":   "86d69e7cb41123d9e42d286038de500399a43d1bb1fc6166a7fa07b148d74966",
		"fig5":     "371b530371bc27907713d310d178961b429780851d64a0da7c8216442712ab68",
		"drops":    "5d7efab82ee15d9867f3235639a5b069593fe0293f837d0834f4f5c4d87f76e2",
		"table2":   "78f1d4a41fdf5408dd221004596125d4b9ffea5c0902721e44551655b8ebd595",
		"delay":    "c499a1a2ccff0de19b38bfd633dd5e4c75b1abef064974dc36c799db53e299f6",
		"defenses": "c2d1f399406b36fbe4b2d30ae9ff95d11d477744cf773e0951755710d7f0bb7b",
	}
	for _, d := range Sweeps(100, 1) {
		h := sha256.New()
		for i := 0; i < d.Trials; i++ {
			p := d.Params(i)
			if !reflect.DeepEqual(p.Server, h2sim.ServerConfig{}) || !reflect.DeepEqual(p.Client, h2sim.ClientConfig{}) || p.TCP != (tcpsim.Config{}) {
				t.Fatalf("%s trial %d sets model knobs: %+v", d.Name, i, p)
			}
			fmt.Fprintf(h, "%d %d %d %d %+v %d %d %t %d %t %d\n", p.Seed, p.Mode, p.Spacing, p.Bandwidth, p.Attack,
				p.UniformDelay, p.TimeLimit, p.CanonicalOrder, p.PadBucket, p.PushEmblems, p.ObsSegment)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[d.Name] {
			t.Errorf("%s params sha256 = %s, want %s", d.Name, got, want[d.Name])
		}
	}
}
