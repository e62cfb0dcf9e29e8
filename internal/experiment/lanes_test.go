package experiment

import (
	"fmt"
	"testing"

	"repro/internal/website"
)

// TestTrialsKeepLanesInOrder runs every configuration of every sweep
// (among them fig5's throttle, the drops sweep and the middlebox Delay
// of the jitter modes) at six seeds each, and 50 survey sites, and
// requires that no trial hits the simulator's lane-order panic: every
// link delivery and every blocked-worker poll is pushed at or after
// its lane's newest entry.
func TestTrialsKeepLanesInOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	panicOf := func(f func()) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		f()
		return ""
	}
	w := NewWorld()
	modes := map[AdversaryMode]int{}
	for _, seed0 := range []int64{1, 7001, 424242} {
		for _, d := range Sweeps(2, seed0) {
			for i := 0; i < d.Trials; i++ {
				p := d.Params(i)
				modes[p.Mode]++
				if msg := panicOf(func() { w.RunTrial(p) }); msg != "" {
					t.Fatalf("%s trial %d (seed %d): %s", d.Name, i, p.Seed, msg)
				}
			}
		}
	}
	for _, m := range []AdversaryMode{ModePassive, ModeJitter, ModeJitterThrottle, ModeFullAttack} {
		if modes[m] == 0 {
			t.Errorf("no sweep trial ran adversary mode %d", m)
		}
	}
	s := NewSurvey(SurveyConfig{Corpus: website.CorpusConfig{Seed: 1, Sites: 50}, Seed: 1})
	for i := 0; i < s.Trials(); i++ {
		p := s.Params(i)
		if msg := panicOf(func() { w.RunSiteTrial(s.Corpus().Build(p.Site), p) }); msg != "" {
			t.Fatalf("survey site %d (seed %d): %s", p.Site, p.Seed, msg)
		}
	}
}
