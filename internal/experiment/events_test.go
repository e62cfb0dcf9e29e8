package experiment

import (
	"testing"

	"repro/internal/sim"
)

// TestEventCountsPinned pins the simulator events a trial dispatches,
// split by kind, for fixed seeds of one full-attack and one passive
// trial. The counts are exact for a seed and host-independent, so a
// change to the event queue that only makes each event cheaper leaves
// them alone, and a change that adds or removes events must update the
// pins and say why. One world runs every trial, so the counts must also
// restart with each trial's simulator Reset.
func TestEventCountsPinned(t *testing.T) {
	cases := []struct {
		mode AdversaryMode
		want sim.EventCounts
	}{
		{ModeFullAttack, sim.EventCounts{TimerLive: 174, TimerStale: 6792, Arg: 24802, Func: 89122}},
		{ModePassive, sim.EventCounts{TimerLive: 0, TimerStale: 8463, Arg: 18663, Func: 74616}},
	}
	w := NewWorld()
	for _, c := range cases {
		var got sim.EventCounts
		for seed := int64(1); seed <= 10; seed++ {
			w.RunTrial(TrialParams{Seed: seed, Mode: c.mode})
			n := w.sess.Sim.EventCounts()
			if sum := n.TimerLive + n.TimerStale + n.Arg + n.Func; sum != w.sess.Sim.Steps() {
				t.Errorf("mode %d seed %d: kinds sum to %d, Steps = %d", c.mode, seed, sum, w.sess.Sim.Steps())
			}
			got.TimerLive += n.TimerLive
			got.TimerStale += n.TimerStale
			got.Arg += n.Arg
			got.Func += n.Func
		}
		if got != c.want {
			t.Errorf("mode %d, seeds 1-10: event counts %+v, want %+v", c.mode, got, c.want)
		}
	}
}
