package experiment

import (
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/website"
)

// TestEventCountsPinned pins the simulator events a trial dispatches,
// split by kind, for fixed seeds of one full-attack and one passive
// trial. The counts are exact for a seed and host-independent, so a
// change to the event queue that only makes each event cheaper leaves
// them alone, and a change that adds or removes events must update the
// pins and say why. One world runs every trial, so the counts must also
// restart with each trial's simulator Reset. Blocked-worker re-polls
// are AfterArg events on the server's poll lane, so they count as Arg;
// most of them are dispatched in place by sim.Lane.Cycle, which counts
// each exactly as stepwise dispatch would. TimerStale counts only the
// superseded timer keys that popped: a re-arm inside Run that comes no
// earlier than the timer's queued key pushes nothing (see "Timers" in
// the sim package doc), so most superseded deadlines never reach the
// queue, while the other kinds match an eager queue exactly.
func TestEventCountsPinned(t *testing.T) {
	cases := []struct {
		mode AdversaryMode
		want sim.EventCounts
	}{
		{ModeFullAttack, sim.EventCounts{TimerLive: 174, TimerStale: 1499, Arg: 108167, Func: 5757}},
		{ModePassive, sim.EventCounts{TimerLive: 0, TimerStale: 1032, Arg: 88893, Func: 4386}},
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

// TestEventCountsReachMetrics checks that both trial paths, the
// sweeps' and the survey's, add each trial's simulator events by kind
// to the sim.events.* obs counters and to the live gauges, once.
func TestEventCountsReachMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetSegments("all")
	g := &telemetry.Gauges{}
	w := NewWorld()
	w.SetMetrics(reg.NewShard())
	w.gauges = g
	var want sim.EventCounts
	add := func() {
		n := w.sess.Sim.EventCounts()
		want.Func += n.Func
		want.Arg += n.Arg
		want.TimerLive += n.TimerLive
		want.TimerStale += n.TimerStale
	}
	for seed := int64(1); seed <= 3; seed++ {
		w.RunTrial(TrialParams{Seed: seed, Mode: ModeFullAttack})
		add()
	}
	corpus := website.NewCorpus(website.CorpusConfig{Seed: 1, Sites: 2})
	for i := 0; i < 2; i++ {
		w.RunSiteTrial(corpus.Build(i), CorpusTrialParams{Site: i, Seed: int64(10 + i)})
		add()
	}
	seg := reg.Snapshot().Segment("all")
	for _, c := range []struct {
		counter string
		gauge   telemetry.GaugeID
		want    uint64
	}{
		{"sim.events.func", telemetry.GSimEventsFunc, want.Func},
		{"sim.events.arg", telemetry.GSimEventsArg, want.Arg},
		{"sim.events.timer_live", telemetry.GSimEventsTimerLive, want.TimerLive},
		{"sim.events.timer_stale", telemetry.GSimEventsTimerStale, want.TimerStale},
	} {
		if got := seg.Counter(c.counter); got != c.want || got == 0 {
			t.Errorf("%s = %d, want %d (nonzero)", c.counter, got, c.want)
		}
		if got := g.Load(c.gauge); got != int64(c.want) {
			t.Errorf("gauge %s = %d, want %d", c.gauge.Name(), got, c.want)
		}
	}
}

// TestGaugesOnEveryCampaignPath checks that every campaign path — an
// in-memory sweep (Collect), a shard slice (RunShard) and a survey —
// hands the pipeline config's gauges to the worlds it builds, so the
// live sim-events gauges equal the run's sim.events.* counters.
// TestEventCountsReachMetrics wires one world by hand; this pins the
// wiring the campaigns themselves do.
func TestGaugesOnEveryCampaignPath(t *testing.T) {
	d := tableIIDef(2, 1)
	legs := []struct {
		name string
		run  func(cfg pipeline.Config) *obs.Snapshot
	}{
		{"Collect", func(cfg pipeline.Config) *obs.Snapshot {
			reg := obs.NewRegistry()
			d.Collect(cfg, reg)
			return reg.Snapshot()
		}},
		{"RunShard", func(cfg pipeline.Config) *obs.Snapshot {
			st := NewObsState()
			if _, err := d.RunShard(cfg, st, filepath.Join(t.TempDir(), "s.jsonl")); err != nil {
				t.Fatal(err)
			}
			snap, err := st.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			return snap
		}},
		{"Survey", func(cfg pipeline.Config) *obs.Snapshot {
			s := NewSurvey(SurveyConfig{Corpus: website.CorpusConfig{Seed: 1, Sites: 2}, Seed: 1})
			reg := obs.NewRegistry()
			s.SetMetrics(reg)
			if _, err := s.Run(cfg); err != nil {
				t.Fatal(err)
			}
			return reg.Snapshot()
		}},
	}
	for _, leg := range legs {
		g := &telemetry.Gauges{}
		snap := leg.run(pipeline.Config{Workers: 2, Gauges: g})
		for _, c := range []struct {
			counter string
			gauge   telemetry.GaugeID
		}{
			{"sim.events.func", telemetry.GSimEventsFunc},
			{"sim.events.arg", telemetry.GSimEventsArg},
			{"sim.events.timer_live", telemetry.GSimEventsTimerLive},
			{"sim.events.timer_stale", telemetry.GSimEventsTimerStale},
		} {
			var want uint64
			for i := range snap.Segments {
				want += snap.Segments[i].Counter(c.counter)
			}
			if got := g.Load(c.gauge); want == 0 || got != int64(want) {
				t.Errorf("%s: gauge %s = %d, want %s = %d (nonzero)", leg.name, c.gauge.Name(), got, c.counter, want)
			}
		}
	}
}
