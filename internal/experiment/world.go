package experiment

import (
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/h2sim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/website"
)

// World is a reusable trial arena: one fully-constructed simulation
// stack (site model, session, adversary) plus the per-trial RNG,
// reset in place between trials instead of rebuilt. A world's RunTrial
// returns byte-identical results to the package-level RunTrial at the
// same parameters — reuse is a pure performance optimization, which
// the state-leak regression tests pin down.
//
// A World is not safe for concurrent use; the pipeline executor keeps
// one per worker goroutine (see pipeline.Run).
type World struct {
	rng sim.Rand // seeded by begin
	sb  website.SurveyBuilder

	sess *h2sim.Session
	atk  *core.Attack

	// an scores ground-truth traces with reused indexing scratch (the
	// analysis-side arena mirror of the session stack).
	an analysis.Analyzer

	// pushPaths caches the PushEmblems promise list; the emblem paths
	// are fixed by the site model, so it is computed once.
	pushPaths []string
	pushMap   map[string][]string

	// shard, when set, receives every trial's metric increments
	// (segment selected by TrialParams.ObsSegment); rec, when set,
	// flight-records each trial (reset at trial start, so after
	// RunTrial it holds the last trial's events).
	shard *obs.Shard
	rec   *obs.Recorder

	// gauges, when set, receives every trial's simulator event counts
	// for the live status server.
	gauges *telemetry.Gauges
}

// NewWorld builds an empty world. The expensive components (session
// stack, adversary) are constructed lazily on the first trial and
// reused afterwards.
func NewWorld() *World {
	return &World{}
}

// SetMetrics points the world's trials at one worker shard. Pass nil
// to disable (the default): without a shard the whole stack runs with
// zero Sinks and pays only the disabled-path branch.
func (w *World) SetMetrics(shard *obs.Shard) { w.shard = shard }

// SetRecorder attaches a flight recorder: each subsequent trial resets
// it and records its typed events, so after RunTrial it holds that
// trial's (most recent) events. Pass nil to detach.
func (w *World) SetRecorder(rec *obs.Recorder) { w.rec = rec }

// Last returns the session and adversary of the world's most recent
// trial (nil before the first). They are reset in place by the next
// trial, so they are valid until then.
func (w *World) Last() (*h2sim.Session, *core.Attack) { return w.sess, w.atk }

// RunTrial executes one trial in this world. Equivalent to the
// package-level RunTrial(p), amortizing construction across calls.
func (w *World) RunTrial(p TrialParams) TrialResult {
	rng := w.begin(p.Seed)
	defer w.unlock()
	order := website.RandomPermutation(rng)

	path, htmlGap := ambient(rng)
	if p.UniformDelay > 0 {
		path.ClientSide.PropDelay += p.UniformDelay / 2
		path.ServerSide.PropDelay += p.UniformDelay / 2
	}
	site := w.sb.Build(order, website.SurveyOptions{
		HTMLGap:             htmlGap,
		CanonicalImageOrder: p.CanonicalOrder,
		PadBucket:           p.PadBucket,
	})

	serverCfg := p.Server
	if p.PushEmblems {
		serverCfg.Push = w.pushConfig(site, serverCfg.Push)
	}
	sink := w.setup(site, h2sim.SessionConfig{
		Seed:      p.Seed,
		Path:      path,
		TCP:       p.TCP,
		Server:    serverCfg,
		Client:    p.Client,
		TimeLimit: p.TimeLimit,
	}, p.ObsSegment)
	sess, atk := w.sess, w.atk

	switch p.Mode {
	case ModeJitter:
		atk.Arm(core.AttackConfig{Phase1Spacing: p.Spacing})
	case ModeJitterThrottle:
		atk.Arm(core.AttackConfig{Phase1Spacing: p.Spacing})
		atk.Controller.SetBandwidth(p.Bandwidth)
	case ModeFullAttack:
		cfg := p.Attack
		if cfg == (core.AttackConfig{}) {
			cfg = core.PaperAttack()
		}
		atk.Arm(cfg)
	default:
		atk.ArmPassive()
	}

	copies := w.run(sink)
	res := TrialResult{
		Broken:          sess.Broken(),
		TruthOrder:      site.DisplayOrder,
		Retransmissions: sess.TotalRetransmissions(),
		ReRequests:      sess.Client.Stats.ReRequests,
		Resets:          sess.Client.Stats.Resets,
		PageComplete:    sess.Client.AllScheduledComplete(),
		LoadTime:        sess.Client.CompletedAt(45), // the trailing beacon
	}
	res.Requests = sess.Client.Requests
	res.HTMLCleanAny, res.HTMLCleanOrig = analysis.CleanCopy(copies, website.ResultHTMLID)
	res.HTMLDegree = analysis.OriginalDegree(copies, website.ResultHTMLID)

	infs := atk.Infer()
	res.HTMLIdentified = atk.Predictor.IdentifiedHTML(infs)
	res.PredOrder = atk.Predictor.PredictEmblemOrder(infs)
	for i, party := range res.TruthOrder {
		clean, _ := analysis.CleanCopy(copies, website.EmblemID(party))
		res.ImageClean[i] = clean
	}
	return res
}

// begin opens a trial, RunTrial's or RunSiteTrial's. It takes the
// shard's trial lock, under which the trial's metric writes happen
// (uncontended unless a checkpoint is merging the shard); the caller
// defers unlock, so a panicking trial releases it too. It then
// re-seeds the world's generator in place, which replays the exact
// stream a fresh sim.NewRand(seed) would produce, so the site and
// ambient draws match the fresh-world path without allocating one.
func (w *World) begin(seed int64) *sim.Rand {
	if w.shard != nil {
		w.shard.Lock()
	}
	w.rng.Seed(seed)
	return &w.rng
}

// unlock releases the shard's trial lock that begin took.
func (w *World) unlock() {
	if w.shard != nil {
		w.shard.Unlock()
	}
}

// setup points w.sess and w.atk at a new trial of site under cfg:
// built on the world's first trial, reset in place after. The trial's
// metrics go to the shard's segment and, with a recorder set, its
// flight events to the recorder (reset first); setup returns that
// sink. The caller arms w.atk next.
func (w *World) setup(site *website.Site, cfg h2sim.SessionConfig, segment int) obs.Sink {
	sink := w.shard.Sink(segment)
	if w.rec != nil {
		w.rec.Reset()
		sink = sink.WithRecorder(w.rec)
	}
	cfg.Obs = sink
	if w.sess == nil {
		w.sess = h2sim.NewSession(site, cfg)
		w.atk = core.NewAttack(w.sess)
	} else {
		w.sess.Reset(site, cfg)
	}
	w.atk.Obs = sink
	return sink
}

// run runs the armed trial, adds its dispatched simulator events (by
// kind) and its trial counters to sink and to the live gauges, and
// returns the ground truth's copies. They are scored from the
// analyzer's arena, which is safe because results keep verdicts, not
// transmissions.
func (w *World) run(sink obs.Sink) []*analysis.CopyTransmission {
	sess := w.sess
	sess.Run()
	n := sess.Sim.EventCounts()
	sink.Add(obs.CSimEventsFunc, n.Func)
	sink.Add(obs.CSimEventsArg, n.Arg)
	sink.Add(obs.CSimEventsTimerLive, n.TimerLive)
	sink.Add(obs.CSimEventsTimerStale, n.TimerStale)
	w.gauges.Add(telemetry.GSimEventsFunc, int64(n.Func))
	w.gauges.Add(telemetry.GSimEventsArg, int64(n.Arg))
	w.gauges.Add(telemetry.GSimEventsTimerLive, int64(n.TimerLive))
	w.gauges.Add(telemetry.GSimEventsTimerStale, int64(n.TimerStale))
	sink.Inc(obs.CTrial)
	if sess.Broken() {
		sink.Inc(obs.CTrialBroken)
	}
	if sess.Client.AllScheduledComplete() {
		sink.Inc(obs.CTrialComplete)
	}
	return w.an.Copies(sess.GroundTruth)
}

// pushConfig returns the server push map for the PushEmblems defence.
// When the caller supplied its own map it is extended in place (the
// fresh-world semantics); otherwise the world's cached map is reused —
// its contents are invariant because the emblem promise list is in
// canonical party order and the site's paths never vary.
func (w *World) pushConfig(site *website.Site, user map[string][]string) map[string][]string {
	html, _ := site.Object(website.ResultHTMLID)
	if w.pushPaths == nil {
		for party := 0; party < website.PartyCount; party++ {
			o, _ := site.Object(website.EmblemID(party))
			w.pushPaths = append(w.pushPaths, o.Path)
		}
	}
	if user != nil {
		user[html.Path] = w.pushPaths
		return user
	}
	if w.pushMap == nil {
		w.pushMap = map[string][]string{html.Path: w.pushPaths}
	}
	return w.pushMap
}
