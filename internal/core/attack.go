package core

import (
	"time"

	"repro/internal/h2sim"
	"repro/internal/obs"
	"repro/internal/trace"
)

// AttackConfig is the paper's phase schedule (section V):
//
//  1. From the start, add jitter so requests are spaced
//     Phase1Spacing apart and count GETs.
//  2. On the TriggerGet-th GET (the result HTML), throttle the
//     transit links to ThrottleBps and drop DropRate of server→client
//     application packets for DropDuration, forcing the client to
//     reset its streams.
//  3. Afterwards, raise the spacing to Phase2Spacing so the 8
//     consecutive image files transmit in non-multiplexed form.
type AttackConfig struct {
	// Phase1Spacing is the initial inter-request spacing. Paper: 50ms.
	Phase1Spacing time.Duration

	// TriggerGet is the 1-based index of the GET that starts phase 2.
	// Paper: 6 (the result HTML). Zero disables phases 2-3 (jitter-
	// only adversary).
	TriggerGet int

	// ThrottleBps is the phase-2 bandwidth limit. Paper: 800 Mbps.
	ThrottleBps int64

	// DropRate is the phase-2 server→client drop probability.
	// Paper: 0.8.
	DropRate float64

	// DropDuration is how long drops last. Paper: 6s.
	DropDuration time.Duration

	// Phase2Spacing is the spacing after the drop phase. Paper: 80ms.
	Phase2Spacing time.Duration
}

// PaperAttack returns the exact configuration of the paper's
// section V attack.
func PaperAttack() AttackConfig {
	return AttackConfig{
		Phase1Spacing: 50 * time.Millisecond,
		TriggerGet:    6,
		ThrottleBps:   800_000_000,
		DropRate:      0.8,
		DropDuration:  6 * time.Second,
		Phase2Spacing: 80 * time.Millisecond,
	}
}

// Attack wires the adversary's components onto a session's middlebox
// and runs the phase schedule. One Attack can be re-armed across
// trials of a reused session (see Arm / ArmPassive).
type Attack struct {
	Controller *Controller
	Monitor    *Monitor
	Predictor  *Predictor

	sess  *h2sim.Session
	cfg   AttackConfig
	phase int

	// Obs receives adversary-side metrics (phase transitions,
	// controller actions, prediction outcomes). Set it before Arm /
	// ArmPassive; the zero Sink discards everything.
	Obs obs.Sink

	// stream classifies record runs online as the monitor taps them;
	// onRec is stream.Observe bound once at construction so re-arming
	// each trial installs the hook without allocating a closure.
	stream StreamInference
	onRec  func(trace.RecordObs)
}

// NewAttack builds the adversary's components against a session
// without arming anything. Call Arm or ArmPassive before each
// Session.Run; a reused world constructs one Attack and re-arms it
// every trial.
func NewAttack(sess *h2sim.Session) *Attack {
	a := &Attack{
		Controller: NewController(sess.Sim, sess.Conn.Path),
		Monitor:    NewMonitor(sess.Sim),
		Predictor:  NewPredictor(sess.Site),
		sess:       sess,
	}
	a.onRec = a.stream.Observe
	return a
}

// reset rewinds the components for a fresh trial. Session.Reset has
// already detached the previous trial's wiring (Middlebox.Reset
// clears the interceptor and tap), so only component state remains.
func (a *Attack) reset(cfg AttackConfig) {
	a.cfg = cfg
	a.Controller.Reset()
	a.Monitor.Reset()
	a.Controller.Obs = a.Obs
	a.Monitor.Obs = a.Obs
	a.Predictor.Site = a.sess.Site
	a.stream.Start(a.Predictor, a.Obs)
	a.Monitor.OnRecord = a.onRec
}

// Arm wires the full adversary onto the session's middlebox and
// starts the phase schedule. Call after Session.Reset and before
// Session.Run.
func (a *Attack) Arm(cfg AttackConfig) {
	a.reset(cfg)
	a.Controller.Install()
	a.sess.Middlebox().Tap = a.Monitor.Tap
	a.Monitor.OnGet = a.onGet
	a.Monitor.OnResetBurst = a.onResetBurst
	a.Controller.SetSpacing(cfg.Phase1Spacing)
	a.phase = 1
	if cfg.TriggerGet == 0 {
		a.phase = 0 // static jitter-only adversary
	}
}

// ArmPassive wires only the monitor (a classic passive eavesdropper),
// for baselines.
func (a *Attack) ArmPassive() {
	a.reset(AttackConfig{})
	a.sess.Middlebox().Tap = a.Monitor.Tap
	a.phase = 0
}

// Install builds the adversary on the session's middlebox. Call
// before Session.Run.
func Install(sess *h2sim.Session, cfg AttackConfig) *Attack {
	a := NewAttack(sess)
	a.Arm(cfg)
	return a
}

// InstallPassive wires only the monitor (a classic passive
// eavesdropper) onto the session, for baselines.
func InstallPassive(sess *h2sim.Session) *Attack {
	a := NewAttack(sess)
	a.ArmPassive()
	return a
}

func (a *Attack) onGet(count int) {
	if a.phase != 1 || count != a.cfg.TriggerGet {
		return
	}
	a.phase = 2
	a.Obs.Inc(obs.CAtkPhase2)
	a.Obs.Event(a.Controller.s.Now(), obs.EvAtkPhase, 2, int64(count))
	a.Controller.SetBandwidth(a.cfg.ThrottleBps)
	a.Controller.StartDrops(a.cfg.DropRate, a.cfg.DropDuration)
	s := a.Controller.s
	// The drop phase ends when the client is seen resetting its
	// streams ("we continue the packet drops ... until the client
	// sends stream reset"), with the configured duration as a cap.
	s.After(a.cfg.DropDuration, func() { a.enterPhase3() })
}

// onResetBurst reacts to the observed RST_STREAM burst.
func (a *Attack) onResetBurst() {
	if a.phase == 2 {
		a.enterPhase3()
	}
}

func (a *Attack) enterPhase3() {
	if a.phase != 2 {
		return
	}
	a.phase = 3
	a.Obs.Inc(obs.CAtkPhase3)
	a.Obs.Event(a.Controller.s.Now(), obs.EvAtkPhase, 3, 0)
	a.Controller.StopDrops()
	a.Controller.SetSpacing(a.cfg.Phase2Spacing)
}

// Infer returns what the streaming engine classified during the
// trial: the runs were segmented, matched and counted online as the
// monitor tapped each record, so this is a read of accumulated
// results, not a pass over stored records, and calling it again
// changes nothing. Predictions equal Predictor.Infer over
// Monitor.ResponseRecords. The returned slice is backed by scratch
// owned by the attack: it is valid until the next Arm call and must
// not be retained across trials.
func (a *Attack) Infer() []Inference { return a.stream.Inferences() }
