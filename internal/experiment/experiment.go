// Package experiment is the reproduction harness: it runs the
// paper's experiments on the simulation stack and prints the same
// rows and series the paper reports (Table I, Figure 5, the section
// IV-A and IV-D experiments, Table II, and the section VII defence
// evaluation).
//
// Every trial is driven by a single seed: the seed determines the
// survey outcome (party permutation), the client's think time before
// the result HTML, the ambient network conditions of that session,
// and all packet-level noise — the variation the paper's ~500
// volunteer sessions exhibit. RunTrial executes one such page load;
// Sweeps returns the six fixed sweeps as SweepDefs, whose Run fans the
// trials across the internal/pipeline worker pool (configure with
// Workers and OnProgress) and, because every trial's seed derives from
// its trial index, returns byte-identical results at any worker count.
package experiment

import (
	"time"

	"repro/internal/core"
	"repro/internal/h2sim"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/website"
)

// AdversaryMode selects what is installed at the middlebox. The enum
// starts at 1 so the zero value is invalid.
type AdversaryMode uint8

const (
	// ModePassive is a classic eavesdropper (monitor only).
	ModePassive AdversaryMode = iota + 1
	// ModeJitter applies request spacing only.
	ModeJitter
	// ModeJitterThrottle applies spacing plus a bandwidth cap.
	ModeJitterThrottle
	// ModeFullAttack runs the composed paper attack (spacing →
	// throttle + targeted drops → raised spacing).
	ModeFullAttack
)

// TrialParams configures one page-load trial.
type TrialParams struct {
	// Seed drives all per-trial randomness.
	Seed int64

	// Mode selects the adversary.
	Mode AdversaryMode

	// Spacing is the request spacing for ModeJitter /
	// ModeJitterThrottle.
	Spacing time.Duration

	// Bandwidth is the throttle for ModeJitterThrottle (bits/sec).
	Bandwidth int64

	// Attack overrides the full-attack configuration; zero value
	// means core.PaperAttack.
	Attack core.AttackConfig

	// Server/Client override endpoint knobs (zero values = defaults).
	Server h2sim.ServerConfig
	Client h2sim.ClientConfig

	// TCP overrides transport knobs on both endpoints (zero value =
	// defaults). Used e.g. to lower MaxRetries so a harsh drop phase
	// can actually break the connection.
	TCP tcpsim.Config

	// UniformDelay adds a constant extra one-way delay on both
	// directions (the paper's section IV-A control experiment).
	UniformDelay time.Duration

	// TimeLimit bounds the trial. Zero = session default.
	TimeLimit time.Duration

	// CanonicalOrder enables the paper's section VII ordering defence
	// (images requested in a fixed order regardless of the outcome).
	CanonicalOrder bool

	// PadBucket enables size padding to the given bucket (bytes).
	PadBucket int

	// PushEmblems enables the section VII server-push defence: the
	// server pushes all emblem images in canonical party order when
	// the result HTML is requested, so the client never requests them
	// and the wire order carries no secret.
	PushEmblems bool

	// ObsSegment selects which metrics segment this trial's counters
	// land in when the sweep runs with the Metrics option — sweeps set
	// it to the configuration index (the jitter column, the drop rate,
	// …) so per-configuration aggregates stay separable. Ignored
	// without metrics.
	ObsSegment int
}

// TrialResult is everything the evaluations consume.
type TrialResult struct {
	Broken bool

	// HTML verdicts.
	HTMLCleanAny   bool    // some complete copy transmitted clean
	HTMLCleanOrig  bool    // the original copy was clean
	HTMLIdentified bool    // predictor matched the HTML size
	HTMLDegree     float64 // degree of multiplexing of the original copy

	// Emblem verdicts.
	TruthOrder [website.PartyCount]int
	PredOrder  [website.PartyCount]int
	ImageClean [website.PartyCount]bool // clean copy of i-th requested emblem

	// Traffic counters.
	Retransmissions int // TCP retransmits + client re-requests
	ReRequests      int
	Resets          int
	PageComplete    bool
	LoadTime        time.Duration

	// Requests is the client's request log (issue times, objects,
	// re-issues), used for Table II's inter-request timing rows.
	Requests []h2sim.RequestLog
}

// Ambient variation bounds: the per-trial server-side one-way delay
// is drawn from [AmbientDelayLo, AmbientDelayLo+AmbientDelaySpread]
// and the client think time before the result HTML from
// [AmbientGapLo, AmbientGapLo+AmbientGapSpread]. These four values
// are the calibration of the reproduction (see EXPERIMENTS.md).
const (
	AmbientDelayLo     = 20 * time.Millisecond
	AmbientDelaySpread = 190 * time.Millisecond
	AmbientGapLo       = 40 * time.Millisecond
	AmbientGapSpread   = 210 * time.Millisecond
)

// ambient draws the per-trial network/think-time variation.
func ambient(rng *sim.Rand) (path netem.PathConfig, htmlGap time.Duration) {
	path = h2sim.DefaultPath()
	path.ServerSide.PropDelay = AmbientDelayLo +
		time.Duration(rng.Int63n(int64(AmbientDelaySpread)))
	path.ClientSide.PropDelay = time.Millisecond +
		time.Duration(rng.Int63n(int64(3*time.Millisecond)))
	htmlGap = AmbientGapLo +
		time.Duration(rng.Int63n(int64(AmbientGapSpread)))
	return path, htmlGap
}

// RunTrial executes one trial in a fresh world. Sweeps and other
// hot loops should keep a World per worker and call its RunTrial
// method instead — same results, amortized construction.
func RunTrial(p TrialParams) TrialResult {
	return NewWorld().RunTrial(p)
}

// HTMLSuccess is the paper's success criterion for the object of
// interest: degree of multiplexing brought to zero AND identified
// from the encrypted traffic.
func (r TrialResult) HTMLSuccess() bool {
	return !r.Broken && r.HTMLCleanAny && r.HTMLIdentified
}

// ImageSuccess reports position-i success under the all-objects
// target: the i-th displayed party was correctly identified and its
// emblem transmitted clean.
func (r TrialResult) ImageSuccess(i int) bool {
	return !r.Broken && r.ImageClean[i] && r.PredOrder[i] == r.TruthOrder[i]
}
