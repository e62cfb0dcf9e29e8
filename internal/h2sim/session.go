package h2sim

import (
	"time"

	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/trace"
	"repro/internal/website"
)

// SessionConfig assembles one simulated page load.
type SessionConfig struct {
	// Seed drives all randomness in the trial.
	Seed int64

	// Path is the ambient network configuration. The zero value uses
	// DefaultPath.
	Path netem.PathConfig

	// TCP tunes both transport endpoints.
	TCP tcpsim.Config

	// Server and Client tune the HTTP/2 endpoints.
	Server ServerConfig
	Client ClientConfig

	// TimeLimit bounds the simulated wall clock. Zero means
	// DefaultTimeLimit.
	TimeLimit time.Duration

	// DrainTime lets in-flight transmissions settle after the page
	// completes, so ground truth captures trailing duplicates. Zero
	// means DefaultDrainTime.
	DrainTime time.Duration

	// RandomizeAmbient redraws the path's RTT per trial from the
	// session's seeded RNG, modelling the day-to-day network variation
	// across the paper's ~500 volunteer sessions: Reset overwrites
	// both directions' PropDelay (server side 30-62ms, client side
	// 1-4ms) whatever Path holds, and leaves every other Path field,
	// jitter included, as configured.
	RandomizeAmbient bool

	// Obs, when enabled, receives metric increments and flight events
	// from every layer of the session (links, TCP endpoints, HTTP/2
	// client and server). The zero Sink discards everything at the cost
	// of one branch per site.
	Obs obs.Sink
}

// DefaultPath models the paper's setup: a short first hop from the
// client to the lab gateway (the compromised middlebox) and a
// long-RTT Internet path to the origin. The ~100ms RTT is what makes
// the early large objects' slow-start transfers span later requests —
// the source of the baseline multiplexing.
func DefaultPath() netem.PathConfig {
	return netem.PathConfig{
		ClientSide: netem.LinkConfig{
			RateBitsPerSec: 1_000_000_000,
			PropDelay:      2 * time.Millisecond,
			Jitter:         netem.UniformJitter(800 * time.Microsecond),
			Loss:           0.0005,
		},
		ServerSide: netem.LinkConfig{
			RateBitsPerSec: 1_000_000_000,
			PropDelay:      46 * time.Millisecond,
			Jitter:         netem.UniformJitter(3 * time.Millisecond),
			Loss:           0.002,
		},
	}
}

// SessionConfig's defaults, which withDefaults fills into zero fields.
const (
	// DefaultTimeLimit bounds a page load's simulated time.
	DefaultTimeLimit = 120 * time.Second

	// DefaultDrainTime is how long a session runs on after the page
	// completes.
	DefaultDrainTime = 2 * time.Second
)

func (c SessionConfig) withDefaults() SessionConfig {
	unset := func(lc netem.LinkConfig) bool {
		return lc.RateBitsPerSec == 0 && lc.PropDelay == 0 && lc.Jitter == nil &&
			lc.Loss == 0 && lc.MaxQueueDelay == 0
	}
	if unset(c.Path.ClientSide) && unset(c.Path.ServerSide) {
		c.Path = DefaultPath()
	}
	if c.TimeLimit == 0 {
		c.TimeLimit = DefaultTimeLimit
	}
	if c.DrainTime == 0 {
		c.DrainTime = DefaultDrainTime
	}
	return c
}

// Session is one assembled trial: simulator, network path with
// middlebox, TCP connection, HTTP/2 endpoints, and traces.
type Session struct {
	Sim    *sim.Simulator
	Conn   *tcpsim.Conn
	Server *Server
	Client *Client
	Site   *website.Site

	// GroundTruth is the server's frame attribution trace (the
	// evaluator's view; the adversary sees only the middlebox).
	GroundTruth *trace.Trace

	cfg SessionConfig

	// stop and onBreak stop the simulator's Run loop. Reset hands them
	// to the client (OnAllComplete) and to both TCP endpoints (OnBreak);
	// they are built once so that no trial allocates them.
	stop    func()
	onBreak func(error)
}

// NewSession wires up a trial for the given site. Construction builds
// a side-effect-free skeleton (no SETTINGS exchanged, no randomness
// consumed) and then calls Reset, so a fresh session and a reused one
// run any given (site, cfg, seed) identically by construction.
func NewSession(site *website.Site, cfg SessionConfig) *Session {
	s := sim.New(0)
	sess := &Session{
		Sim:         s,
		GroundTruth: &trace.Trace{},
	}
	sess.stop = s.Stop
	sess.onBreak = func(error) { s.Stop() }
	sess.Server = NewServer(s, ServerConfig{}, site)
	sess.Client = NewClient(s, ClientConfig{}, site)
	sess.Conn = tcpsim.NewConn(s, netem.PathConfig{}, tcpsim.Config{},
		sess.Client.OnBytes,
		sess.Server.OnBytes,
	)
	sess.Reset(site, cfg)
	return sess
}

// Reset rewinds the whole stack for a new trial: simulator re-seeded,
// in-flight packets reclaimed into the pool, every layer returned to
// its just-built state for the new site and configuration, and the
// construction-time side effects (ambient randomization draws, the
// SETTINGS exchange from both Attach calls) replayed in the exact
// order NewSession performs them — which is what makes a reused
// session's wire trace byte-identical to a fresh session's at the
// same seed.
func (sess *Session) Reset(site *website.Site, cfg SessionConfig) {
	cfg = cfg.withDefaults()
	s := sess.Sim
	sess.Conn.Path.ReclaimPending(s)
	s.Reset(cfg.Seed)
	s.MaxSteps = 50_000_000

	if cfg.RandomizeAmbient {
		rng := s.Rand()
		// Server-side one-way delay 30-62ms (path RTT ~64-132ms),
		// client-side 1-4ms.
		cfg.Path.ServerSide.PropDelay = 30*time.Millisecond +
			time.Duration(rng.Int63n(int64(32*time.Millisecond)))
		cfg.Path.ClientSide.PropDelay = time.Millisecond +
			time.Duration(rng.Int63n(int64(3*time.Millisecond)))
	}
	sess.Site = site
	sess.cfg = cfg
	sess.GroundTruth.Reset()
	sess.Server.Reset(cfg.Server, site)
	sess.Client.Reset(cfg.Client, site)
	sess.Server.GroundTruth = sess.GroundTruth
	sess.Conn.Reset(cfg.Path, cfg.TCP)
	// Fan the metric sink out to every layer before Attach, so even the
	// SETTINGS exchange is counted (each layer's Reset cleared its copy).
	sess.Conn.SetObs(cfg.Obs)
	sess.Client.Obs = cfg.Obs
	sess.Server.Obs = cfg.Obs
	sess.Client.Attach(sess.Conn.Client)
	sess.Server.Attach(sess.Conn.Server)
	sess.Conn.Client.OnRetransmit = sess.Client.OnTCPRetransmit
	sess.Client.OnAllComplete = sess.stop
	sess.Conn.Client.OnBreak = sess.onBreak
	sess.Conn.Server.OnBreak = sess.onBreak
}

// Middlebox returns the compromised vantage point for adversary
// installation.
func (sess *Session) Middlebox() *netem.Middlebox { return sess.Conn.Path.Mbox }

// Run executes the page load until completion, connection break, or
// the time limit, then drains in-flight transmissions.
func (sess *Session) Run() {
	sess.load()
	if !sess.Conn.Broken() {
		sess.Sim.RunUntil(sess.Sim.Now() + sess.cfg.DrainTime)
	}
}

// load starts the client and runs the page load until it completes,
// the connection breaks or the time limit passes. The first two stop
// the simulator where they happen (Reset wires them to Stop); the
// limit is Run's. The first event at or past the limit still runs.
func (sess *Session) load() {
	sess.Client.Start()
	sess.Sim.Run(sess.cfg.TimeLimit)
}

// Broken reports whether the trial ended with a broken connection.
func (sess *Session) Broken() bool { return sess.Conn.Broken() }

// TotalRetransmissions sums the transport retransmissions on both
// endpoints with the client's application-level re-requests — the
// paper's "number of retransmissions" observable.
func (sess *Session) TotalRetransmissions() int {
	return sess.Conn.Client.Stats.Retransmits +
		sess.Conn.Server.Stats.Retransmits +
		sess.Client.Stats.ReRequests
}
