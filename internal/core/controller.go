// Package core implements the paper's primary contribution: the
// active network adversary that forces an HTTP/2 server to serialize
// multiplexed object transmissions, restoring the encrypted-object-
// size side channel.
//
// The adversary has the same three components as the paper's
// prototype (section V):
//
//   - Controller — the "network controller" (the paper's bash/tc
//     scripts): inter-request spacing via held packets (jitter),
//     bandwidth throttling of the transit links, and targeted drops
//     of server→client application packets.
//   - Monitor — the "traffic monitor" (the paper's tshark): parses
//     cleartext TLS record headers out of the observed byte stream,
//     counts client GET records, and triggers attack phases.
//   - Predictor — the "object prediction module" (the paper's Python
//     scripts): infers object sizes from delimiter-bounded record
//     runs and maps them to identities via a precompiled size table.
//
// Attack composes the three into the paper's phase schedule.
package core

import (
	"time"

	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ControllerStats counts controller actions.
type ControllerStats struct {
	Held    int
	Dropped int
	Passed  int
}

// Controller is the adversary's network-manipulation arm, installed
// as the middlebox interceptor. All methods run on the simulator
// goroutine.
type Controller struct {
	s    *sim.Simulator
	path *netem.Path

	spacing     time.Duration // c->s request spacing; 0 = off
	lastRelease time.Duration

	dropRate  float64
	dropUntil time.Duration

	// Stats accumulates counters.
	Stats ControllerStats

	// Obs receives metric increments; the zero Sink discards them.
	Obs obs.Sink
}

// NewController wires a controller to the path it manipulates. Call
// Install to activate it.
func NewController(s *sim.Simulator, path *netem.Path) *Controller {
	return &Controller{s: s, path: path}
}

// Install registers the controller as the middlebox interceptor.
func (c *Controller) Install() {
	c.path.Mbox.Interceptor = c.Intercept
}

// Reset returns the controller to its just-built state: no spacing,
// no drops, zeroed counters. The simulator and path bindings are
// kept, so a reused world re-arms the same controller each trial.
func (c *Controller) Reset() {
	c.spacing = 0
	c.lastRelease = 0
	c.dropRate = 0
	c.dropUntil = 0
	c.Stats = ControllerStats{}
	c.Obs = obs.Sink{}
}

// SetSpacing enforces a minimum inter-arrival time between
// client→server payload packets (the paper's calculated jitter: "set
// the jitter such that the inter-arrival time of requests is d ms").
// Zero disables.
func (c *Controller) SetSpacing(d time.Duration) {
	c.spacing = d
	if c.lastRelease < c.s.Now() {
		c.lastRelease = c.s.Now()
	}
}

// Spacing returns the active request spacing.
func (c *Controller) Spacing() time.Duration { return c.spacing }

// SetBandwidth throttles both transit directions at the middlebox
// (paper section IV-C). Zero restores unlimited.
func (c *Controller) SetBandwidth(bps int64) { c.path.SetBandwidth(bps) }

// StartDrops begins dropping server→client payload packets with the
// given probability for the given duration (paper section IV-D).
func (c *Controller) StartDrops(rate float64, d time.Duration) {
	c.dropRate = rate
	c.dropUntil = c.s.Now() + d
}

// StopDrops ends the drop phase immediately.
func (c *Controller) StopDrops() { c.dropUntil = 0 }

// DroppingNow reports whether the drop phase is active.
func (c *Controller) DroppingNow() bool {
	return c.dropRate > 0 && c.s.Now() < c.dropUntil
}

// Intercept implements the middlebox verdict for each packet.
func (c *Controller) Intercept(dir trace.Direction, p *netem.Packet) netem.Decision {
	switch dir {
	case trace.ClientToServer:
		// Space out request (payload-bearing) packets; pure ACKs pass
		// so the transport's ack clock survives. On top of the spacing
		// grid each held packet gets a random jitter component of up to
		// one spacing — the adversary's holds are jitter, not a precise
		// scheduler. The occasional near-inversions this produces are
		// what caps the benefit of larger jitter (Table I's plateau)
		// and what triggers the dup-ACK/fast-retransmit side effects
		// the paper reports (section IV-B).
		if c.spacing > 0 && p.Payload.Len() > 0 {
			release := c.s.Now()
			if min := c.lastRelease + c.spacing; release < min {
				release = min
			}
			c.lastRelease = release
			hold := release - c.s.Now()
			hold += time.Duration(c.s.Rand().Int63n(int64(c.spacing) + 1))
			if hold > 0 {
				c.Stats.Held++
				c.Obs.Inc(obs.CCtlHeld)
				c.Obs.ObserveDuration(obs.HCtlHold, hold)
				return netem.Delay(hold)
			}
		}
	case trace.ServerToClient:
		// Targeted drops of application (payload) packets, mimicking a
		// lossy network.
		if c.DroppingNow() && p.Payload.Len() > 0 {
			if c.s.Rand().Float64() < c.dropRate {
				c.Stats.Dropped++
				c.Obs.Inc(obs.CCtlDropped)
				return netem.Drop()
			}
		}
	}
	c.Stats.Passed++
	return netem.Pass()
}
