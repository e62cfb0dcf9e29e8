package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// telemetryPlane bundles the optional live observability plane for
// one h2attack invocation: the gauge block every layer samples into,
// the campaign tracker, and the HTTP status server. A nil plane (and
// the plane startTelemetry returns for an empty -status) is the
// disabled state — every method and accessor is nil-safe, so the
// campaign modes wire it unconditionally.
type telemetryPlane struct {
	gauges  *telemetry.Gauges
	tracker *telemetry.Tracker
	server  *telemetry.Server
}

// startTelemetry starts the -status server when addr is non-empty and
// returns the plane the campaign modes thread their samples through.
// With an empty addr the returned plane is inert: no server, nil
// gauges and tracker, zero overhead on the trial paths.
func startTelemetry(addr string) (*telemetryPlane, error) {
	p := &telemetryPlane{}
	if addr == "" {
		return p, nil
	}
	p.gauges = &telemetry.Gauges{}
	p.tracker = &telemetry.Tracker{}
	srv, err := telemetry.StartServer(telemetry.ServerConfig{
		Addr:    addr,
		Gauges:  p.gauges,
		Tracker: p.tracker,
		Events:  newEventReplayer(),
	})
	if err != nil {
		return nil, err
	}
	p.server = srv
	fmt.Fprintf(os.Stderr, "h2attack: status server on http://%s (/metrics /status /events?seed=N)\n", srv.Addr())
	return p, nil
}

// newEventReplayer builds the /events hook: a world with a 4096-event
// flight recorder attached that replays the full-attack trial on the
// paper site, which is -table2's trial at that seed and no other
// campaign's (cmd/h2trace replays the others). Trials are pure
// functions of their parameters, so the replayed ring is what that
// campaign's trial recorded. The server serializes calls
// (Server.replayMu), so one world is safe.
func newEventReplayer() func(seed int64) ([]obs.Event, error) {
	w, rec := experiment.NewWorld(), obs.NewRecorder(4096)
	w.SetRecorder(rec)
	return func(seed int64) ([]obs.Event, error) {
		w.RunTrial(experiment.TrialParams{Seed: seed, Mode: experiment.ModeFullAttack})
		return rec.Events(), nil
	}
}

// liveGauges returns the gauge block to thread into runner/pipeline
// configs — nil when the plane is disabled, which every instrumented
// layer treats as the no-op plane.
func (p *telemetryPlane) liveGauges() *telemetry.Gauges {
	if p == nil {
		return nil
	}
	return p.gauges
}

// campaign records the identity of the campaign about to run, so
// /status names it from the first scrape.
func (p *telemetryPlane) campaign(name, fingerprint, shard string, total int) {
	if p == nil {
		return
	}
	p.tracker.SetCampaign(name, fingerprint, shard, total)
}

// progress wraps a progress callback so every update also feeds the
// tracker (the /status progress source) and, for a shard slice
// (inRange), the range-done gauge. inner may be nil; the result is nil
// when both the plane and inner are disabled, so callers can assign it
// to OnProgress unconditionally.
func (p *telemetryPlane) progress(inner func(runner.Progress), inRange bool) func(runner.Progress) {
	if p == nil || p.tracker == nil {
		return inner
	}
	t, g := p.tracker, p.gauges
	return func(pr runner.Progress) {
		if inRange {
			g.Set(telemetry.GRangeDone, int64(pr.Completed))
		}
		t.SetProgress(pr.Completed, pr.Failed, pr.Total, pr.TrialsPerSec, pr.Remaining)
		if inner != nil {
			inner(pr)
		}
	}
}

// shutdown gracefully stops the status server: in-flight scrapes get
// a short grace period, then the listener closes. A no-op when the
// plane is disabled.
func (p *telemetryPlane) shutdown() {
	if p == nil || p.server == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = p.server.Shutdown(ctx)
}

// progressPrinter renders the shared stderr progress line — percent,
// live throughput, ETA — used by every campaign mode (sweeps, survey,
// shard slices). The trials/s figure is runner.Progress.TrialsPerSec,
// the same field /status reports, so the two can never disagree.
func progressPrinter(name string) func(runner.Progress) {
	lastPct := -1
	return func(p runner.Progress) {
		pct := 100 * p.Completed / p.Total
		if pct == lastPct && p.Completed < p.Total {
			return
		}
		lastPct = pct
		fmt.Fprintf(os.Stderr, "\r%s: %d/%d trials (%d%%), %.1f trials/s, eta %v ",
			name, p.Completed, p.Total, pct, p.TrialsPerSec, p.Remaining.Round(time.Second))
		if p.Completed == p.Total {
			fmt.Fprintln(os.Stderr)
		}
	}
}
