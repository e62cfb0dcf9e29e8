package telemetry

import (
	"sync"
	"time"
)

// Tracker is the campaign-level side of the plane: which campaign is
// running (name, fingerprint, total trials) and its latest progress
// snapshot (done count, throughput, ETA). The pipeline's OnProgress
// callback feeds it plain values — the telemetry package deliberately
// does not import internal/pipeline (pipeline imports telemetry for
// the gauges, and the dependency must stay one-way) — and the status
// server samples it per request.
//
// Unlike the Gauges cells, tracker updates set several fields that
// must be read consistently (done/total/rate belong to one progress
// callback), so it is a small mutex-guarded struct rather than
// independent atomics. Update rate is one progress callback per
// trial; scrape rate is human; contention is irrelevant.
type Tracker struct {
	mu sync.Mutex
	s  TrackerSnapshot
}

// TrackerSnapshot is one consistent view of the tracked campaign.
type TrackerSnapshot struct {
	// Campaign is the campaign name ("survey", "table1.delay", or a
	// CLI-level label covering several sweeps).
	Campaign string
	// Fingerprint is the campaign's generator fingerprint, when known
	// — the same string the checkpoint verifies on resume.
	Fingerprint string
	// Shard is the "i/N" shard spec when running in shard mode
	// (empty otherwise).
	Shard string

	// Done/Failed/Total count trials of the current run portion;
	// Total is 0 until a campaign starts.
	Done   int
	Failed int
	Total  int
	// TrialsPerSec and Remaining mirror pipeline.Progress — the one
	// code path both the -progress line and /status report from.
	TrialsPerSec float64
	Remaining    time.Duration

	// Started is when the tracker first saw this campaign.
	Started time.Time
}

// SetCampaign records the identity of the campaign now running and
// resets the progress counts. Passing totals <= 0 keeps the previous
// total (used when identity is known before the trial count).
func (t *Tracker) SetCampaign(name, fingerprint, shard string, total int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.s.Campaign, t.s.Fingerprint, t.s.Shard = name, fingerprint, shard
	if total > 0 {
		t.s.Total = total
	}
	t.s.Done, t.s.Failed = 0, 0
	t.s.TrialsPerSec, t.s.Remaining = 0, 0
	t.s.Started = time.Now()
	t.mu.Unlock()
}

// SetProgress records the latest progress callback's values.
func (t *Tracker) SetProgress(done, failed, total int, trialsPerSec float64, remaining time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.s.Done, t.s.Failed = done, failed
	if total > 0 {
		t.s.Total = total
	}
	t.s.TrialsPerSec, t.s.Remaining = trialsPerSec, remaining
	t.mu.Unlock()
}

// Snapshot returns one consistent copy of the tracked state.
func (t *Tracker) Snapshot() TrackerSnapshot {
	if t == nil {
		return TrackerSnapshot{}
	}
	t.mu.Lock()
	s := t.s
	t.mu.Unlock()
	return s
}
