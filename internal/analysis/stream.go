package analysis

import (
	"time"

	"repro/internal/trace"
)

// This file is the streaming half of the package: an incremental
// run-segmentation engine over TLS record observations. The paper's
// adversary is an online observer — it watches records appear on the
// wire and carves the server→client stream into delimiter-bounded
// runs of full-size records (Figure 1's size-estimation procedure) as
// they happen, not from a stored capture. Segmenter is that engine:
// zero state allocation, one call per observed record, a completed
// run returned the moment its delimiting record arrives.

// SegmentConfig is the protocol knowledge the segmentation engine
// needs. It mirrors the predictor's protocol constants (package
// core); the zero value is not useful — callers supply explicit
// values.
type SegmentConfig struct {
	// FullCipher is the ciphertext length of a full data record. A
	// data record shorter than this delimits (ends) the current run.
	FullCipher int

	// MinDataCipher separates control/HEADERS records from data
	// records: a response-direction record below it discards any open
	// run (the transfer was cut off without its delimiter).
	MinDataCipher int

	// PerRecordOverhead is subtracted from each record's ciphertext
	// length to recover the plaintext payload it carried (TLS record
	// overhead plus the HTTP/2 frame header).
	PerRecordOverhead int

	// IdleGap discards an open run when the stream goes quiet longer
	// than this. Zero disables the idle check.
	IdleGap time.Duration
}

// Run is one delimiter-bounded record run: consecutive full-size
// server→client data records terminated by a sub-full record. Size is
// the estimated plaintext byte count — the paper's size side channel.
type Run struct {
	// Size is the estimated object size in plaintext bytes.
	Size int

	// Records is the number of data records in the run.
	Records int

	// Start and End are the observation times of the run's first and
	// delimiting records.
	Start, End time.Duration
}

// Segmenter carves a stream of record observations into runs,
// incrementally. Feed it every observed record in arrival order; it
// filters to server→client application data itself, so callers can
// hand it the raw tap stream. The zero value is unusable — call Reset
// with a config first. A Segmenter holds a few integers of state and
// never allocates.
type Segmenter struct {
	cfg      SegmentConfig
	size     int
	recs     int
	start    time.Duration
	lastSeen time.Duration
}

// Reset rewinds the segmenter for a new stream, installing cfg.
func (g *Segmenter) Reset(cfg SegmentConfig) {
	g.cfg = cfg
	g.size, g.recs = 0, 0
	g.start, g.lastSeen = 0, 0
}

// Feed ingests one record observation. When the record delimits a run
// (a sub-full data record), the completed run is returned with
// ok=true; every other record returns ok=false. An unterminated run —
// cut off by a control-size record, an idle gap, or end of stream —
// is silently discarded: without its delimiter the size is not
// observable.
func (g *Segmenter) Feed(r trace.RecordObs) (run Run, ok bool) {
	if !r.IsResponseData() {
		return Run{}, false
	}
	if g.recs > 0 && g.cfg.IdleGap > 0 && r.Time-g.lastSeen > g.cfg.IdleGap {
		g.size, g.recs = 0, 0
	}
	g.lastSeen = r.Time
	if r.Length < g.cfg.MinDataCipher {
		// Control or HEADERS record: a new response is starting, so an
		// unterminated run was a cut-off transfer.
		g.size, g.recs = 0, 0
		return Run{}, false
	}
	if g.recs == 0 {
		g.start = r.Time
	}
	payload := r.Length - g.cfg.PerRecordOverhead
	if payload < 0 {
		payload = 0
	}
	g.size += payload
	g.recs++
	if r.Length < g.cfg.FullCipher {
		// Sub-full record: the delimiting packet that ends an object's
		// transmission.
		run = Run{Size: g.size, Records: g.recs, Start: g.start, End: r.Time}
		g.size, g.recs = 0, 0
		return run, true
	}
	return Run{}, false
}
