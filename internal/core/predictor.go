package core

import (
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/h2"
	"repro/internal/h2sim"
	"repro/internal/obs"
	"repro/internal/tlsrec"
	"repro/internal/trace"
	"repro/internal/website"
)

// Inference is one object transmission the predictor believes it
// observed: a delimiter-bounded run of full-size records.
type Inference struct {
	// EstSize is the estimated object size in plaintext bytes.
	EstSize int

	// Object is the size-table match, or nil when no object matched
	// within tolerance.
	Object *website.Object

	// Start and End are the observation times of the run.
	Start, End time.Duration

	// Records is the number of data records in the run.
	Records int
}

// The predictor's protocol knowledge: the size-match window and the
// record-length thresholds that carve Figure 1's delimiter-bounded
// runs out of the server→client record stream.
const (
	// tolerance is the size-match window in bytes.
	tolerance = 32

	// perRecordOverhead is the ciphertext a data record carries
	// beyond its DATA payload: the frame header and the AEAD overhead.
	perRecordOverhead = h2.FrameHeaderLen + tlsrec.Overhead

	// fullCipher is the ciphertext length of a full data record (the
	// server's ChunkPlain payload plus perRecordOverhead). Runs end at
	// any data record shorter than this.
	fullCipher = h2sim.ChunkPlain + perRecordOverhead

	// minDataCipher separates control/HEADERS records from data
	// records.
	minDataCipher = 120

	// idleGap discards an unterminated run when the stream goes quiet
	// longer than this (a transfer cut off without its delimiter, e.g.
	// by a stream reset, leaves a run that must not absorb the next
	// object).
	idleGap = 600 * time.Millisecond
)

// segmentConfig is the predictor's protocol knowledge expressed as
// the segmentation engine's config.
var segmentConfig = analysis.SegmentConfig{
	FullCipher:        fullCipher,
	MinDataCipher:     minDataCipher,
	PerRecordOverhead: perRecordOverhead,
	IdleGap:           idleGap,
}

// Predictor is the adversary's size-inference arm. It knows the
// protocol constants (record overhead, frame header size, the
// server's full-record size) and carries the precompiled size→object
// table the paper's adversary uses.
type Predictor struct {
	// Site supplies the size table.
	Site *website.Site

	// table is the compiled size→object index: entries sorted by size
	// with duplicate sizes collapsed to the lowest-index object, so
	// matchPrimed's two binary-search neighbors pick the closest
	// object with a first-declared-wins tie-break. tableSite keys the
	// cache: the survey builder only changes object sizes by
	// rebuilding the site (a new pointer), so pointer identity is a
	// sound key.
	table     []sizeEntry
	tableSite *website.Site
}

// sizeEntry is one compiled size-table row.
type sizeEntry struct {
	size int
	idx  int // original Site.Objects index, the tie-break order
	obj  *website.Object
}

// NewPredictor builds a predictor for site.
func NewPredictor(site *website.Site) *Predictor {
	return &Predictor{Site: site}
}

// Infer scans server→client application records for delimiter-bounded
// runs: consecutive full-size records terminated by a sub-full record
// (the paper's Figure 1 size-estimation procedure). Each run yields
// an estimated object size, matched against the size table.
//
// Two kinds of separator discard an unterminated run: a control-size
// record (every serialized response opens with a small HEADERS
// record, so a run still open when one appears was cut off without
// its delimiter) and an idle gap longer than idleGap.
//
// Infer replays the records through the same StreamInference engine
// an armed Attack runs online, and returns a freshly allocated slice.
func (p *Predictor) Infer(records []trace.RecordObs) []Inference {
	var s StreamInference
	s.Start(p, obs.Sink{})
	for _, r := range records {
		s.Observe(r)
	}
	return s.Inferences()
}

// Prime compiles the size table for the current Site if it is not
// already compiled. Matching after Prime is a two-neighbor binary
// search; StreamInference.Start calls it, so the sort is paid once
// per site across the trials a worker runs there.
func (p *Predictor) Prime() {
	if p.tableSite == p.Site && p.table != nil {
		return
	}
	p.table = p.table[:0]
	for i := range p.Site.Objects {
		o := &p.Site.Objects[i]
		p.table = append(p.table, sizeEntry{size: o.Size, idx: i, obj: o})
	}
	sort.Slice(p.table, func(i, j int) bool {
		a, b := p.table[i], p.table[j]
		if a.size != b.size {
			return a.size < b.size
		}
		return a.idx < b.idx
	})
	// Collapse duplicate sizes to the lowest original index, the
	// object a first-wins scan over Site.Objects would keep.
	out := p.table[:0]
	for _, e := range p.table {
		if len(out) > 0 && out[len(out)-1].size == e.size {
			continue
		}
		out = append(out, e)
	}
	p.table = out
	p.tableSite = p.Site
}

// matchPrimed finds the site object whose size is within tolerance of
// est, or nil. Among candidates the closest wins; on an exact diff tie
// the lowest-index object wins. Only the floor and ceiling neighbors
// of est in the compiled table can hold the minimal diff, and on a tie
// between them the lower original index wins (TestPrimedMatchEquivalence
// pins this against a linear scan). Callers must Prime first.
func (p *Predictor) matchPrimed(est int) *website.Object {
	t := p.table
	// First entry with size >= est.
	lo, hi := 0, len(t)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t[mid].size < est {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	var best *website.Object
	bestDiff := tolerance + 1
	bestIdx := 0
	if lo < len(t) {
		if diff := t[lo].size - est; diff < bestDiff {
			best, bestDiff, bestIdx = t[lo].obj, diff, t[lo].idx
		}
	}
	if lo > 0 {
		e := t[lo-1]
		diff := est - e.size
		if diff <= tolerance && (diff < bestDiff || (diff == bestDiff && e.idx < bestIdx)) {
			best = e.obj
		}
	}
	return best
}

// PredictEmblemOrder extracts the predicted survey outcome: the
// distinct emblem images in order of first identified appearance.
// Positions beyond the identified emblems are -1.
func (p *Predictor) PredictEmblemOrder(infs []Inference) [website.PartyCount]int {
	var order [website.PartyCount]int
	for i := range order {
		order[i] = -1
	}
	var seen [website.PartyCount]bool
	pos := 0
	for _, inf := range infs {
		if inf.Object == nil || pos >= website.PartyCount {
			continue
		}
		party := inf.Object.ID - website.EmblemID(0)
		if party < 0 || party >= website.PartyCount || seen[party] {
			continue
		}
		seen[party] = true
		order[pos] = party
		pos++
	}
	return order
}

// IdentifiedHTML reports whether any inference matched the result
// HTML.
func (p *Predictor) IdentifiedHTML(infs []Inference) bool {
	for _, inf := range infs {
		if inf.Object != nil && inf.Object.ID == website.ResultHTMLID {
			return true
		}
	}
	return false
}
