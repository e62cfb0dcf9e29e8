package core

import (
	"time"

	"repro/internal/tlsrec"
	"repro/internal/trace"
	"repro/internal/website"
)

// This file holds the post-hoc inference pass — its own segmentation
// loop and a linear-scan size match — as the independent oracle the
// production engine (StreamInference over analysis.Segmenter and the
// primed size table) is checked against.

// inferAppend is the reference Figure 1 pass over a stored record
// slice, appending each delimiter-bounded run's inference to out.
func (p *Predictor) inferAppend(out []Inference, records []trace.RecordObs) []Inference {
	var (
		runSize  int
		runRecs  int
		start    time.Duration
		lastSeen time.Duration
	)
	flush := func(end time.Duration) {
		if runRecs == 0 {
			return
		}
		inf := Inference{EstSize: runSize, Start: start, End: end, Records: runRecs}
		inf.Object = p.match(runSize)
		out = append(out, inf)
		runSize, runRecs = 0, 0
	}
	discard := func() { runSize, runRecs = 0, 0 }
	for _, r := range records {
		if r.Dir != trace.ServerToClient || !r.IsAppData() {
			continue
		}
		if runRecs > 0 && idleGap > 0 && r.Time-lastSeen > idleGap {
			discard()
		}
		lastSeen = r.Time
		if r.Length < minDataCipher {
			// Control or HEADERS record: a new response is starting,
			// so an unterminated run was a cut-off transfer.
			discard()
			continue
		}
		if runRecs == 0 {
			start = r.Time
		}
		// Plain bytes carried: ciphertext minus record overhead minus
		// the DATA frame header.
		payload := r.Length - tlsrec.Overhead - 9
		if payload < 0 {
			payload = 0
		}
		runSize += payload
		runRecs++
		if r.Length < fullCipher {
			// Sub-full record: the delimiting packet that ends an
			// object's transmission.
			flush(r.Time)
		}
	}
	// An unterminated trailing run is not flushed: without its
	// delimiter the size is not observable.
	return out
}

// match finds the site object whose size is within tolerance, or nil.
// Among candidates the closest wins; on an exact diff tie the
// lowest-index object wins (the strict < keeps the first seen). This
// linear scan is the reference semantics — matchPrimed must agree on
// every input (TestPrimedMatchEquivalence).
func (p *Predictor) match(est int) *website.Object {
	var best *website.Object
	bestDiff := tolerance + 1
	for i := range p.Site.Objects {
		o := &p.Site.Objects[i]
		diff := o.Size - est
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff {
			best, bestDiff = o, diff
		}
	}
	return best
}
