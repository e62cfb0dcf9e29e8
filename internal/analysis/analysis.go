// Package analysis computes the evaluation metrics of the paper from
// ground-truth traces: the degree of multiplexing of each transmitted
// object copy (the fraction of its bytes interleaved with bytes of
// another transmission in the same TCP stream, the paper's section II
// definition), completeness, and the clean-copy success criteria used
// by Tables I/II and Figure 5.
//
// The central type is CopyTransmission — one transmission of one
// object copy reconstructed from ground-truth frame events — which
// CopyTransmissions builds from a trace and the Clean*/Degree helpers
// score, keyed by CopyKey (object, copy number).
package analysis

import (
	"sort"
	"time"

	"repro/internal/trace"
)

// CopyKey identifies one transmitted copy of an object (duplicates
// from re-requests get distinct CopyIDs).
type CopyKey struct {
	ObjectID int
	CopyID   int
}

// CopyTransmission summarizes one object copy's presence on the wire.
type CopyTransmission struct {
	Key      CopyKey
	StreamID uint32

	// Start and End bound the copy's DATA bytes in the server's TCP
	// stream (wire offsets).
	Start, End int64

	// Bytes is the payload transmitted; Complete reports whether the
	// final (END_STREAM) frame was sent.
	Bytes    int
	Complete bool

	// InterleavedBytes counts payload bytes that fell strictly inside
	// another copy's transmission span; Degree is the fraction.
	InterleavedBytes int
	Degree           float64

	// StartTime and EndTime are the enqueue times of the first and
	// last DATA frames.
	StartTime, EndTime time.Duration
}

// CopyTransmissions groups ground-truth frame events by copy and
// computes each copy's degree of multiplexing. Results are ordered by
// first wire byte. It scores with a fresh Analyzer, so the returned
// transmissions belong to the caller and may be retained. Hot loops
// that score one trace per trial should keep an Analyzer instead and
// reuse its arena.
func CopyTransmissions(tr *trace.Trace) []*CopyTransmission {
	var a Analyzer
	return a.Copies(tr)
}

// Analyzer reconstructs copy transmissions into reused internal
// storage (the copy table, the sorted wire-frame buffer, the sorters
// and the transmission arena), so a trial world that scores one
// ground-truth trace per trial allocates nothing once the storage has
// grown to its high-water mark. An Analyzer is not safe for concurrent
// use; keep one per worker, like experiment.World.
type Analyzer struct {
	// byObj is the copy table, indexed by object ID (object IDs are
	// small and non-negative): each entry lists that object's copies
	// with their arena index, in first-occurrence order. An object
	// has one copy plus a few duplicates, so a lookup scans a list of
	// one or two entries instead of hashing a key.
	byObj [][]copySlot
	wire  []trace.FrameEvent
	arena []CopyTransmission
	order []*CopyTransmission

	wireSorter  wireByOffset
	orderSorter copiesByStart
}

// Copies is CopyTransmissions over the analyzer's arena: the returned
// transmissions are valid only until the next Copies call on the same
// analyzer, for consumers that extract verdicts immediately.
func (a *Analyzer) Copies(tr *trace.Trace) []*CopyTransmission {
	// Pass 1: count the wire (Len>0) frames and the distinct copies,
	// so the arena and scratch below are sized exactly once.
	for i := range a.byObj {
		a.byObj[i] = a.byObj[i][:0]
	}
	nWire, nCopies := 0, 0
	for i := range tr.Frames {
		f := &tr.Frames[i]
		if f.Len == 0 {
			continue // HEADERS marker
		}
		nWire++
		if a.index(f.ObjectID, f.CopyID) < 0 {
			if f.ObjectID >= len(a.byObj) {
				a.byObj = append(a.byObj, make([][]copySlot, f.ObjectID+1-len(a.byObj))...)
			}
			a.byObj[f.ObjectID] = append(a.byObj[f.ObjectID], copySlot{copyID: f.CopyID, idx: nCopies})
			nCopies++
		}
	}

	// Pass 2: fill a single arena of transmissions in place. The
	// returned pointers all point into this one allocation. Indices
	// were assigned in first-occurrence order, so while iterating the
	// frames in the same order, index inited is hit exactly when its
	// copy's first frame appears.
	if cap(a.arena) < nCopies {
		a.arena = make([]CopyTransmission, nCopies)
	} else {
		a.arena = a.arena[:nCopies]
		for i := range a.arena {
			a.arena[i] = CopyTransmission{}
		}
	}
	if cap(a.order) < nCopies {
		a.order = make([]*CopyTransmission, nCopies)
	}
	a.order = a.order[:nCopies]
	arena, order := a.arena, a.order
	wire := a.wire[:0]
	if cap(wire) < nWire {
		wire = make([]trace.FrameEvent, 0, nWire)
	}
	inited := 0
	for _, f := range tr.Frames {
		if f.Len == 0 {
			continue
		}
		wire = append(wire, f)
		idx := a.index(f.ObjectID, f.CopyID)
		ct := &arena[idx]
		if idx == inited {
			inited++
			ct.Key = CopyKey{ObjectID: f.ObjectID, CopyID: f.CopyID}
			ct.StreamID = f.StreamID
			ct.Start = f.Offset
			ct.StartTime = f.Time
		}
		ct.Bytes += f.Len
		if end := f.Offset + int64(f.WireLen); end > ct.End {
			ct.End = end
		}
		if f.Time > ct.EndTime {
			ct.EndTime = f.Time
		}
		if f.End {
			ct.Complete = true
		}
	}
	a.wire = wire

	// Degree of multiplexing: a frame of copy X is interleaved when an
	// adjacent frame on the wire belongs to a different copy whose
	// transmission span overlaps X's. This matches what the size
	// side-channel needs: a delimiter-bounded record run is only
	// attributable to X when no concurrent transmission's records
	// border X's (sequentially adjacent transmissions do not count —
	// that is the normal delimited case of Figure 1). Wire offsets are
	// unique (each sealed record advances the stream), so the unstable
	// sort is deterministic.
	a.wireSorter.w = wire
	sort.Sort(&a.wireSorter)
	a.wireSorter.w = nil
	overlaps := func(a, b *CopyTransmission) bool {
		return a.Start < b.End && b.Start < a.End
	}
	foreignNeighbor := func(x *CopyTransmission, idx int) bool {
		f := &wire[idx]
		if f.ObjectID == x.Key.ObjectID && f.CopyID == x.Key.CopyID {
			return false
		}
		return overlaps(x, &arena[a.index(f.ObjectID, f.CopyID)])
	}
	for i, f := range wire {
		x := &arena[a.index(f.ObjectID, f.CopyID)]
		if (i > 0 && foreignNeighbor(x, i-1)) || (i+1 < len(wire) && foreignNeighbor(x, i+1)) {
			x.InterleavedBytes += f.Len
		}
	}
	for i := range arena {
		x := &arena[i]
		if x.Bytes > 0 {
			x.Degree = float64(x.InterleavedBytes) / float64(x.Bytes)
		}
		order[i] = x
	}
	a.orderSorter.c = order
	sort.Sort(&a.orderSorter)
	a.orderSorter.c = nil
	return order
}

// copySlot is one copy table entry: a copy number and the arena index
// of its transmission.
type copySlot struct {
	copyID, idx int
}

// index returns the arena index of an object copy, or -1 if the copy
// table does not hold it.
func (a *Analyzer) index(objectID, copyID int) int {
	if uint(objectID) < uint(len(a.byObj)) {
		for _, s := range a.byObj[objectID] {
			if s.copyID == copyID {
				return s.idx
			}
		}
	}
	return -1
}

// wireByOffset sorts wire frames by stream byte offset without the
// sort.Slice reflection allocations (the analyzer stores one sorter
// and re-points it per call).
type wireByOffset struct{ w []trace.FrameEvent }

func (s *wireByOffset) Len() int           { return len(s.w) }
func (s *wireByOffset) Less(i, j int) bool { return s.w[i].Offset < s.w[j].Offset }
func (s *wireByOffset) Swap(i, j int)      { s.w[i], s.w[j] = s.w[j], s.w[i] }

// copiesByStart sorts transmissions by first wire byte, likewise
// allocation-free.
type copiesByStart struct{ c []*CopyTransmission }

func (s *copiesByStart) Len() int           { return len(s.c) }
func (s *copiesByStart) Less(i, j int) bool { return s.c[i].Start < s.c[j].Start }
func (s *copiesByStart) Swap(i, j int)      { s.c[i], s.c[j] = s.c[j], s.c[i] }

// CopiesOf filters transmissions of one object.
func CopiesOf(copies []*CopyTransmission, objectID int) []*CopyTransmission {
	var out []*CopyTransmission
	for _, c := range copies {
		if c.Key.ObjectID == objectID {
			out = append(out, c)
		}
	}
	return out
}

// CleanCopy reports whether some complete copy of the object was
// transmitted with zero multiplexing, and whether the original
// (first-requested) copy was. The distinction drives the paper's
// Figure 5 discussion: at high bandwidth many "successes" come from
// retransmitted copies rather than the original.
func CleanCopy(copies []*CopyTransmission, objectID int) (anyClean, originalClean bool) {
	for _, c := range CopiesOf(copies, objectID) {
		if !c.Complete || c.Degree != 0 {
			continue
		}
		anyClean = true
		if c.Key.CopyID == 0 {
			originalClean = true
		}
	}
	return anyClean, originalClean
}

// OriginalDegree returns the degree of multiplexing of the object's
// first transmitted copy, or -1 if it never hit the wire.
func OriginalDegree(copies []*CopyTransmission, objectID int) float64 {
	for _, c := range copies {
		if c.Key.ObjectID == objectID && c.Key.CopyID == 0 {
			return c.Degree
		}
	}
	return -1
}
