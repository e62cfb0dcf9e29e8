package obs

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// EventKind enumerates the typed events the flight recorder captures.
// Each kind documents the meaning of its A/B payload fields.
type EventKind uint8

const (
	// EvNetemDrop: a link dropped a packet. A = 0 for a random-loss
	// drop, 1 for a queue-overflow drop; B = payload length in bytes.
	EvNetemDrop EventKind = iota
	// EvTCPFastRetx: a fast retransmit fired. A = retransmitted
	// sequence number, B = congestion window in bytes afterwards.
	EvTCPFastRetx
	// EvTCPTimeoutRetx: an RTO expired and retransmitted. A = sequence
	// number, B = backoff shift (number of consecutive timeouts).
	EvTCPTimeoutRetx
	// EvTCPBroken: the connection gave up after max retries. A =
	// sequence number that exhausted its retries.
	EvTCPBroken
	// EvH2Request: the client issued a request on a new stream. A =
	// stream ID, B = object ID.
	EvH2Request
	// EvH2Stall: the client's stall timer fired with streams still
	// open. A = number of open streams.
	EvH2Stall
	// EvH2ResetRound: the client cancelled all open streams with
	// RST_STREAM. A = number of streams reset, B = round number.
	EvH2ResetRound
	// EvH2Refetch: the client queued a re-request of an object after a
	// reset round. A = object ID.
	EvH2Refetch
	// EvH2ObjComplete: an object finished downloading. A = object ID,
	// B = bytes received.
	EvH2ObjComplete
	// EvH2SrvDupCopy: the server spawned a duplicate response copy for
	// a re-requested object (the spurious-retransmission mechanism
	// behind Table I / Fig. 5). A = object ID, B = copy index.
	EvH2SrvDupCopy
	// EvAtkPhase: the adversary advanced an attack phase. A = phase
	// number entered (2 or 3).
	EvAtkPhase
	// EvPredRun: the streaming inference engine closed a record run
	// (the delimiting sub-full record arrived). A = estimated object
	// size in bytes, B = matched object ID, or -1 when no size-table
	// entry was within tolerance.
	EvPredRun

	eventKindCount // number of event kinds; must stay last
)

var eventKindNames = [eventKindCount]string{
	EvNetemDrop:      "netem.drop",
	EvTCPFastRetx:    "tcp.fast_retx",
	EvTCPTimeoutRetx: "tcp.timeout_retx",
	EvTCPBroken:      "tcp.broken",
	EvH2Request:      "h2.request",
	EvH2Stall:        "h2.stall",
	EvH2ResetRound:   "h2.reset_round",
	EvH2Refetch:      "h2.refetch",
	EvH2ObjComplete:  "h2.obj_complete",
	EvH2SrvDupCopy:   "h2.srv_dup_copy",
	EvAtkPhase:       "attack.phase",
	EvPredRun:        "attack.pred.run",
}

// String returns the event kind's export name.
func (k EventKind) String() string {
	if k < eventKindCount {
		return eventKindNames[k]
	}
	return "event(?)"
}

// Event is one flight-recorder entry: a typed event stamped with the
// simulation clock plus two integer payload fields whose meaning is
// documented on the EventKind.
type Event struct {
	At   time.Duration
	Kind EventKind
	A, B int64
}

// Recorder is the per-trial flight recorder: a fixed-capacity ring of
// typed events that keeps the most recent entries. It is reset at the
// start of each recorded trial, filled by Sink.Event during the
// simulation, and dumped afterwards. Recording is allocation-free
// (the ring is preallocated) and single-goroutine, like everything
// else inside one trial.
type Recorder struct {
	ring    []Event
	next    int
	total   uint64
	dropped uint64
}

// NewRecorder returns a recorder holding up to capacity events
// (minimum 1).
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{ring: make([]Event, 0, capacity)}
}

// Reset discards all recorded events, keeping the ring's capacity.
func (r *Recorder) Reset() {
	r.ring = r.ring[:0]
	r.next = 0
	r.total = 0
	r.dropped = 0
}

// Record appends one event, evicting the oldest when full.
func (r *Recorder) Record(at time.Duration, kind EventKind, a, b int64) {
	r.total++
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, Event{At: at, Kind: kind, A: a, B: b})
		return
	}
	r.ring[r.next] = Event{At: at, Kind: kind, A: a, B: b}
	r.next = (r.next + 1) % cap(r.ring)
	r.dropped++
}

// Events returns the recorded events in arrival order. The returned
// slice is freshly allocated; use only after the trial completes.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// Dropped reports how many events were evicted because the ring was
// full.
func (r *Recorder) Dropped() uint64 { return r.dropped }

// Total reports how many events were recorded, including evicted
// ones.
func (r *Recorder) Total() uint64 { return r.total }

// Dump renders the recorded events through WriteEvents, after a line
// naming the evicted events when the ring overflowed: the h2trace
// -format events output.
func (r *Recorder) Dump() string {
	var b strings.Builder
	if r.dropped > 0 {
		fmt.Fprintf(&b, "(ring full: %d oldest of %d events evicted)\n", r.dropped, r.total)
	}
	WriteEvents(&b, r.Events())
	return b.String()
}

// WriteEvents renders events as one line each: sim timestamp, kind,
// payload. Recorder.Dump and the status server's /events text view
// both render through it.
func WriteEvents(w io.Writer, events []Event) {
	for _, e := range events {
		fmt.Fprintf(w, "%12s  %-16s a=%-8d b=%d\n", e.At, e.Kind, e.A, e.B)
	}
}
