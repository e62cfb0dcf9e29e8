// Package trace defines the observation records shared by the network
// simulation, the adversary, and the offline analysis: TLS records
// parsed from the tapped byte stream, and ground-truth HTTP/2 frame
// events emitted by the instrumented server.
//
// Key types: Direction (which way a packet travels), RecordObs (what
// the paper's gateway monitor observes, section V: the cleartext
// header of each TLS record), FrameEvent (server-side ground truth the
// adversary never sees, used only for scoring, as in the paper's
// section VI evaluation), and Trace (a trial's ground-truth frame log,
// scored by package analysis and exported by cmd/h2trace).
package trace

import (
	"fmt"
	"time"
)

// Direction is the side of the client-server path a packet travels.
// The enum starts at 1 so the zero value is invalid.
type Direction uint8

const (
	// ClientToServer carries requests.
	ClientToServer Direction = iota + 1
	// ServerToClient carries responses.
	ServerToClient
)

// String returns "c->s" or "s->c".
func (d Direction) String() string {
	switch d {
	case ClientToServer:
		return "c->s"
	case ServerToClient:
		return "s->c"
	default:
		return fmt.Sprintf("Direction(%d)", uint8(d))
	}
}

// Reverse returns the opposite direction.
func (d Direction) Reverse() Direction {
	if d == ClientToServer {
		return ServerToClient
	}
	return ClientToServer
}

// RecordObs is one TLS record reassembled from the observed TCP byte
// stream. Only the cleartext header fields are available to an
// observer.
type RecordObs struct {
	Time        time.Duration // time the record's last byte was observed
	Dir         Direction
	ContentType uint8
	Length      int // ciphertext length from the record header
}

// IsAppData reports whether the record carries application data
// (TLS content type 23 — the paper's
// 'ssl.record.content_type==23' display filter).
func (r RecordObs) IsAppData() bool { return r.ContentType == 23 }

// IsResponseData reports whether the record is server→client
// application data — the subset the size-inference side channel
// consumes. The monitor's ResponseRecords filter and the segmentation
// engine share this predicate.
func (r RecordObs) IsResponseData() bool {
	return r.Dir == ServerToClient && r.IsAppData()
}

// FrameEvent is ground truth recorded by the instrumented server: one
// HTTP/2 DATA (or HEADERS) frame handed to the transport, attributed
// to the object it belongs to. The adversary never sees these; the
// evaluation harness uses them to score multiplexing and prediction
// accuracy.
type FrameEvent struct {
	Time     time.Duration
	StreamID uint32

	// ObjectID identifies the website object served; copies created by
	// duplicate (retransmitted) requests share the ObjectID but have
	// distinct CopyID values.
	ObjectID int
	CopyID   int

	// Len is the frame payload length in bytes.
	Len int

	// Offset is the byte offset of this frame's first wire byte in
	// the server's outbound TCP stream; WireLen is the sealed record
	// size. Together they order ground truth exactly as the bytes
	// appear on the wire.
	Offset  int64
	WireLen int

	// End marks the final frame of this object copy.
	End bool
}

// Trace is one trial's ground-truth frame log.
type Trace struct {
	Frames []FrameEvent
}

// Reset empties the log, keeping its backing array so a reused trace
// records allocation-free once it has grown to a trial's high-water
// mark.
func (t *Trace) Reset() { t.Frames = t.Frames[:0] }

// AddFrame appends a ground-truth frame event.
func (t *Trace) AddFrame(f FrameEvent) { t.Frames = append(t.Frames, f) }
