package netem

import "repro/internal/wire"

// Reassembler rebuilds one direction's in-order TCP byte stream from
// possibly out-of-order, duplicated or overlapping segments. It is the
// one reassembly path of the simulation: the receiving tcpsim endpoint
// and the middlebox's sniffer tap both use it, so the adversary
// rebuilds each stream exactly as the endpoint does.
//
// Held segments are the pushed payloads themselves, wire.Bytes views
// of the sender's stream, never copies, kept in a slice sorted by
// wrap-safe sequence distance from Next, so draining needs no sort and
// no map iteration; the steady state is allocation-free. Not safe for
// concurrent use.
type Reassembler struct {
	// Next is the sequence number of the next expected byte.
	Next uint32

	held []heldSeg // sorted ascending by seq - Next
}

// heldSeg is one out-of-order segment waiting for its gap to fill.
type heldSeg struct {
	seq uint32
	buf wire.Bytes
}

// Push ingests the segment starting at seq. Each newly contiguous run
// goes to deliver in stream order: first the fresh suffix of payload,
// then every held segment it makes contiguous. Next is advanced past a
// run before deliver sees it, and the run is valid only for the call.
// A segment wholly beyond Next is held for later, and Push reports
// held: its bytes from Next on must stay readable until it is
// delivered or the reassembler is Reset. A pure duplicate is ignored.
func (r *Reassembler) Push(seq uint32, payload wire.Bytes, deliver func(wire.Bytes)) (held bool) {
	end := seq + uint32(payload.Len())
	if seqLEQ(end, r.Next) {
		return false
	}
	if seqLess(r.Next, seq) {
		r.hold(seq, payload)
		return true
	}
	if d := int(r.Next - seq); d > 0 {
		payload = payload.Slice(d, payload.Len())
	}
	r.Next = end
	deliver(payload)
	for len(r.held) > 0 {
		h := r.held[0]
		if seqLess(r.Next, h.seq) {
			break // gap remains
		}
		if hend := h.seq + uint32(h.buf.Len()); seqLess(r.Next, hend) {
			fresh := h.buf.Slice(int(r.Next-h.seq), h.buf.Len())
			r.Next = hend
			deliver(fresh)
		}
		r.dropHead()
	}
	return false
}

// hold files a future segment in sorted position, keeping the longer
// copy for a duplicated slot.
func (r *Reassembler) hold(seq uint32, payload wire.Bytes) {
	d := seq - r.Next
	i := 0
	for i < len(r.held) && r.held[i].seq-r.Next < d {
		i++
	}
	if i < len(r.held) && r.held[i].seq == seq {
		if payload.Len() > r.held[i].buf.Len() {
			r.held[i].buf = payload
		}
		return
	}
	r.held = append(r.held, heldSeg{})
	copy(r.held[i+1:], r.held[i:])
	r.held[i] = heldSeg{seq: seq, buf: payload}
}

// dropHead removes the first held segment.
func (r *Reassembler) dropHead() {
	n := copy(r.held, r.held[1:])
	r.held[n] = heldSeg{}
	r.held = r.held[:n]
}

// Reset starts a new stream whose next expected byte is next,
// dropping any held segments.
func (r *Reassembler) Reset(next uint32) {
	r.Next = next
	clear(r.held)
	r.held = r.held[:0]
}

// seqLess is modular 32-bit sequence comparison (RFC 793 style).
func seqLess(a, b uint32) bool { return int32(a-b) < 0 }

// seqLEQ is modular less-or-equal.
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }
