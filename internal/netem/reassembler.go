package netem

// Reassembler rebuilds one direction's in-order TCP byte stream from
// possibly out-of-order, duplicated or overlapping segments. It is the
// one reassembly path of the simulation: the receiving tcpsim endpoint
// and the middlebox's sniffer tap both use it, so the adversary
// rebuilds each stream exactly as the endpoint does.
//
// Held segments are owned copies in a slice kept sorted by wrap-safe
// sequence distance from Next, so draining needs no sort and no map
// iteration; their buffers are recycled, and the steady state is
// allocation-free. Not safe for concurrent use.
type Reassembler struct {
	// Next is the sequence number of the next expected byte.
	Next uint32

	held  []heldSeg // sorted ascending by seq - Next
	spare [][]byte  // recycled hold buffers
}

// heldSeg is one out-of-order segment waiting for its gap to fill.
type heldSeg struct {
	seq uint32
	buf []byte
}

// Push ingests the segment starting at seq. Each newly contiguous run
// goes to deliver in stream order: first the fresh suffix of payload,
// then every held segment it makes contiguous. Next is advanced past a
// run before deliver sees it, and the slice is valid only for the
// call. A segment wholly beyond Next is copied and held for later, and
// Push reports held; a pure duplicate is ignored.
func (r *Reassembler) Push(seq uint32, payload []byte, deliver func([]byte)) (held bool) {
	end := seq + uint32(len(payload))
	if seqLEQ(end, r.Next) {
		return false
	}
	if seqLess(r.Next, seq) {
		r.hold(seq, payload)
		return true
	}
	fresh := payload[r.Next-seq:]
	r.Next = end
	deliver(fresh)
	for len(r.held) > 0 {
		h := r.held[0]
		if seqLess(r.Next, h.seq) {
			break // gap remains
		}
		if hend := h.seq + uint32(len(h.buf)); seqLess(r.Next, hend) {
			fresh := h.buf[r.Next-h.seq:]
			r.Next = hend
			deliver(fresh)
		}
		r.dropHead()
	}
	return false
}

// hold files a future segment in sorted position, keeping the longer
// copy for a duplicated slot.
func (r *Reassembler) hold(seq uint32, payload []byte) {
	d := seq - r.Next
	i := 0
	for i < len(r.held) && r.held[i].seq-r.Next < d {
		i++
	}
	if i < len(r.held) && r.held[i].seq == seq {
		if len(payload) > len(r.held[i].buf) {
			r.held[i].buf = append(r.held[i].buf[:0], payload...)
		}
		return
	}
	var buf []byte
	if n := len(r.spare); n > 0 {
		buf = r.spare[n-1]
		r.spare = r.spare[:n-1]
	}
	r.held = append(r.held, heldSeg{})
	copy(r.held[i+1:], r.held[i:])
	r.held[i] = heldSeg{seq: seq, buf: append(buf, payload...)}
}

// dropHead removes the first held segment, recycling its buffer.
func (r *Reassembler) dropHead() {
	r.spare = append(r.spare, r.held[0].buf[:0])
	n := copy(r.held, r.held[1:])
	r.held[n] = heldSeg{}
	r.held = r.held[:n]
}

// Reset starts a new stream whose next expected byte is next,
// recycling the buffers of any held segments.
func (r *Reassembler) Reset(next uint32) {
	r.Next = next
	for len(r.held) > 0 {
		r.dropHead()
	}
}

// seqLess is modular 32-bit sequence comparison (RFC 793 style).
func seqLess(a, b uint32) bool { return int32(a-b) < 0 }

// seqLEQ is modular less-or-equal.
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }
