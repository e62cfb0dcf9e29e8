package h2

import "testing"

// TestHpackRoundTripZeroAlloc pins the steady-state cost of the
// encoder/decoder pair on a realistic request block: after the
// dynamic tables and intern caches are warm, encoding into a reused
// buffer and decoding via DecodeFull allocate nothing. This covers the
// encoder's static-table probe (scratch key buffer, not a per-field
// string concat) and the decoder's recycled field slice.
func TestHpackRoundTripZeroAlloc(t *testing.T) {
	fields := []HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "survey.example"},
		{Name: ":path", Value: "/assets/emblem-3.png"},
		{Name: "accept", Value: "image/png"},
	}
	enc := NewHpackEncoder(4096)
	dec := NewHpackDecoder(4096)

	var block []byte
	roundTrip := func() {
		block = enc.AppendHeaderBlock(block[:0], fields)
		if _, err := dec.DecodeFull(block); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		roundTrip()
	}
	allocs := testing.AllocsPerRun(200, roundTrip)
	if allocs != 0 {
		t.Errorf("HPACK round trip steady state: %.1f allocs/op, want 0", allocs)
	}
}
