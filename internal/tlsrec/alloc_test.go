package tlsrec

import (
	"testing"
)

// TestSealReuseZeroAlloc proves Seal into a recycled buffer is
// allocation-free once the buffer has its high-water capacity.
func TestSealReuseZeroAlloc(t *testing.T) {
	var s Sealer
	plain := make([]byte, 1400)
	buf := s.Seal(nil, TypeAppData, plain) // warm up
	allocs := testing.AllocsPerRun(200, func() {
		buf = s.Seal(buf[:0], TypeAppData, plain)
	})
	if allocs != 0 {
		t.Errorf("Seal reuse: %.1f allocs/op, want 0", allocs)
	}
}

// TestFeedReuseZeroAlloc proves Opener.Feed, which returns scratch
// records whose bodies alias its buffer, is allocation-free in steady
// state.
func TestFeedReuseZeroAlloc(t *testing.T) {
	var s Sealer
	var o Opener
	wire := s.Seal(nil, TypeAppData, make([]byte, 1400))
	// Warm up scratch (records slice, stream buffer).
	for i := 0; i < 8; i++ {
		if _, err := o.Feed(wire); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		recs, err := o.Feed(wire)
		if err != nil || len(recs) != 1 {
			t.Fatalf("recs=%d err=%v", len(recs), err)
		}
	})
	if allocs != 0 {
		t.Errorf("Feed steady state: %.1f allocs/op, want 0", allocs)
	}
}

// TestFeedReuseSplitDelivery checks scratch parsing across records
// split at arbitrary chunk boundaries. Bodies alias the Opener's
// buffer, so each is copied out before the next Feed.
func TestFeedReuseSplitDelivery(t *testing.T) {
	var s Sealer
	s.MaxPlain = 100
	var o Opener
	plain := make([]byte, 250)
	for i := range plain {
		plain[i] = byte(i)
	}
	wire := s.Seal(nil, TypeAppData, plain)
	var got []byte
	for i := 0; i < len(wire); i += 7 {
		end := i + 7
		if end > len(wire) {
			end = len(wire)
		}
		recs, err := o.Feed(wire[i:end])
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			got = append(got, r.Body...)
		}
	}
	if o.Buffered() != 0 {
		t.Errorf("%d bytes left buffered", o.Buffered())
	}
	if string(got) != string(plain) {
		t.Errorf("round trip mismatch: %d bytes, want %d", len(got), len(plain))
	}
}

// TestStreamParserScratchZeroAlloc proves the passive header parser
// is allocation-free in steady state.
func TestStreamParserScratchZeroAlloc(t *testing.T) {
	var s Sealer
	var p StreamParser
	wire := s.Seal(nil, TypeAppData, make([]byte, 1400))
	for i := 0; i < 8; i++ {
		p.Feed(wire)
	}
	allocs := testing.AllocsPerRun(200, func() {
		hs := p.Feed(wire)
		if len(hs) != 1 {
			t.Fatalf("headers=%d", len(hs))
		}
	})
	if allocs != 0 {
		t.Errorf("StreamParser.Feed steady state: %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkSealOpen measures one sealed+opened 1400-byte record on
// recycled buffers — the per-chunk TLS cost of the simulation.
func BenchmarkSealOpen(b *testing.B) {
	var s Sealer
	var o Opener
	plain := make([]byte, 1400)
	var buf []byte
	b.ReportAllocs()
	b.SetBytes(1400)
	for i := 0; i < b.N; i++ {
		buf = s.Seal(buf[:0], TypeAppData, plain)
		if _, err := o.Feed(buf); err != nil {
			b.Fatal(err)
		}
	}
}
