package tlsrec

import (
	"testing"

	"repro/internal/wire"
)

// dataRecord returns one sealed record shaped like the simulation's
// DATA records: literal headers around zero runs.
func dataRecord() wire.Bytes {
	var b wire.Bytes
	SealHeader(&b, TypeAppData, 1409)
	b.AppendLiteral(make([]byte, 9))
	b.AppendZeros(1400)
	SealTrailer(&b)
	return b
}

// TestSealReuseZeroAlloc proves sealing into a recycled stream is
// allocation-free once the stream has its high-water capacity.
func TestSealReuseZeroAlloc(t *testing.T) {
	var buf wire.Bytes
	hdr := make([]byte, 9)
	seal := func() {
		buf.Reset()
		SealHeader(&buf, TypeAppData, 1409)
		buf.AppendLiteral(hdr)
		buf.AppendZeros(1400)
		SealTrailer(&buf)
	}
	seal() // warm up
	if allocs := testing.AllocsPerRun(200, seal); allocs != 0 {
		t.Errorf("Seal reuse: %.1f allocs/op, want 0", allocs)
	}
}

// TestFeedReuseZeroAlloc proves Opener.Feed, which hands its callback
// records whose bodies are views of its input or of its part buffer,
// is allocation-free in steady state, for whole records and for
// records split across Feed calls alike.
func TestFeedReuseZeroAlloc(t *testing.T) {
	var o Opener
	rec := dataRecord()
	cut := rec.Len() / 3
	n := 0
	count := func(Record) { n++ }
	feed := func() {
		n = 0
		for _, b := range []wire.Bytes{rec, rec.Slice(0, cut), rec.Slice(cut, rec.Len())} {
			if err := o.Feed(b, count); err != nil {
				t.Fatal(err)
			}
		}
		if n != 2 {
			t.Fatalf("%d records, want 2", n)
		}
	}
	for i := 0; i < 8; i++ { // warm up the part buffer
		feed()
	}
	if allocs := testing.AllocsPerRun(200, feed); allocs != 0 {
		t.Errorf("Feed steady state: %.1f allocs/op, want 0", allocs)
	}
}

// TestFeedReuseSplitDelivery checks scratch parsing across records
// split at arbitrary chunk boundaries. Bodies are scratch, so each is
// read out during its callback.
func TestFeedReuseSplitDelivery(t *testing.T) {
	var o Opener
	plain := make([]byte, 250)
	for i := range plain {
		plain[i] = byte(i)
	}
	wire := sealSplit(nil, TypeAppData, plain, 100)
	var got []byte
	for i := 0; i < len(wire); i += 7 {
		recs, err := feed(&o, wire[i:min(i+7, len(wire))])
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
	var p StreamParser
	rec := dataRecord()
	for i := 0; i < 8; i++ {
		p.Feed(rec)
	}
	allocs := testing.AllocsPerRun(200, func() {
		hs := p.Feed(rec)
		if len(hs) != 1 {
			t.Fatalf("headers=%d", len(hs))
		}
	})
	if allocs != 0 {
		t.Errorf("StreamParser.Feed steady state: %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkSealOpen measures one sealed+opened 1400-byte DATA record
// on recycled storage — the per-chunk TLS cost of the simulation.
func BenchmarkSealOpen(b *testing.B) {
	var o Opener
	var buf wire.Bytes
	hdr := make([]byte, 9)
	b.ReportAllocs()
	b.SetBytes(1400)
	for i := 0; i < b.N; i++ {
		buf.Reset()
		SealHeader(&buf, TypeAppData, 1409)
		buf.AppendLiteral(hdr)
		buf.AppendZeros(1400)
		SealTrailer(&buf)
		if err := o.Feed(buf, func(Record) {}); err != nil {
			b.Fatal(err)
		}
	}
}
