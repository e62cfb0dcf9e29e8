package tlsrec

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/wire/wiretest"
)

// refStreamParser is the buffered header parser StreamParser replaced:
// it appends every observed byte and emits a record's header once the
// whole record is buffered. The tests below hold StreamParser to its
// output, Feed call by Feed call.
type refStreamParser struct {
	buf []byte
	off int
}

func (p *refStreamParser) Feed(b []byte) []HeaderInfo {
	p.buf = append(p.buf[p.off:], b...)
	p.off = 0
	var out []HeaderInfo
	for len(p.buf)-p.off >= HeaderLen {
		bodyLen := int(binary.BigEndian.Uint16(p.buf[p.off+3 : p.off+5]))
		if len(p.buf)-p.off < HeaderLen+bodyLen {
			break
		}
		out = append(out, HeaderInfo{ContentType: p.buf[p.off], Length: bodyLen})
		p.off += HeaderLen + bodyLen
	}
	return out
}

// feedBoth feeds data to the reference as plain bytes and to a
// StreamParser as a stream whose zero bytes how holds as literal bytes
// or runs (see wiretest.Mixed), both in chunks whose lengths next
// draws, and fails at the first Feed whose headers differ. It returns
// how many headers were emitted.
func feedBoth(t *testing.T, label string, data, how []byte, next func() int) int {
	t.Helper()
	var p StreamParser
	var ref refStreamParser
	mixed := wiretest.Mixed(data, how)
	total := 0
	for call, off := 0, 0; off < len(data); call++ {
		n := min(next(), len(data)-off)
		got, want := p.Feed(mixed.Slice(off, off+n)), ref.Feed(data[off:off+n])
		if !slices.Equal(got, want) {
			t.Fatalf("%s: Feed %d (%d bytes): headers %v, want %v", label, call, n, got, want)
		}
		total += len(got)
		off += n
	}
	return total
}

// TestStreamParserMatchesBufferedParser feeds sealed record streams —
// every content type, empty to multi-record plaintexts, small and full
// fragments — in random chunkings, from single bytes to whole streams,
// and requires each Feed to return exactly the headers the buffered
// parser returns from the same call, with the zero bytes held as runs
// in half the trials.
func TestStreamParserMatchesBufferedParser(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	types := []uint8{TypeChangeCipherSpec, TypeAlert, TypeHandshake, TypeAppData}
	for trial := 0; trial < 200; trial++ {
		maxPlain := []int{MaxPlaintext, 1, 100, 1400}[trial%4]
		maxChunk := []int{1, 6, 64, 2000, 1 << 20}[trial%5]
		// Byte-sized chunks get plaintexts of at most a few records.
		sizes := []int{0, 1, 37, 1400, 20000}[:3+min(2, trial%5)]
		var wire []byte
		records := 0
		for i := rng.Intn(12); i >= 0; i-- {
			plain := make([]byte, sizes[rng.Intn(len(sizes))])
			before := len(wire)
			wire = sealSplit(wire, types[rng.Intn(len(types))], plain, maxPlain)
			for off := before; off < len(wire); off += HeaderLen + int(binary.BigEndian.Uint16(wire[off+3:])) {
				records++
			}
		}
		how := []byte{0, 0xff, 0x5a, byte(rng.Intn(256))}[:1+trial%2*3]
		got := feedBoth(t, fmt.Sprintf("trial %d", trial), wire, how, func() int { return 1 + rng.Intn(maxChunk) })
		if got != records {
			t.Fatalf("trial %d: %d headers, want %d", trial, got, records)
		}
	}
}

// TestStreamParserResetDropsPartialRecord resets mid-header and
// mid-body: the next stream parses from its own first byte.
func TestStreamParserResetDropsPartialRecord(t *testing.T) {
	wire := seal(nil, TypeAppData, make([]byte, 100))
	for _, cut := range []int{3, HeaderLen + 10} {
		var p StreamParser
		p.Feed(wiretest.Lit(wire[:cut]))
		p.Reset()
		hs := p.Feed(wiretest.Lit(wire))
		if len(hs) != 1 || hs[0].ContentType != TypeAppData || hs[0].Length != 100+Overhead {
			t.Errorf("cut at %d: headers %v after Reset", cut, hs)
		}
	}
}
