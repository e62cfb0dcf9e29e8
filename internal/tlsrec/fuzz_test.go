package tlsrec

import (
	"bytes"
	"testing"

	"repro/internal/wire/wiretest"
)

// FuzzOpener ensures arbitrary streams never panic the record parser,
// and that neither chunking nor how the zero bytes are held changes
// what it parses: the stream fed whole as literal bytes and fed in
// chunks with its zero bytes held as literal bytes or as runs, as how
// decides (see wiretest.Mixed), give the same records and the same
// error.
func FuzzOpener(f *testing.F) {
	f.Add(seal(nil, TypeAppData, []byte("hello")), 1, []byte{})
	f.Add([]byte{23, 3, 3, 255, 255}, 2, []byte{1})
	f.Add(seal(seal(nil, TypeAppData, make([]byte, 40)), TypeAlert, []byte{0, 7, 0}), 5, []byte{0x6c})
	f.Fuzz(func(t *testing.T, data []byte, chunk int, how []byte) {
		if chunk <= 0 {
			chunk = 1
		}
		var whole Opener
		wr, werr := feed(&whole, data)

		var piecewise Opener
		var pr []plainRecord
		var perr error
		mixed := wiretest.Mixed(data, how)
		for off := 0; off < len(data) && perr == nil; off += chunk {
			var got []plainRecord
			got, perr = feedStream(&piecewise, mixed.Slice(off, min(off+chunk, len(data))))
			pr = append(pr, got...)
		}
		if (werr == nil) != (perr == nil) {
			t.Fatalf("error mismatch: %v vs %v", werr, perr)
		}
		if werr == nil && len(wr) != len(pr) {
			t.Fatalf("record count mismatch: %d vs %d", len(wr), len(pr))
		}
		for i := range pr {
			if werr == nil && (wr[i].ContentType != pr[i].ContentType || !bytes.Equal(wr[i].Body, pr[i].Body)) {
				t.Fatal("record mismatch under chunking and runs")
			}
		}
	})
}

// FuzzStreamParser feeds arbitrary byte streams, sealed or not, in
// chunks whose lengths cycle through the fuzzed pattern and with zero
// bytes held as literal bytes or runs as how decides, and requires
// each Feed to return exactly the headers the buffered reference
// parser returns from the same plain bytes.
func FuzzStreamParser(f *testing.F) {
	wire := seal(nil, TypeHandshake, []byte("hello"))
	wire = seal(wire, TypeAppData, make([]byte, 300))
	f.Add(wire, []byte{1, 4, 7}, []byte{0xa5})
	f.Add([]byte{23, 3, 3, 0, 0, 22, 3, 3, 0, 2, 9}, []byte{5}, []byte{})
	f.Add([]byte{23, 3, 3, 255, 255}, []byte{2, 200}, []byte{0xff})
	// A header whose zero length byte is a run follows one whose
	// length byte is not: the read spans pieces and must not keep a
	// stale byte.
	f.Add(seal(seal(nil, TypeAppData, make([]byte, 300)), TypeAlert, nil), []byte{3, 9}, []byte{0xff})
	f.Fuzz(func(t *testing.T, data, chunks, how []byte) {
		i := 0
		feedBoth(t, "fuzz", data, how, func() int {
			if len(chunks) == 0 {
				return len(data)
			}
			i++
			return int(chunks[i%len(chunks)]) + 1
		})
	})
}
