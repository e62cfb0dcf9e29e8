package tlsrec

import (
	"bytes"
	"testing"
)

// FuzzOpener ensures arbitrary streams never panic the record parser
// and chunking invariance holds.
func FuzzOpener(f *testing.F) {
	var s Sealer
	f.Add(s.Seal(nil, TypeAppData, []byte("hello")), 1)
	f.Add([]byte{23, 3, 3, 255, 255}, 2)
	f.Fuzz(func(t *testing.T, data []byte, chunk int) {
		if chunk <= 0 {
			chunk = 1
		}
		var whole Opener
		wr, werr := whole.Feed(data)

		var piecewise Opener
		var pr []Record
		var perr error
		for off := 0; off < len(data) && perr == nil; off += chunk {
			end := off + chunk
			if end > len(data) {
				end = len(data)
			}
			var got []Record
			got, perr = piecewise.Feed(data[off:end])
			// Bodies are scratch: copy them out before the next Feed.
			for _, r := range got {
				pr = append(pr, Record{ContentType: r.ContentType, Body: bytes.Clone(r.Body)})
			}
		}
		if (werr == nil) != (perr == nil) {
			t.Fatalf("error mismatch: %v vs %v", werr, perr)
		}
		if werr == nil && len(wr) != len(pr) {
			t.Fatalf("record count mismatch: %d vs %d", len(wr), len(pr))
		}
		for i := range pr {
			if werr == nil && (wr[i].ContentType != pr[i].ContentType || !bytes.Equal(wr[i].Body, pr[i].Body)) {
				t.Fatal("record mismatch under chunking")
			}
		}
	})
}

// FuzzStreamParser feeds arbitrary byte streams, sealed or not, in
// chunks whose lengths cycle through the fuzzed pattern, and requires
// each Feed to return exactly the headers the buffered reference
// parser returns from the same call.
func FuzzStreamParser(f *testing.F) {
	var s Sealer
	wire := s.Seal(nil, TypeHandshake, []byte("hello"))
	wire = s.Seal(wire, TypeAppData, make([]byte, 300))
	f.Add(wire, []byte{1, 4, 7})
	f.Add([]byte{23, 3, 3, 0, 0, 22, 3, 3, 0, 2, 9}, []byte{5})
	f.Add([]byte{23, 3, 3, 255, 255}, []byte{2, 200})
	f.Fuzz(func(t *testing.T, data, chunks []byte) {
		i := 0
		feedBoth(t, "fuzz", data, func() int {
			if len(chunks) == 0 {
				return len(data)
			}
			i++
			return int(chunks[i%len(chunks)]) + 1
		})
	})
}
