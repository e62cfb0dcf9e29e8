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
