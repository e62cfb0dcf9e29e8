package h2

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/wire/wiretest"
)

// FuzzHpackDecode ensures the HPACK decoder never panics, that a warm
// decoder decodes every block as a fresh one does, and that whatever
// it accepts re-encodes to something it accepts again. The warm
// decoder's literal cache holds a request block's literals and the
// input's own before a Reset, so cache hits and misses on both raw and
// Huffman literals must give the same fields and errors as decoding
// from scratch.
func FuzzHpackDecode(f *testing.F) {
	f.Add([]byte{0x82})
	f.Add([]byte{0x40, 0x0a, 'c', 'u', 's', 't', 'o', 'm', '-', 'k', 'e', 'y', 0x01, 'v'})
	f.Add([]byte{0x20})
	f.Add([]byte{0x80})
	f.Add([]byte{0x1f, 0x9a, 0x0a})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewHpackDecoder(4096)
		fields, err := d.DecodeFull(data)
		warm := NewHpackDecoder(4096)
		warm.DecodeFull(warmBlock)
		warm.DecodeFull(data)
		warm.Reset(4096)
		wfields, werr := warm.DecodeFull(data)
		if fmt.Sprint(werr) != fmt.Sprint(err) || fmt.Sprint(wfields) != fmt.Sprint(fields) {
			t.Fatalf("warm decoder: %q, %v; fresh: %q, %v", wfields, werr, fields, err)
		}
		if err != nil {
			return
		}
		// Round-trip what decoded cleanly.
		e := NewHpackEncoder(4096)
		blk := e.AppendHeaderBlock(nil, fields)
		d2 := NewHpackDecoder(4096)
		fields2, err := d2.DecodeFull(blk)
		if err != nil {
			t.Fatalf("re-decode of re-encoded block failed: %v", err)
		}
		if len(fields2) != len(fields) {
			t.Fatalf("round trip changed field count: %d -> %d", len(fields), len(fields2))
		}
	})
}

// warmBlock fills FuzzHpackDecode's warm decoder's literal cache with a
// request's raw and Huffman-coded literals.
var warmBlock = func() []byte {
	e := NewHpackEncoder(4096)
	blk := e.AppendHeaderBlock(nil, []HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":path", Value: "/assets/emblem-3.png"},
		{Name: "custom-key", Value: "v"},
	})
	return append(blk, 0x40, 0x0a, 'c', 'u', 's', 't', 'o', 'm', '-', 'k', 'e', 'y', 0x01, 'v')
}()

// FuzzFrameScanner ensures arbitrary byte streams never panic the
// scanner and that neither chunking nor how zero bytes are held
// changes the result: the whole stream as literal bytes and the stream
// fed in chunks, its zero bytes held as literal bytes or as runs as
// how decides (see wiretest.Mixed), emit the same frames (compared by
// their re-encoding), end in the same error and leave the same bytes
// buffered.
func FuzzFrameScanner(f *testing.F) {
	f.Add(rawFrame(FrameHeader{Type: FramePing}, make([]byte, 8)), 1, []byte{})
	f.Add(marshal(&DataFrame{StreamID: 1, Len: 3}), 3, []byte{0xff})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, 2, []byte{})
	f.Add(append(marshal(&HeadersFrame{StreamID: 1, BlockFragment: []byte{0, 0x82, 0}, EndHeaders: true}),
		marshal(&RSTStreamFrame{StreamID: 1})...), 4, []byte{0x35})
	f.Fuzz(func(t *testing.T, data []byte, chunk int, how []byte) {
		if chunk <= 0 {
			chunk = 1
		}
		wf, wbuf, werr := scan(data, max(len(data), 1))
		pf, pbuf, perr := scanStream(wiretest.Mixed(data, how), chunk)
		if (werr == nil) != (perr == nil) || (werr != nil && werr.Error() != perr.Error()) {
			t.Fatalf("error mismatch: whole=%v piecewise=%v", werr, perr)
		}
		if len(wf) != len(pf) {
			t.Fatalf("frame count mismatch: whole=%d piecewise=%d", len(wf), len(pf))
		}
		for i := range wf {
			if w, p := marshal(wf[i]), marshal(pf[i]); !bytes.Equal(w, p) {
				t.Fatalf("frame %d mismatch: whole=%x piecewise=%x", i, w, p)
			}
		}
		if werr == nil && wbuf != pbuf {
			t.Fatalf("buffered mismatch: whole=%d piecewise=%d", wbuf, pbuf)
		}
	})
}

// FuzzHuffman ensures decode never panics and encode/decode stays an
// identity.
func FuzzHuffman(f *testing.F) {
	f.Add([]byte("www.example.com"))
	f.Add([]byte{0x00, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary input to the decoder must not panic.
		_, _ = HuffmanDecode(nil, data) //nolint:errcheck // error is fine
		// Encoding then decoding must return the input.
		enc := AppendHuffmanString(nil, string(data))
		dec, err := HuffmanDecode(nil, enc)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if !bytes.Equal(dec, data) {
			t.Fatal("huffman round trip mismatch")
		}
	})
}
