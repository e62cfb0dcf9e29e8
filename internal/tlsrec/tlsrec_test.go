package tlsrec

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestSealOpenRoundTrip(t *testing.T) {
	var s Sealer
	var o Opener
	msg := []byte("GET /quiz HTTP/2")
	wire := s.Seal(nil, TypeAppData, msg)
	recs, err := o.Feed(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	if recs[0].ContentType != TypeAppData {
		t.Errorf("content type = %d", recs[0].ContentType)
	}
	if !bytes.Equal(recs[0].Body, msg) {
		t.Errorf("body = %q, want %q", recs[0].Body, msg)
	}
	if len(wire) != HeaderLen+len(msg)+Overhead {
		t.Errorf("wire len = %d, want %d", len(wire), HeaderLen+len(msg)+Overhead)
	}
}

func TestSealFragmentsLargePlaintext(t *testing.T) {
	s := Sealer{MaxPlain: 1000}
	var o Opener
	msg := bytes.Repeat([]byte("x"), 2500)
	wire := s.Seal(nil, TypeAppData, msg)
	if got, want := len(wire), 3*(HeaderLen+Overhead)+2500; got != want {
		t.Errorf("wire len = %d, want %d", got, want)
	}
	recs, err := o.Feed(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	var all []byte
	for _, r := range recs {
		all = append(all, r.Body...)
	}
	if !bytes.Equal(all, msg) {
		t.Error("fragmented round trip corrupted data")
	}
	if len(recs[0].Body) != 1000 || len(recs[2].Body) != 500 {
		t.Errorf("fragment sizes = %d,%d,%d", len(recs[0].Body), len(recs[1].Body), len(recs[2].Body))
	}
}

func TestSealEmptyPlaintext(t *testing.T) {
	var s Sealer
	var o Opener
	wire := s.Seal(nil, TypeHandshake, nil)
	if len(wire) != HeaderLen+Overhead {
		t.Errorf("empty record wire len = %d, want %d", len(wire), HeaderLen+Overhead)
	}
	recs, err := o.Feed(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || len(recs[0].Body) != 0 {
		t.Errorf("recs = %+v", recs)
	}
}

func TestOpenerIncrementalFeed(t *testing.T) {
	var s Sealer
	var o Opener
	msg := []byte("drip drip drip")
	wire := s.Seal(nil, TypeAppData, msg)
	var got []Record
	for _, b := range wire { // one byte at a time
		recs, err := o.Feed([]byte{b})
		if err != nil {
			t.Fatal(err)
		}
		// Bodies are scratch: copy them out before the next Feed.
		for _, r := range recs {
			got = append(got, Record{ContentType: r.ContentType, Body: bytes.Clone(r.Body)})
		}
	}
	if len(got) != 1 || !bytes.Equal(got[0].Body, msg) {
		t.Errorf("incremental feed got %+v", got)
	}
	if o.Buffered() != 0 {
		t.Errorf("buffered = %d after complete record", o.Buffered())
	}
}

func TestStreamParserSeesHeadersOnly(t *testing.T) {
	var s Sealer
	var p StreamParser
	wire := s.Seal(nil, TypeHandshake, make([]byte, 100))
	wire = s.Seal(wire, TypeAppData, make([]byte, 700))
	var hdrs []HeaderInfo
	// Feed in uneven chunks crossing record boundaries.
	for len(wire) > 0 {
		n := 37
		if n > len(wire) {
			n = len(wire)
		}
		hdrs = append(hdrs, p.Feed(wire[:n])...)
		wire = wire[n:]
	}
	if len(hdrs) != 2 {
		t.Fatalf("parsed %d headers, want 2", len(hdrs))
	}
	if hdrs[0].ContentType != TypeHandshake || hdrs[0].Length != 100+Overhead {
		t.Errorf("first header = %+v", hdrs[0])
	}
	if hdrs[1].ContentType != TypeAppData || hdrs[1].Length != 700+Overhead {
		t.Errorf("second header = %+v", hdrs[1])
	}
}

func TestOpenerRejectsOversizedRecord(t *testing.T) {
	var o Opener
	bad := []byte{TypeAppData, 3, 3, 0xff, 0xff} // 65535-byte body
	if _, err := o.Feed(bad); err == nil {
		t.Error("oversized record accepted")
	}
}

func TestOpenerRejectsUndersizedRecord(t *testing.T) {
	var o Opener
	bad := []byte{TypeAppData, 3, 3, 0, 1, 0} // 1-byte body < Overhead
	if _, err := o.Feed(bad); err == nil {
		t.Error("undersized record accepted")
	}
}

func TestSealOpenQuick(t *testing.T) {
	f := func(data []byte, maxPlain uint16) bool {
		s := Sealer{MaxPlain: int(maxPlain%4096) + 1}
		var o Opener
		wire := s.Seal(nil, TypeAppData, data)
		recs, err := o.Feed(wire)
		if err != nil {
			return false
		}
		var all []byte
		for _, r := range recs {
			all = append(all, r.Body...)
		}
		return bytes.Equal(all, data) && o.Buffered() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
