package tlsrec

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// sealTo appends one record carrying plain, as literal bytes, to dst.
func sealTo(dst *wire.Bytes, ct uint8, plain []byte) {
	SealHeader(dst, ct, len(plain))
	dst.AppendLiteral(plain)
	SealTrailer(dst)
}

// seal appends the plain bytes of one record carrying plain to dst.
func seal(dst []byte, ct uint8, plain []byte) []byte {
	var b wire.Bytes
	sealTo(&b, ct, plain)
	return append(dst, wiretest.Plain(b)...)
}

// sealSplit appends plain as records of at most maxPlain plaintext
// bytes each; an empty plaintext gives one empty record.
func sealSplit(dst []byte, ct uint8, plain []byte, maxPlain int) []byte {
	for first := true; first || len(plain) > 0; first = false {
		n := min(len(plain), maxPlain)
		dst = seal(dst, ct, plain[:n])
		plain = plain[n:]
	}
	return dst
}

// feed feeds p to o as literal bytes and returns copies of the
// records, whose bodies are plain bytes.
func feed(o *Opener, p []byte) ([]plainRecord, error) {
	return feedStream(o, wiretest.Lit(p))
}

// feedStream feeds b to o and returns copies of the records.
func feedStream(o *Opener, b wire.Bytes) ([]plainRecord, error) {
	var out []plainRecord
	err := o.Feed(b, func(r Record) {
		out = append(out, plainRecord{r.ContentType, wiretest.Plain(r.Body)})
	})
	return out, err
}

// plainRecord is a Record whose body was read out as plain bytes.
type plainRecord struct {
	ContentType uint8
	Body        []byte
}

func TestSealOpenRoundTrip(t *testing.T) {
	var o Opener
	msg := []byte("GET /quiz HTTP/2")
	wire := seal(nil, TypeAppData, msg)
	recs, err := feed(&o, wire)
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

// TestSealLayout checks what a sealed record holds literally: the
// header and the plaintext the caller appended, with the nonce and tag
// placeholders as zero runs; and that a record may not carry more than
// MaxPlaintext bytes.
func TestSealLayout(t *testing.T) {
	var b wire.Bytes
	SealHeader(&b, TypeAppData, 3)
	b.AppendZeros(3)
	SealTrailer(&b)
	if b.Len() != HeaderLen+3+Overhead || b.Literal() != HeaderLen {
		t.Errorf("record of a 3-byte run: %d bytes, %d literal; want %d and %d",
			b.Len(), b.Literal(), HeaderLen+3+Overhead, HeaderLen)
	}
	if got, want := wiretest.Plain(b)[:HeaderLen], []byte{TypeAppData, 3, 3, 0, 3 + Overhead}; !bytes.Equal(got, want) {
		t.Errorf("header = %x, want %x", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("SealHeader accepted more than MaxPlaintext bytes")
		}
	}()
	SealHeader(&b, TypeAppData, MaxPlaintext+1)
}

func TestSealEmptyPlaintext(t *testing.T) {
	var o Opener
	wire := seal(nil, TypeHandshake, nil)
	if len(wire) != HeaderLen+Overhead {
		t.Errorf("empty record wire len = %d, want %d", len(wire), HeaderLen+Overhead)
	}
	recs, err := feed(&o, wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || len(recs[0].Body) != 0 {
		t.Errorf("recs = %+v", recs)
	}
}

func TestOpenerIncrementalFeed(t *testing.T) {
	var o Opener
	msg := []byte("drip drip drip")
	wire := seal(nil, TypeAppData, msg)
	var got []plainRecord
	for _, b := range wire { // one byte at a time
		recs, err := feed(&o, []byte{b})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, recs...)
	}
	if len(got) != 1 || !bytes.Equal(got[0].Body, msg) {
		t.Errorf("incremental feed got %+v", got)
	}
	if o.Buffered() != 0 {
		t.Errorf("buffered = %d after complete record", o.Buffered())
	}
}

func TestStreamParserSeesHeadersOnly(t *testing.T) {
	var p StreamParser
	wire := seal(nil, TypeHandshake, make([]byte, 100))
	wire = seal(wire, TypeAppData, make([]byte, 700))
	var hdrs []HeaderInfo
	// Feed in uneven chunks crossing record boundaries.
	for len(wire) > 0 {
		n := min(37, len(wire))
		hdrs = append(hdrs, p.Feed(wiretest.Lit(wire[:n]))...)
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
	if _, err := feed(&o, bad); err == nil {
		t.Error("oversized record accepted")
	}
	if _, err := feed(&o, seal(nil, TypeAppData, nil)); err == nil {
		t.Error("a record after the refused header was parsed")
	}
}

func TestOpenerRejectsUndersizedRecord(t *testing.T) {
	var o Opener
	bad := []byte{TypeAppData, 3, 3, 0, 1, 0} // 1-byte body < Overhead
	if _, err := feed(&o, bad); err == nil {
		t.Error("undersized record accepted")
	}
}

func TestSealOpenQuick(t *testing.T) {
	f := func(data []byte, maxPlain uint16) bool {
		var o Opener
		recs, err := feed(&o, sealSplit(nil, TypeAppData, data, int(maxPlain%4096)+1))
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
