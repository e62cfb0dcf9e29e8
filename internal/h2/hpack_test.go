package h2

import (
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

func TestHpackIntRoundTrip(t *testing.T) {
	cases := []struct {
		v    uint64
		n    uint8
		want string
	}{
		{10, 5, "0a"},       // RFC 7541 C.1.1
		{1337, 5, "1f9a0a"}, // RFC 7541 C.1.2
		{42, 8, "2a"},       // RFC 7541 C.1.3
		{0, 5, "00"},
		{31, 5, "1f00"},
		{1 << 20, 7, "7f81ff3f"},
	}
	for _, c := range cases {
		got := appendHpackInt(nil, 0, c.n, c.v)
		if hex.EncodeToString(got) != c.want {
			t.Errorf("encode %d prefix %d = %x, want %s", c.v, c.n, got, c.want)
		}
		v, rest, err := readHpackInt(got, c.n)
		if err != nil || v != c.v || len(rest) != 0 {
			t.Errorf("decode %x = (%d, rest %d, %v), want (%d, 0, nil)", got, v, len(rest), err, c.v)
		}
	}
}

func TestHpackIntQuick(t *testing.T) {
	f := func(v uint32, nRaw uint8) bool {
		n := nRaw%8 + 1
		enc := appendHpackInt(nil, 0, n, uint64(v))
		got, rest, err := readHpackInt(enc, n)
		return err == nil && got == uint64(v) && len(rest) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHpackIntTruncated(t *testing.T) {
	enc := appendHpackInt(nil, 0, 5, 1337)
	for i := 0; i < len(enc); i++ {
		if _, _, err := readHpackInt(enc[:i], 5); err == nil {
			t.Errorf("decode of %d-byte prefix succeeded, want error", i)
		}
	}
}

func TestHpackIntOverflow(t *testing.T) {
	// 0x1f then ten 0xff continuation bytes overflows uint64 shifts.
	b := append([]byte{0x1f}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	if _, _, err := readHpackInt(b, 5); err == nil {
		t.Error("decode of oversized integer succeeded, want error")
	}
}

func TestHpackStringPlainWhenHuffmanLonger(t *testing.T) {
	// A string of rare symbols is longer in Huffman form and must be
	// emitted plain.
	s := "\x01\x02\x03"
	enc := appendHpackString(nil, s)
	if enc[0]&0x80 != 0 {
		t.Fatalf("string %q encoded with huffman bit set", s)
	}
	got, rest, err := NewHpackDecoder(4096).readString(enc)
	if err != nil || got != s || len(rest) != 0 {
		t.Fatalf("decode = (%q, %d, %v), want (%q, 0, nil)", got, len(rest), err, s)
	}
}

// RFC 7541 C.2: single representation forms.
func TestHpackDecodeC2(t *testing.T) {
	cases := []struct {
		hex  string
		want HeaderField
	}{
		{"400a637573746f6d2d6b65790d637573746f6d2d686561646572", HeaderField{Name: "custom-key", Value: "custom-header"}},
		{"040c2f73616d706c652f70617468", HeaderField{Name: ":path", Value: "/sample/path"}},
		{"100870617373776f726406736563726574", HeaderField{Name: "password", Value: "secret"}},
		{"82", HeaderField{Name: ":method", Value: "GET"}},
	}
	for _, c := range cases {
		d := NewHpackDecoder(4096)
		got, err := d.DecodeFull(mustHex(t, c.hex))
		if err != nil {
			t.Errorf("decode %s: %v", c.hex, err)
			continue
		}
		if len(got) != 1 || got[0] != c.want {
			t.Errorf("decode %s = %+v, want [%+v]", c.hex, got, c.want)
		}
	}
}

var c3Requests = [][]HeaderField{
	{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "http"},
		{Name: ":path", Value: "/"},
		{Name: ":authority", Value: "www.example.com"},
	},
	{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "http"},
		{Name: ":path", Value: "/"},
		{Name: ":authority", Value: "www.example.com"},
		{Name: "cache-control", Value: "no-cache"},
	},
	{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":path", Value: "/index.html"},
		{Name: ":authority", Value: "www.example.com"},
		{Name: "custom-key", Value: "custom-value"},
	},
}

// RFC 7541 C.3: request examples without Huffman coding (decoder side;
// the encoder prefers Huffman so only decode is vector-checked).
func TestHpackDecodeC3Sequence(t *testing.T) {
	blocks := []string{
		"828684410f7777772e6578616d706c652e636f6d",
		"828684be58086e6f2d6361636865",
		"828785bf400a637573746f6d2d6b65790c637573746f6d2d76616c7565",
	}
	d := NewHpackDecoder(4096)
	for i, blk := range blocks {
		got, err := d.DecodeFull(mustHex(t, blk))
		if err != nil {
			t.Fatalf("request %d: %v", i+1, err)
		}
		if !reflect.DeepEqual(got, c3Requests[i]) {
			t.Errorf("request %d = %+v, want %+v", i+1, got, c3Requests[i])
		}
	}
	if d.table.len() != 3 {
		t.Errorf("dynamic table has %d entries after C.3, want 3", d.table.len())
	}
	if d.table.size != 164 {
		t.Errorf("dynamic table size = %d after C.3, want 164", d.table.size)
	}
}

// RFC 7541 C.4: the same requests with Huffman coding; our encoder's
// choices match the example encoder exactly.
func TestHpackEncodeC4Sequence(t *testing.T) {
	want := []string{
		"828684418cf1e3c2e5f23a6ba0ab90f4ff",
		"828684be5886a8eb10649cbf",
		"828785bf408825a849e95ba97d7f8925a849e95bb8e8b4bf",
	}
	e := NewHpackEncoder(4096)
	d := NewHpackDecoder(4096)
	for i, req := range c3Requests {
		blk := e.AppendHeaderBlock(nil, req)
		if hex.EncodeToString(blk) != want[i] {
			t.Errorf("request %d encodes to %x, want %s", i+1, blk, want[i])
		}
		got, err := d.DecodeFull(blk)
		if err != nil {
			t.Fatalf("request %d decode: %v", i+1, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("request %d round trip = %+v, want %+v", i+1, got, req)
		}
	}
	if e.table.size != 164 {
		t.Errorf("encoder dynamic table size = %d, want 164", e.table.size)
	}
}

// RFC 7541 C.5: response examples without Huffman, with a 256-octet
// dynamic table forcing evictions.
func TestHpackDecodeC5Evictions(t *testing.T) {
	blocks := []string{
		"4803333032580770726976617465611d4d6f6e2c203037204d617920323031342031323a34353a353320474d546e1768747470733a2f2f7777772e6578616d706c652e636f6d",
		"4803333037c1c0bf",
		"88c1611d4d6f6e2c203037204d617920323031342031333a31353a333920474d54c05a04677a69707738666f6f3d4153444a4b48514b425a584f5157454f5049554158515745" +
			"4f49553b206d61782d6167653d333630303b2076657273696f6e3d31",
	}
	want := [][]HeaderField{
		{
			{Name: ":status", Value: "302"},
			{Name: "cache-control", Value: "private"},
			{Name: "date", Value: "Mon, 07 May 2014 12:45:53 GMT"},
			{Name: "location", Value: "https://www.example.com"},
		},
		{
			{Name: ":status", Value: "307"},
			{Name: "cache-control", Value: "private"},
			{Name: "date", Value: "Mon, 07 May 2014 12:45:53 GMT"},
			{Name: "location", Value: "https://www.example.com"},
		},
		{
			{Name: ":status", Value: "200"},
			{Name: "cache-control", Value: "private"},
			{Name: "date", Value: "Mon, 07 May 2014 13:15:39 GMT"},
			{Name: "location", Value: "https://www.example.com"},
			{Name: "content-encoding", Value: "gzip"},
			{Name: "set-cookie", Value: "foo=ASDJKHQKBZXOQWEOPIUAXQWEOIU; max-age=3600; version=1"},
		},
	}
	d := NewHpackDecoder(256)
	for i, blk := range blocks {
		got, err := d.DecodeFull(mustHex(t, blk))
		if err != nil {
			t.Fatalf("response %d: %v", i+1, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("response %d = %+v, want %+v", i+1, got, want[i])
		}
	}
	if d.table.len() != 3 {
		t.Errorf("dynamic table has %d entries after C.5, want 3", d.table.len())
	}
	if d.table.size != 215 {
		t.Errorf("dynamic table size = %d after C.5, want 215", d.table.size)
	}
}

func TestHpackRoundTripQuick(t *testing.T) {
	sanitize := func(b []byte) string {
		out := make([]byte, 0, len(b))
		for _, c := range b {
			// Header names must be nonempty lowercase-ish tokens; keep
			// printable subset to exercise both Huffman and plain paths.
			out = append(out, 'a'+c%26)
		}
		return string(out)
	}
	f := func(names, values [][]byte) bool {
		e := NewHpackEncoder(4096)
		d := NewHpackDecoder(4096)
		var fields []HeaderField
		for i, n := range names {
			v := ""
			if i < len(values) {
				v = string(values[i])
			}
			fields = append(fields, HeaderField{Name: "x-" + sanitize(n), Value: v})
		}
		blk := e.AppendHeaderBlock(nil, fields)
		got, err := d.DecodeFull(blk)
		if err != nil {
			return false
		}
		if len(fields) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, fields)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestHpackSensitiveNeverIndexed decodes a never-indexed literal
// (RFC 7541 C.2.3, the representation peers use for sensitive
// values) and checks it stays out of the decoder's dynamic table.
func TestHpackSensitiveNeverIndexed(t *testing.T) {
	d := NewHpackDecoder(4096)
	got, err := d.DecodeFull(mustHex(t, "100870617373776f726406736563726574"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != (HeaderField{Name: "password", Value: "secret"}) {
		t.Errorf("decoded %+v, want [password: secret]", got)
	}
	if d.table.len() != 0 {
		t.Error("never-indexed field was added to the decoder dynamic table")
	}
}

// TestHpackTableSizeUpdateSignalled checks that a dynamic table size
// update at the start of a block (RFC 7541 section 6.3) resizes the
// decoder's table before the fields that follow it.
func TestHpackTableSizeUpdateSignalled(t *testing.T) {
	blk := appendHpackInt(nil, 0x20, 5, 0)
	blk = append(blk, 0x82)
	d := NewHpackDecoder(4096)
	got, err := d.DecodeFull(blk)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != (HeaderField{Name: ":method", Value: "GET"}) {
		t.Errorf("decoded %+v, want [:method: GET]", got)
	}
	if d.table.maxSize != 0 {
		t.Errorf("decoder table max = %d, want 0", d.table.maxSize)
	}
}

func TestHpackDecoderRejectsOversizedTableUpdate(t *testing.T) {
	d := NewHpackDecoder(4096)
	blk := appendHpackInt(nil, 0x20, 5, 8192)
	if _, err := d.DecodeFull(blk); err == nil {
		t.Error("oversized table size update accepted, want error")
	}
}

func TestHpackDecoderRejectsMidBlockTableUpdate(t *testing.T) {
	d := NewHpackDecoder(4096)
	blk := []byte{0x82}                     // :method: GET
	blk = appendHpackInt(blk, 0x20, 5, 128) // then a table size update
	if _, err := d.DecodeFull(blk); err == nil {
		t.Error("table size update after a field accepted, want error")
	}
}

func TestHpackDecoderRejectsBadIndex(t *testing.T) {
	for _, blk := range [][]byte{
		{0x80},                           // index 0
		appendHpackInt(nil, 0x80, 7, 62), // dynamic index on empty table
	} {
		d := NewHpackDecoder(4096)
		if _, err := d.DecodeFull(blk); err == nil {
			t.Errorf("decode %x succeeded, want error", blk)
		}
	}
}

// TestHpackInternCacheBounded decodes far more distinct literals
// than the intern cache holds, the way a server decoder reused across
// many survey sites sees every site's paths: the cache stays within
// internCap and every value still decodes intact.
func TestHpackInternCacheBounded(t *testing.T) {
	enc := NewHpackEncoder(4096)
	dec := NewHpackDecoder(4096)
	for i := 0; i < 4*internCap; i++ {
		path := fmt.Sprintf("/corpus/site-%d/object-%d.png", i/40, i%40)
		block := enc.AppendHeaderBlock(nil, []HeaderField{{Name: ":method", Value: "GET"}, {Name: ":path", Value: path}})
		got, err := dec.DecodeFull(block)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[1].Value != path {
			t.Fatalf("request %d decoded %+v, want :path %s", i, got, path)
		}
		if n := len(dec.strings); n > internCap {
			t.Fatalf("after %d requests the intern cache holds %d strings, want at most %d", i+1, n, internCap)
		}
	}
}

func TestDynamicTableEviction(t *testing.T) {
	var tbl dynamicTable
	tbl.setMaxSize(100)
	tbl.add(HeaderField{Name: "aaaa", Value: "bbbb"}) // size 40
	tbl.add(HeaderField{Name: "cccc", Value: "dddd"}) // size 40
	if tbl.len() != 2 || tbl.size != 80 {
		t.Fatalf("table = %d entries %d bytes, want 2/80", tbl.len(), tbl.size)
	}
	tbl.add(HeaderField{Name: "eeee", Value: "ffff"}) // evicts oldest
	if tbl.len() != 2 || tbl.size != 80 {
		t.Fatalf("after eviction table = %d entries %d bytes, want 2/80", tbl.len(), tbl.size)
	}
	if f, ok := tbl.at(2); !ok || f.Name != "cccc" {
		t.Errorf("oldest surviving entry = %+v, want cccc", f)
	}
	// An entry larger than the table clears it entirely.
	tbl.add(HeaderField{Name: string(make([]byte, 200)), Value: ""})
	if tbl.len() != 0 || tbl.size != 0 {
		t.Errorf("giant entry left table at %d entries %d bytes, want empty", tbl.len(), tbl.size)
	}
}
