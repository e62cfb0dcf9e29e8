package h2

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// scanAll decodes wire through a FrameScanner fed one byte at a time,
// so every frame boundary is also a chunk boundary somewhere.
func scanAll(t *testing.T, wire []byte) []Frame {
	t.Helper()
	var sc FrameScanner
	var out []Frame
	for i := range wire {
		got, err := sc.Feed(wire[i : i+1])
		if err != nil {
			t.Fatalf("byte %d: %v", i, err)
		}
		out = append(out, got...)
	}
	if sc.Buffered() != 0 {
		t.Fatalf("%d bytes left buffered", sc.Buffered())
	}
	return out
}

// TestContinuationReassembly splits a response header block across
// HEADERS and two CONTINUATION frames and checks that concatenating
// the decoded fragments gives back the block HPACK encoded.
func TestContinuationReassembly(t *testing.T) {
	want := []HeaderField{
		{Name: ":status", Value: "200"},
		{Name: "x-long", Value: string(bytes.Repeat([]byte("v"), 60))},
	}
	block := NewHpackEncoder(4096).AppendHeaderBlock(nil, want)
	third := len(block) / 3
	var wire []byte
	wire = AppendFrame(wire, &HeadersFrame{StreamID: 1, BlockFragment: block[:third]})
	wire = AppendFrame(wire, &ContinuationFrame{StreamID: 1, BlockFragment: block[third : 2*third]})
	wire = AppendFrame(wire, &ContinuationFrame{StreamID: 1, BlockFragment: block[2*third:], EndHeaders: true})
	wire = AppendFrame(wire, &DataFrame{StreamID: 1, Data: []byte("done"), EndStream: true})

	frames := scanAll(t, wire)
	if len(frames) != 4 {
		t.Fatalf("decoded %d frames, want 4", len(frames))
	}
	hf, ok := frames[0].(*HeadersFrame)
	if !ok || hf.EndHeaders {
		t.Fatalf("first frame %#v, want HEADERS without END_HEADERS", frames[0])
	}
	joined := append([]byte(nil), hf.BlockFragment...)
	for i, f := range frames[1:3] {
		cf, ok := f.(*ContinuationFrame)
		if !ok || cf.StreamID != 1 {
			t.Fatalf("frame %d: %#v, want CONTINUATION on stream 1", i+1, f)
		}
		if cf.EndHeaders != (i == 1) {
			t.Errorf("frame %d: END_HEADERS = %v", i+1, cf.EndHeaders)
		}
		joined = append(joined, cf.BlockFragment...)
	}
	if !bytes.Equal(joined, block) {
		t.Fatalf("reassembled block %x, want %x", joined, block)
	}
	got, err := NewHpackDecoder(4096).DecodeFull(joined)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded %v, want %v", got, want)
	}
	if df, ok := frames[3].(*DataFrame); !ok || string(df.Data) != "done" || !df.EndStream {
		t.Errorf("last frame %#v, want DATA \"done\" with END_STREAM", frames[3])
	}
}

// TestCompressionErrorTearsDownConnection checks that a corrupt header
// block is a connection error with COMPRESSION_ERROR (RFC 7541 section
// 2.3.3: index 0 is never valid), not a stream error.
func TestCompressionErrorTearsDownConnection(t *testing.T) {
	frames := scanAll(t, MarshalFrame(&HeadersFrame{StreamID: 1, BlockFragment: []byte{0x80}, EndHeaders: true}))
	hf := frames[0].(*HeadersFrame)
	_, err := NewHpackDecoder(4096).DecodeFull(hf.BlockFragment)
	var ce ConnectionError
	if !errors.As(err, &ce) || ce.Code != ErrCodeCompression {
		t.Fatalf("err = %v, want ConnectionError with %v", err, ErrCodeCompression)
	}
	var se StreamError
	if errors.As(err, &se) {
		t.Errorf("err = %v also matches StreamError", err)
	}
}

// TestRequestHeadersRoundTrip carries request headers, one of them
// sensitive, through HPACK and a HEADERS frame and back; the sensitive
// field must stay out of the dynamic table on both sides.
func TestRequestHeadersRoundTrip(t *testing.T) {
	want := []HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "example.test"},
		{Name: ":path", Value: "/auth"},
		{Name: "x-token", Value: "s3cr3t", Sensitive: true},
	}
	enc := NewHpackEncoder(4096)
	dec := NewHpackDecoder(4096)
	for round := 0; round < 2; round++ {
		wire := MarshalFrame(&HeadersFrame{
			StreamID:      uint32(2*round + 1),
			BlockFragment: enc.AppendHeaderBlock(nil, want),
			EndHeaders:    true,
			EndStream:     true,
		})
		frames := scanAll(t, wire)
		hf, ok := frames[0].(*HeadersFrame)
		if len(frames) != 1 || !ok || !hf.EndStream {
			t.Fatalf("round %d: decoded %v", round, frames)
		}
		got, err := dec.DecodeFull(hf.BlockFragment)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round %d: decoded %v, want %v", round, got, want)
		}
		if !bytes.Contains(hf.BlockFragment, []byte("s3cr3t")) && !bytes.Contains(hf.BlockFragment, appendHpackString(nil, "s3cr3t")) {
			t.Errorf("round %d: sensitive value not sent as a literal", round)
		}
	}
}

// TestHeadersPriorityAppliedAtCreation checks that the priority fields
// of the HEADERS frame that opens a stream decode the same through
// Feed and FeedInto, and that the header block after them is intact.
func TestHeadersPriorityAppliedAtCreation(t *testing.T) {
	block := NewHpackEncoder(4096).AppendHeaderBlock(nil, []HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":path", Value: "/weighted"},
	})
	want := &HeadersFrame{
		StreamID:      5,
		BlockFragment: block,
		EndHeaders:    true,
		EndStream:     true,
		HasPriority:   true,
		Priority:      PriorityParam{StreamDep: 3, Exclusive: true, Weight: 99},
	}
	wire := MarshalFrame(want)

	if got := scanAll(t, wire); len(got) != 1 || !reflect.DeepEqual(got[0], want) {
		t.Fatalf("Feed decoded %#v, want %#v", got, want)
	}
	var sc FrameScanner
	n := 0
	err := sc.FeedInto(wire, func(f Frame) error {
		n++
		hf, ok := f.(*HeadersFrame)
		if !ok {
			t.Fatalf("FeedInto decoded %T", f)
		}
		if !hf.HasPriority || hf.Priority != want.Priority {
			t.Errorf("FeedInto priority = %v %+v, want %+v", hf.HasPriority, hf.Priority, want.Priority)
		}
		if !bytes.Equal(hf.BlockFragment, block) {
			t.Errorf("FeedInto block %x, want %x", hf.BlockFragment, block)
		}
		return nil
	})
	if err != nil || n != 1 {
		t.Fatalf("FeedInto: %d frames, err %v", n, err)
	}
}

// TestUnknownFrameTypeIgnored checks that a frame of an unknown type
// (RFC 7540 section 4.1: must be ignored) passes through the scanner as
// an UnknownFrame without disturbing the frames around it.
func TestUnknownFrameTypeIgnored(t *testing.T) {
	var wire []byte
	wire = AppendFrame(wire, &PingFrame{Data: [8]byte{1}})
	wire = AppendFrame(wire, &UnknownFrame{FH: FrameHeader{Type: FrameType(0x77)}, Payload: []byte{1, 2, 3}})
	wire = AppendFrame(wire, &DataFrame{StreamID: 1, Data: []byte("x"), EndStream: true})

	var types []FrameType
	var sc FrameScanner
	err := sc.FeedInto(wire, func(f Frame) error {
		types = append(types, f.Header().Type)
		if u, ok := f.(*UnknownFrame); ok && !bytes.Equal(u.Payload, []byte{1, 2, 3}) {
			t.Errorf("unknown payload = %x", u.Payload)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []FrameType{FramePing, FrameType(0x77), FrameData}
	if !reflect.DeepEqual(types, want) {
		t.Errorf("frame types %v, want %v", types, want)
	}
}

// TestWindowOverflowIsFlowControlError feeds a SETTINGS frame whose
// SETTINGS_INITIAL_WINDOW_SIZE exceeds 2^31-1 through the scanner: it
// must be a FLOW_CONTROL_ERROR connection error (RFC 7540 section
// 6.5.2), while the maximum itself is accepted.
func TestWindowOverflowIsFlowControlError(t *testing.T) {
	var ce ConnectionError
	settings := MarshalFrame(&SettingsFrame{Settings: []Setting{{ID: SettingInitialWindowSize, Val: MaxWindowSize + 1}}})
	var sc FrameScanner
	if _, err := sc.Feed(settings); !errors.As(err, &ce) || ce.Code != ErrCodeFlowControl {
		t.Fatalf("oversized SETTINGS_INITIAL_WINDOW_SIZE: err = %v, want ConnectionError with %v", err, ErrCodeFlowControl)
	}

	settings = MarshalFrame(&SettingsFrame{Settings: []Setting{{ID: SettingInitialWindowSize, Val: MaxWindowSize}}})
	sc = FrameScanner{}
	if _, err := sc.Feed(settings); err != nil {
		t.Fatalf("SETTINGS_INITIAL_WINDOW_SIZE at the maximum rejected: %v", err)
	}
}
