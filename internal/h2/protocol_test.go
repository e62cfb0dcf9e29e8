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
	frames, buffered, err := scan(wire, 1)
	if err != nil {
		t.Fatal(err)
	}
	if buffered != 0 {
		t.Fatalf("%d bytes left buffered", buffered)
	}
	return frames
}

// TestCompressionErrorTearsDownConnection checks that a corrupt header
// block is a connection error with COMPRESSION_ERROR (RFC 7541 section
// 2.3.3: index 0 is never valid).
func TestCompressionErrorTearsDownConnection(t *testing.T) {
	frames := scanAll(t, marshal(&HeadersFrame{StreamID: 1, BlockFragment: []byte{0x80}, EndHeaders: true}))
	hf := frames[0].(*HeadersFrame)
	_, err := NewHpackDecoder(4096).DecodeFull(hf.BlockFragment)
	var ce ConnectionError
	if !errors.As(err, &ce) || ce.Code != ErrCodeCompression {
		t.Fatalf("err = %v, want ConnectionError with %v", err, ErrCodeCompression)
	}
}

// TestRequestHeadersRoundTrip carries request headers through HPACK
// and a HEADERS frame and back, twice over one encoder/decoder pair:
// the second block refers to the first's dynamic-table entries, so it
// is shorter and still decodes to the same list.
func TestRequestHeadersRoundTrip(t *testing.T) {
	want := []HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "example.test"},
		{Name: ":path", Value: "/auth"},
		{Name: "x-token", Value: "s3cr3t"},
	}
	enc := NewHpackEncoder(4096)
	dec := NewHpackDecoder(4096)
	var lens []int
	for round := 0; round < 2; round++ {
		block := enc.AppendHeaderBlock(nil, want)
		lens = append(lens, len(block))
		wire := marshal(&HeadersFrame{
			StreamID:      uint32(2*round + 1),
			BlockFragment: block,
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
	}
	if lens[1] >= lens[0] {
		t.Errorf("second block is %d bytes, first %d: dynamic table not used", lens[1], lens[0])
	}
}

// TestUnknownFrameTypeIgnored checks that frames of every type
// outside the five the scanner decodes — PRIORITY, PING, GOAWAY,
// WINDOW_UPDATE, CONTINUATION and an unknown type (RFC 7540 section
// 4.1: must be ignored) — are consumed without being emitted or
// disturbing the frames around them, whatever flags they carry.
func TestUnknownFrameTypeIgnored(t *testing.T) {
	first := marshal(&RSTStreamFrame{StreamID: 3, Code: ErrCodeCancel})
	last := marshal(&DataFrame{StreamID: 1, Len: 1, EndStream: true})
	wire := append([]byte(nil), first...)
	for _, typ := range []FrameType{FramePriority, FramePing, FrameGoAway, FrameWindowUpdate, FrameContinuation, FrameType(0x77)} {
		// Set the bits that mean PADDED and PRIORITY on other types.
		wire = append(wire, rawFrame(FrameHeader{Type: typ, StreamID: 1, Flags: FlagPadded | FlagPriority | FlagAck}, []byte{1, 2, 3, 4, 5, 6, 7, 8})...)
	}
	wire = append(wire, last...)

	frames := scanAll(t, wire)
	if len(frames) != 2 || !bytes.Equal(marshal(frames[0]), first) || !bytes.Equal(marshal(frames[1]), last) {
		t.Errorf("decoded %#v, want the RST_STREAM and DATA frames only", frames)
	}
}

// TestWindowOverflowIsFlowControlError feeds a SETTINGS frame whose
// SETTINGS_INITIAL_WINDOW_SIZE exceeds 2^31-1 through the scanner: it
// must be a FLOW_CONTROL_ERROR connection error (RFC 7540 section
// 6.5.2), while the maximum itself is accepted.
func TestWindowOverflowIsFlowControlError(t *testing.T) {
	var ce ConnectionError
	settings := marshal(&SettingsFrame{Settings: []Setting{{ID: SettingInitialWindowSize, Val: MaxWindowSize + 1}}})
	if _, _, err := scan(settings, len(settings)); !errors.As(err, &ce) || ce.Code != ErrCodeFlowControl {
		t.Fatalf("oversized SETTINGS_INITIAL_WINDOW_SIZE: err = %v, want ConnectionError with %v", err, ErrCodeFlowControl)
	}

	settings = marshal(&SettingsFrame{Settings: []Setting{{ID: SettingInitialWindowSize, Val: MaxWindowSize}}})
	if _, _, err := scan(settings, len(settings)); err != nil {
		t.Fatalf("SETTINGS_INITIAL_WINDOW_SIZE at the maximum rejected: %v", err)
	}
}
