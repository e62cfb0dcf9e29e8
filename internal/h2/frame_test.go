package h2

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// marshal returns the plain wire bytes of f.
func marshal(f Frame) []byte {
	var b wire.Bytes
	AppendFrame(&b, f)
	return wiretest.Plain(b)
}

// cloneFrame copies a scratch frame emitted by FeedInto, slices
// included, so it can be kept past the callback.
func cloneFrame(f Frame) Frame {
	switch v := f.(type) {
	case *DataFrame:
		c := *v
		return &c
	case *HeadersFrame:
		c := *v
		c.BlockFragment = bytes.Clone(v.BlockFragment)
		return &c
	case *RSTStreamFrame:
		c := *v
		return &c
	case *SettingsFrame:
		c := *v
		c.Settings = slices.Clone(v.Settings)
		return &c
	case *PushPromiseFrame:
		c := *v
		c.BlockFragment = bytes.Clone(v.BlockFragment)
		return &c
	}
	panic("unexpected frame type")
}

// scan feeds wire as literal bytes through a fresh FrameScanner in
// chunks of chunk bytes and returns a copy of every emitted frame, the
// first error, and the bytes left buffered.
func scan(wire []byte, chunk int) (frames []Frame, buffered int, err error) {
	return scanStream(wiretest.Lit(wire), chunk)
}

// scanStream is scan over a stream that may hold runs.
func scanStream(b wire.Bytes, chunk int) (frames []Frame, buffered int, err error) {
	var sc FrameScanner
	for off := 0; off < b.Len() && err == nil; off += chunk {
		err = sc.FeedInto(b.Slice(off, min(off+chunk, b.Len())), func(f Frame) error {
			frames = append(frames, cloneFrame(f))
			return nil
		})
	}
	return frames, sc.Buffered(), err
}

// rawFrame builds a frame's wire bytes from a header and payload, for
// frames the encoder cannot produce.
func rawFrame(h FrameHeader, payload []byte) []byte {
	h.Length = uint32(len(payload))
	return append(appendFrameHeader(nil, h), payload...)
}

func TestFrameRoundTripAllTypes(t *testing.T) {
	frames := []Frame{
		&DataFrame{StreamID: 1, Len: 5, EndStream: true},
		&DataFrame{StreamID: 3, Len: 4},
		&HeadersFrame{StreamID: 5, BlockFragment: []byte{0x82}, EndHeaders: true, EndStream: true},
		&HeadersFrame{StreamID: 7, BlockFragment: []byte{0x82, 0x86}, EndHeaders: true},
		&RSTStreamFrame{StreamID: 11, Code: ErrCodeCancel},
		&SettingsFrame{Settings: []Setting{
			{SettingInitialWindowSize, 1 << 20},
			{SettingMaxFrameSize, 1 << 15},
		}},
		&SettingsFrame{Ack: true},
		&PushPromiseFrame{StreamID: 13, PromiseID: 14, BlockFragment: []byte{0x84}, EndHeaders: true},
	}
	for _, f := range frames {
		wire := marshal(f)
		got, buffered, err := scan(wire, len(wire))
		if err != nil || len(got) != 1 || buffered != 0 {
			t.Fatalf("decode %v: %d frames, %d bytes buffered, err %v", f.Header(), len(got), buffered, err)
		}
		if got[0].Header() != f.Header() || !bytes.Equal(marshal(got[0]), wire) {
			t.Errorf("round trip %v:\n got %#v\nwant %#v", f.Header(), got[0], f)
		}
	}
}

func TestFrameHeaderEncoding(t *testing.T) {
	h := FrameHeader{Length: 0x040302, Type: FrameData, Flags: FlagEndStream, StreamID: 0x01020304}
	b := appendFrameHeader(nil, h)
	if len(b) != FrameHeaderLen {
		t.Fatalf("header length %d, want %d", len(b), FrameHeaderLen)
	}
	got := parseFrameHeader(b)
	if got != h {
		t.Errorf("parse(append(%+v)) = %+v", h, got)
	}
	if h.WireLen() != FrameHeaderLen+0x040302 {
		t.Errorf("WireLen = %d", h.WireLen())
	}
}

func TestFrameHeaderReservedBitMasked(t *testing.T) {
	h := FrameHeader{Type: FramePing, StreamID: 0xffffffff}
	b := appendFrameHeader(nil, h)
	got := parseFrameHeader(b)
	if got.StreamID != 0x7fffffff {
		t.Errorf("stream id = 0x%x, want reserved bit masked", got.StreamID)
	}
}

func TestFramerRejectsOversizedFrame(t *testing.T) {
	over := marshal(&DataFrame{StreamID: 1, Len: DefaultMaxFrameSize + 1})
	if _, _, err := scan(over, len(over)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
	// The limit applies as soon as the header is in, before the payload.
	if _, _, err := scan(over[:FrameHeaderLen], FrameHeaderLen); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("header only: err = %v, want ErrFrameTooLarge", err)
	}
	at := marshal(&DataFrame{StreamID: 1, Len: DefaultMaxFrameSize})
	if _, _, err := scan(at, len(at)); err != nil {
		t.Errorf("frame at the limit rejected: %v", err)
	}
}

// TestFramerEOF checks that a truncated header or payload
// yields no frame and no error, and that the frame comes out once its
// last byte arrives.
func TestFramerEOF(t *testing.T) {
	full := marshal(&DataFrame{StreamID: 1, Len: 8, EndStream: true})
	for _, cut := range []int{0, 2, FrameHeaderLen, len(full) - 1} {
		var sc FrameScanner
		var got []Frame
		emit := func(f Frame) error {
			got = append(got, cloneFrame(f))
			return nil
		}
		if err := sc.FeedInto(wiretest.Lit(full[:cut]), emit); err != nil || len(got) != 0 {
			t.Fatalf("first %d bytes: %d frames, err %v; want none", cut, len(got), err)
		}
		if sc.Buffered() != cut {
			t.Errorf("first %d bytes: Buffered = %d", cut, sc.Buffered())
		}
		if err := sc.FeedInto(wiretest.Lit(full[cut:]), emit); err != nil || len(got) != 1 {
			t.Fatalf("rest after %d bytes: %d frames, err %v; want one", cut, len(got), err)
		}
		if !bytes.Equal(marshal(got[0]), full) {
			t.Errorf("rest after %d bytes: got %#v", cut, got[0])
		}
	}
}

// TestParseRejectsProtocolViolations checks that malformed frames of
// the five decoded types, and the features the scanner refuses rather
// than decodes (the PADDED flag, HEADERS priority fields, a header
// block left open for CONTINUATION), end the scan with a
// ConnectionError and emit nothing.
func TestParseRejectsProtocolViolations(t *testing.T) {
	cases := []struct {
		name string
		h    FrameHeader
		pay  []byte
	}{
		{"DATA on stream 0", FrameHeader{Type: FrameData}, []byte{0}},
		{"HEADERS on stream 0", FrameHeader{Type: FrameHeaders, Flags: FlagEndHeaders}, []byte{0x82}},
		{"RST on stream 0", FrameHeader{Type: FrameRSTStream}, make([]byte, 4)},
		{"RST bad length", FrameHeader{Type: FrameRSTStream, StreamID: 1}, make([]byte, 3)},
		{"SETTINGS on stream", FrameHeader{Type: FrameSettings, StreamID: 1}, nil},
		{"SETTINGS bad length", FrameHeader{Type: FrameSettings}, make([]byte, 5)},
		{"SETTINGS ack payload", FrameHeader{Type: FrameSettings, Flags: FlagAck}, make([]byte, 6)},
		{"PUSH_PROMISE on stream 0", FrameHeader{Type: FramePushPromise, Flags: FlagEndHeaders}, make([]byte, 4)},
		{"PUSH_PROMISE truncated", FrameHeader{Type: FramePushPromise, StreamID: 1, Flags: FlagEndHeaders}, make([]byte, 3)},
		{"padded DATA", FrameHeader{Type: FrameData, StreamID: 1, Flags: FlagPadded}, []byte{0, 'x'}},
		{"padded HEADERS", FrameHeader{Type: FrameHeaders, StreamID: 1, Flags: FlagPadded | FlagEndHeaders}, []byte{0, 0x82}},
		{"padded PUSH_PROMISE", FrameHeader{Type: FramePushPromise, StreamID: 1, Flags: FlagPadded | FlagEndHeaders}, []byte{0, 0, 0, 0, 2, 0x82}},
		{"HEADERS with priority", FrameHeader{Type: FrameHeaders, StreamID: 1, Flags: FlagPriority | FlagEndHeaders}, []byte{0, 0, 0, 3, 15, 0x82}},
		{"HEADERS without END_HEADERS", FrameHeader{Type: FrameHeaders, StreamID: 1}, []byte{0x82}},
		{"PUSH_PROMISE without END_HEADERS", FrameHeader{Type: FramePushPromise, StreamID: 1}, []byte{0, 0, 0, 2, 0x82}},
	}
	for _, c := range cases {
		wire := rawFrame(c.h, c.pay)
		got, _, err := scan(wire, len(wire))
		var ce ConnectionError
		if !errors.As(err, &ce) || len(got) != 0 {
			t.Errorf("%s: emitted %d frames, err %v; want a ConnectionError", c.name, len(got), err)
		}
	}
}

func TestSettingValidation(t *testing.T) {
	bad := []Setting{
		{SettingEnablePush, 2},
		{SettingInitialWindowSize, MaxWindowSize + 1},
		{SettingMaxFrameSize, DefaultMaxFrameSize - 1},
		{SettingMaxFrameSize, MaxAllowedFrameSize + 1},
	}
	for _, s := range bad {
		if err := s.Valid(); err == nil {
			t.Errorf("setting %v accepted, want error", s)
		}
	}
	good := []Setting{
		{SettingEnablePush, 0},
		{SettingEnablePush, 1},
		{SettingInitialWindowSize, MaxWindowSize},
		{SettingMaxFrameSize, DefaultMaxFrameSize},
		{SettingHeaderTableSize, 0},
	}
	for _, s := range good {
		if err := s.Valid(); err != nil {
			t.Errorf("setting %v rejected: %v", s, err)
		}
	}
}

func TestDataFrameQuickRoundTrip(t *testing.T) {
	f := func(stream uint32, data []byte, end bool) bool {
		if stream == 0 {
			stream = 1
		}
		in := &DataFrame{StreamID: stream & 0x7fffffff, Len: len(data), EndStream: end}
		out, _, err := scan(marshal(in), 1<<20)
		if err != nil || len(out) != 1 {
			return false
		}
		got, ok := out[0].(*DataFrame)
		if !ok {
			return false
		}
		return got.StreamID == in.StreamID &&
			got.EndStream == in.EndStream &&
			got.Len == in.Len
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStringers(t *testing.T) {
	if FrameData.String() != "DATA" || FrameType(0xee).String() == "" {
		t.Error("FrameType.String broken")
	}
	if ErrCodeProtocol.String() != "PROTOCOL_ERROR" || ErrCode(0xffff).String() == "" {
		t.Error("ErrCode.String broken")
	}
	if SettingMaxFrameSize.String() != "SETTINGS_MAX_FRAME_SIZE" {
		t.Error("SettingID.String broken")
	}
	if (ConnectionError{Code: ErrCodeProtocol, Reason: "x"}).Error() == "" {
		t.Error("ConnectionError.Error broken")
	}
}
