package h2

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

// roundTrip encodes f and decodes it back through a FrameScanner,
// requiring exactly one frame and nothing left buffered.
func roundTrip(t *testing.T, f Frame) Frame {
	t.Helper()
	var sc FrameScanner
	got, err := sc.Feed(MarshalFrame(f))
	if err != nil {
		t.Fatalf("decode %v: %v", f.Header(), err)
	}
	if len(got) != 1 || sc.Buffered() != 0 {
		t.Fatalf("decode %v: %d frames, %d bytes left buffered", f.Header(), len(got), sc.Buffered())
	}
	return got[0]
}

func TestFrameRoundTripAllTypes(t *testing.T) {
	frames := []Frame{
		&DataFrame{StreamID: 1, Data: []byte("hello"), EndStream: true},
		&DataFrame{StreamID: 3, Data: []byte("padded"), Padded: true, PadLength: 7},
		&HeadersFrame{StreamID: 5, BlockFragment: []byte{0x82}, EndHeaders: true, EndStream: true},
		&HeadersFrame{
			StreamID:      7,
			BlockFragment: []byte{0x82, 0x86},
			HasPriority:   true,
			Priority:      PriorityParam{StreamDep: 3, Exclusive: true, Weight: 200},
			Padded:        true,
			PadLength:     3,
		},
		&PriorityFrame{StreamID: 9, Priority: PriorityParam{StreamDep: 1, Weight: 15}},
		&RSTStreamFrame{StreamID: 11, Code: ErrCodeCancel},
		&SettingsFrame{Settings: []Setting{
			{SettingInitialWindowSize, 1 << 20},
			{SettingMaxFrameSize, 1 << 15},
		}},
		&SettingsFrame{Ack: true},
		&PushPromiseFrame{StreamID: 13, PromiseID: 14, BlockFragment: []byte{0x84}, EndHeaders: true},
		&PingFrame{Data: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}},
		&PingFrame{Ack: true, Data: [8]byte{8, 7, 6, 5, 4, 3, 2, 1}},
		&GoAwayFrame{LastStreamID: 15, Code: ErrCodeEnhanceYourCalm, DebugData: []byte("bye")},
		&WindowUpdateFrame{StreamID: 0, Increment: 12345},
		&WindowUpdateFrame{StreamID: 17, Increment: 1},
		&ContinuationFrame{StreamID: 19, BlockFragment: []byte{0x01, 0x02}, EndHeaders: true},
	}
	for _, f := range frames {
		got := roundTrip(t, f)
		// Feed copies payloads, so compare by deep equality of values.
		if !reflect.DeepEqual(got, f) {
			t.Errorf("round trip %v:\n got %#v\nwant %#v", f.Header(), got, f)
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
	wire := MarshalFrame(&DataFrame{StreamID: 1, Data: make([]byte, 2048)})
	sc := FrameScanner{MaxFrameSize: 1024}
	if _, err := sc.Feed(wire); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
	// The zero MaxFrameSize means DefaultMaxFrameSize.
	var over, at FrameScanner
	if _, err := over.Feed(MarshalFrame(&DataFrame{StreamID: 1, Data: make([]byte, DefaultMaxFrameSize+1)})); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("default limit: err = %v, want ErrFrameTooLarge", err)
	}
	if _, err := at.Feed(MarshalFrame(&DataFrame{StreamID: 1, Data: make([]byte, DefaultMaxFrameSize)})); err != nil {
		t.Errorf("frame at the default limit rejected: %v", err)
	}
}

// TestFramerEOF checks that a truncated header or payload
// yields no frame and no error, and that the frame comes out once its
// last byte arrives.
func TestFramerEOF(t *testing.T) {
	want := &PingFrame{Data: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}}
	full := MarshalFrame(want)
	for _, cut := range []int{0, 2, FrameHeaderLen, len(full) - 1} {
		var sc FrameScanner
		got, err := sc.Feed(full[:cut])
		if err != nil || len(got) != 0 {
			t.Fatalf("first %d bytes: %d frames, err %v; want none", cut, len(got), err)
		}
		if sc.Buffered() != cut {
			t.Errorf("first %d bytes: Buffered = %d", cut, sc.Buffered())
		}
		got, err = sc.Feed(full[cut:])
		if err != nil || len(got) != 1 {
			t.Fatalf("rest after %d bytes: %d frames, err %v; want one", cut, len(got), err)
		}
		if !reflect.DeepEqual(got[0], want) {
			t.Errorf("rest after %d bytes: got %#v", cut, got[0])
		}
	}
}

func TestParseRejectsProtocolViolations(t *testing.T) {
	cases := []struct {
		name string
		h    FrameHeader
		pay  []byte
	}{
		{"DATA on stream 0", FrameHeader{Type: FrameData, Length: 1}, []byte{0}},
		{"HEADERS on stream 0", FrameHeader{Type: FrameHeaders, Length: 1}, []byte{0x82}},
		{"PRIORITY on stream 0", FrameHeader{Type: FramePriority, Length: 5}, make([]byte, 5)},
		{"RST on stream 0", FrameHeader{Type: FrameRSTStream, Length: 4}, make([]byte, 4)},
		{"RST bad length", FrameHeader{Type: FrameRSTStream, StreamID: 1, Length: 3}, make([]byte, 3)},
		{"SETTINGS on stream", FrameHeader{Type: FrameSettings, StreamID: 1, Length: 0}, nil},
		{"SETTINGS bad length", FrameHeader{Type: FrameSettings, Length: 5}, make([]byte, 5)},
		{"SETTINGS ack payload", FrameHeader{Type: FrameSettings, Flags: FlagAck, Length: 6}, make([]byte, 6)},
		{"PING on stream", FrameHeader{Type: FramePing, StreamID: 1, Length: 8}, make([]byte, 8)},
		{"PING bad length", FrameHeader{Type: FramePing, Length: 7}, make([]byte, 7)},
		{"GOAWAY on stream", FrameHeader{Type: FrameGoAway, StreamID: 1, Length: 8}, make([]byte, 8)},
		{"GOAWAY truncated", FrameHeader{Type: FrameGoAway, Length: 4}, make([]byte, 4)},
		{"WINDOW_UPDATE bad length", FrameHeader{Type: FrameWindowUpdate, StreamID: 1, Length: 3}, make([]byte, 3)},
		{"WINDOW_UPDATE zero conn", FrameHeader{Type: FrameWindowUpdate, Length: 4}, make([]byte, 4)},
		{"WINDOW_UPDATE zero stream", FrameHeader{Type: FrameWindowUpdate, StreamID: 1, Length: 4}, make([]byte, 4)},
		{"CONTINUATION on stream 0", FrameHeader{Type: FrameContinuation, Length: 0}, nil},
		{"padding exceeds payload", FrameHeader{Type: FrameData, StreamID: 1, Flags: FlagPadded, Length: 2}, []byte{5, 0}},
		{"padded empty", FrameHeader{Type: FrameData, StreamID: 1, Flags: FlagPadded, Length: 0}, nil},
	}
	for _, c := range cases {
		if _, err := ParseFramePayload(c.h, c.pay); err == nil {
			t.Errorf("%s: parse succeeded, want error", c.name)
		}
	}
}

func TestParseUnknownFrameType(t *testing.T) {
	h := FrameHeader{Type: FrameType(0x42), StreamID: 3, Length: 2, Flags: 0x5}
	f, err := ParseFramePayload(h, []byte{0xaa, 0xbb})
	if err != nil {
		t.Fatal(err)
	}
	u, ok := f.(*UnknownFrame)
	if !ok {
		t.Fatalf("parsed %T, want *UnknownFrame", f)
	}
	if !bytes.Equal(MarshalFrame(u), append(appendFrameHeader(nil, h), 0xaa, 0xbb)) {
		t.Error("unknown frame did not re-serialize identically")
	}
}

func TestSettingsFrameValue(t *testing.T) {
	f := &SettingsFrame{Settings: []Setting{
		{SettingInitialWindowSize, 100},
		{SettingInitialWindowSize, 200}, // last occurrence wins
	}}
	if v, ok := f.Value(SettingInitialWindowSize); !ok || v != 200 {
		t.Errorf("Value = %d, %v; want 200, true", v, ok)
	}
	if _, ok := f.Value(SettingMaxFrameSize); ok {
		t.Error("absent setting reported present")
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
	f := func(stream uint32, data []byte, end bool, padLen uint8) bool {
		if stream == 0 {
			stream = 1
		}
		in := &DataFrame{
			StreamID:  stream & 0x7fffffff,
			Data:      data,
			EndStream: end,
			Padded:    true,
			PadLength: padLen,
		}
		sc := FrameScanner{MaxFrameSize: MaxAllowedFrameSize}
		out, err := sc.Feed(MarshalFrame(in))
		if err != nil || len(out) != 1 {
			return false
		}
		got, ok := out[0].(*DataFrame)
		if !ok {
			return false
		}
		return got.StreamID == in.StreamID &&
			got.EndStream == in.EndStream &&
			got.PadLength == in.PadLength &&
			bytes.Equal(got.Data, in.Data)
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
	if (StreamError{StreamID: 3, Code: ErrCodeCancel}).Error() == "" {
		t.Error("StreamError.Error broken")
	}
}
