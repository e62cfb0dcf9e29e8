package h2

import (
	"bytes"
	"testing"

	"repro/internal/wire"
)

// TestFeedIntoMatchesFeed checks that chunking does not change what
// the scanner decodes: a stream of every decoded frame type, DATA
// payloads held as runs the way AppendFrame writes them, fed in chunks
// of every size from one byte to the whole stream, emits the same
// frames, which re-encode to the original bytes.
func TestFeedIntoMatchesFeed(t *testing.T) {
	frames := []Frame{
		&SettingsFrame{Settings: []Setting{{SettingInitialWindowSize, 1 << 30}}},
		&DataFrame{StreamID: 1, Len: 5},
		&HeadersFrame{StreamID: 3, BlockFragment: []byte{0x82}, EndHeaders: true},
		&PushPromiseFrame{StreamID: 3, PromiseID: 4, BlockFragment: []byte{0x84}, EndHeaders: true},
		&DataFrame{StreamID: 1, Len: 5, EndStream: true},
		&SettingsFrame{Ack: true},
		&RSTStreamFrame{StreamID: 3, Code: ErrCodeCancel},
	}
	var stream wire.Bytes
	for _, f := range frames {
		AppendFrame(&stream, f)
	}
	for chunk := 1; chunk <= stream.Len(); chunk++ {
		got, buffered, err := scanStream(stream, chunk)
		if err != nil || buffered != 0 || len(got) != len(frames) {
			t.Fatalf("chunk %d: %d frames, %d bytes buffered, err %v; want %d frames", chunk, len(got), buffered, err, len(frames))
		}
		for i, f := range frames {
			if !bytes.Equal(marshal(got[i]), marshal(f)) {
				t.Errorf("chunk %d frame %d: %#v, want %#v", chunk, i, got[i], f)
			}
		}
	}
}

// TestAppendFrameHoldsDataAsRun checks that AppendFrame writes a DATA
// payload as a zero run and every other byte literally.
func TestAppendFrameHoldsDataAsRun(t *testing.T) {
	var b wire.Bytes
	AppendFrame(&b, &DataFrame{StreamID: 1, Len: 1400})
	AppendFrame(&b, &RSTStreamFrame{StreamID: 1, Code: ErrCodeCancel})
	if b.Len() != 2*FrameHeaderLen+1404 || b.Literal() != 2*FrameHeaderLen+4 {
		t.Errorf("DATA+RST_STREAM: %d bytes, %d literal; want %d and %d", b.Len(), b.Literal(), 2*FrameHeaderLen+1404, 2*FrameHeaderLen+4)
	}
}

// TestFeedIntoDataZeroAlloc proves DATA frames — the hot frame type
// in every trial — cost zero allocations through FeedInto.
func TestFeedIntoDataZeroAlloc(t *testing.T) {
	var stream wire.Bytes
	AppendFrame(&stream, &DataFrame{StreamID: 1, Len: 1400})
	var sc FrameScanner
	emit := func(f Frame) error { return nil }
	for i := 0; i < 8; i++ {
		if err := sc.FeedInto(stream, emit); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := sc.FeedInto(stream, emit); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("FeedInto DATA steady state: %.1f allocs/op, want 0", allocs)
	}
}
