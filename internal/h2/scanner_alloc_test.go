package h2

import (
	"bytes"
	"testing"
)

// TestFeedIntoMatchesFeed checks that chunking does not change what
// the scanner decodes: a stream of every decoded frame type, fed in
// chunks of every size from one byte to the whole stream, emits the
// same frames, which re-encode to the original bytes.
func TestFeedIntoMatchesFeed(t *testing.T) {
	frames := []Frame{
		&SettingsFrame{Settings: []Setting{{SettingInitialWindowSize, 1 << 30}}},
		&DataFrame{StreamID: 1, Data: []byte("hello")},
		&HeadersFrame{StreamID: 3, BlockFragment: []byte{0x82}, EndHeaders: true},
		&PushPromiseFrame{StreamID: 3, PromiseID: 4, BlockFragment: []byte{0x84}, EndHeaders: true},
		&DataFrame{StreamID: 1, Data: []byte("world"), EndStream: true},
		&SettingsFrame{Ack: true},
		&RSTStreamFrame{StreamID: 3, Code: ErrCodeCancel},
	}
	var wire []byte
	for _, f := range frames {
		wire = AppendFrame(wire, f)
	}
	for chunk := 1; chunk <= len(wire); chunk++ {
		got, buffered, err := scan(wire, chunk)
		if err != nil || buffered != 0 || len(got) != len(frames) {
			t.Fatalf("chunk %d: %d frames, %d bytes buffered, err %v; want %d frames", chunk, len(got), buffered, err, len(frames))
		}
		for i, f := range frames {
			if !bytes.Equal(MarshalFrame(got[i]), MarshalFrame(f)) {
				t.Errorf("chunk %d frame %d: %#v, want %#v", chunk, i, got[i], f)
			}
		}
	}
}

// TestFeedIntoDataZeroAlloc proves DATA frames — the hot frame type
// in every trial — cost zero allocations through FeedInto.
func TestFeedIntoDataZeroAlloc(t *testing.T) {
	wire := AppendFrame(nil, &DataFrame{StreamID: 1, Data: make([]byte, 1400)})
	var sc FrameScanner
	emit := func(f Frame) error { return nil }
	for i := 0; i < 8; i++ {
		if err := sc.FeedInto(wire, emit); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := sc.FeedInto(wire, emit); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("FeedInto DATA steady state: %.1f allocs/op, want 0", allocs)
	}
}
