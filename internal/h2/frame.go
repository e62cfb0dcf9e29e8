package h2

import (
	"encoding/binary"
	"fmt"
)

// Frame size constants from RFC 7540 section 4.2.
const (
	// FrameHeaderLen is the fixed length of an HTTP/2 frame header.
	FrameHeaderLen = 9

	// DefaultMaxFrameSize is the initial value of
	// SETTINGS_MAX_FRAME_SIZE.
	DefaultMaxFrameSize = 1 << 14

	// MaxAllowedFrameSize is the largest value SETTINGS_MAX_FRAME_SIZE
	// may take (2^24 - 1).
	MaxAllowedFrameSize = 1<<24 - 1

	// MaxWindowSize is the largest flow-control window permitted
	// (2^31 - 1).
	MaxWindowSize = 1<<31 - 1
)

// FrameType identifies the type octet of an HTTP/2 frame.
type FrameType uint8

// Frame types defined by RFC 7540 section 6.
const (
	FrameData         FrameType = 0x0
	FrameHeaders      FrameType = 0x1
	FramePriority     FrameType = 0x2
	FrameRSTStream    FrameType = 0x3
	FrameSettings     FrameType = 0x4
	FramePushPromise  FrameType = 0x5
	FramePing         FrameType = 0x6
	FrameGoAway       FrameType = 0x7
	FrameWindowUpdate FrameType = 0x8
	FrameContinuation FrameType = 0x9
)

var frameTypeNames = map[FrameType]string{
	FrameData:         "DATA",
	FrameHeaders:      "HEADERS",
	FramePriority:     "PRIORITY",
	FrameRSTStream:    "RST_STREAM",
	FrameSettings:     "SETTINGS",
	FramePushPromise:  "PUSH_PROMISE",
	FramePing:         "PING",
	FrameGoAway:       "GOAWAY",
	FrameWindowUpdate: "WINDOW_UPDATE",
	FrameContinuation: "CONTINUATION",
}

// String returns the RFC 7540 name of the frame type.
func (t FrameType) String() string {
	if s, ok := frameTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("FRAME_TYPE_0x%x", uint8(t))
}

// Flags holds the 8-bit flags field of a frame header. The meaning of
// each bit depends on the frame type.
type Flags uint8

// Has reports whether all bits in f are set in fl.
func (fl Flags) Has(f Flags) bool { return fl&f == f }

// Frame flags defined by RFC 7540 section 6.
const (
	// FlagEndStream marks the last frame of a stream (DATA, HEADERS).
	FlagEndStream Flags = 0x1

	// FlagAck acknowledges a SETTINGS or PING frame.
	FlagAck Flags = 0x1

	// FlagEndHeaders marks the end of a header block (HEADERS,
	// PUSH_PROMISE, CONTINUATION).
	FlagEndHeaders Flags = 0x4

	// FlagPadded indicates the frame carries padding (DATA, HEADERS,
	// PUSH_PROMISE). The scanner refuses it.
	FlagPadded Flags = 0x8

	// FlagPriority indicates the HEADERS frame carries priority
	// information. The scanner refuses it.
	FlagPriority Flags = 0x20
)

// FrameHeader is the 9-octet header that precedes every HTTP/2 frame
// (RFC 7540 section 4.1).
type FrameHeader struct {
	// Length is the length of the frame payload, excluding the header.
	Length uint32

	// Type identifies the frame type.
	Type FrameType

	// Flags holds type-specific boolean flags.
	Flags Flags

	// StreamID identifies the stream the frame belongs to; zero means
	// the connection as a whole.
	StreamID uint32
}

// String returns a compact human-readable rendering of the header.
func (h FrameHeader) String() string {
	return fmt.Sprintf("[%v stream=%d len=%d flags=0x%x]", h.Type, h.StreamID, h.Length, uint8(h.Flags))
}

// WireLen returns the total on-wire size of the frame, header included.
func (h FrameHeader) WireLen() int { return FrameHeaderLen + int(h.Length) }

// appendFrameHeader appends the 9-byte wire encoding of h to b.
func appendFrameHeader(b []byte, h FrameHeader) []byte {
	return append(b,
		byte(h.Length>>16), byte(h.Length>>8), byte(h.Length),
		byte(h.Type),
		byte(h.Flags),
		byte(h.StreamID>>24)&0x7f, byte(h.StreamID>>16), byte(h.StreamID>>8), byte(h.StreamID),
	)
}

// parseFrameHeader decodes a 9-byte wire header. The buffer must hold
// at least FrameHeaderLen bytes.
func parseFrameHeader(buf []byte) FrameHeader {
	return FrameHeader{
		Length:   uint32(buf[0])<<16 | uint32(buf[1])<<8 | uint32(buf[2]),
		Type:     FrameType(buf[3]),
		Flags:    Flags(buf[4]),
		StreamID: binary.BigEndian.Uint32(buf[5:9]) & 0x7fffffff,
	}
}

// Frame is the interface implemented by the five decoded frame types.
type Frame interface {
	// Header returns the frame's header.
	Header() FrameHeader

	// appendPayload appends the frame's payload encoding to b and
	// returns the extended slice. It must produce exactly
	// Header().Length bytes.
	appendPayload(b []byte) []byte
}

// DataFrame carries stream payload bytes (RFC 7540 section 6.1).
type DataFrame struct {
	StreamID  uint32
	EndStream bool
	Data      []byte
}

// Header implements Frame.
func (f *DataFrame) Header() FrameHeader {
	var flags Flags
	if f.EndStream {
		flags |= FlagEndStream
	}
	return FrameHeader{Length: uint32(len(f.Data)), Type: FrameData, Flags: flags, StreamID: f.StreamID}
}

func (f *DataFrame) appendPayload(b []byte) []byte { return append(b, f.Data...) }

// HeadersFrame opens a stream and carries an HPACK-encoded header
// block (RFC 7540 section 6.2).
type HeadersFrame struct {
	StreamID      uint32
	EndStream     bool
	EndHeaders    bool
	BlockFragment []byte
}

// Header implements Frame.
func (f *HeadersFrame) Header() FrameHeader {
	var flags Flags
	if f.EndStream {
		flags |= FlagEndStream
	}
	if f.EndHeaders {
		flags |= FlagEndHeaders
	}
	return FrameHeader{Length: uint32(len(f.BlockFragment)), Type: FrameHeaders, Flags: flags, StreamID: f.StreamID}
}

func (f *HeadersFrame) appendPayload(b []byte) []byte { return append(b, f.BlockFragment...) }

// RSTStreamFrame abruptly terminates a stream (RFC 7540 section 6.4).
type RSTStreamFrame struct {
	StreamID uint32
	Code     ErrCode
}

// Header implements Frame.
func (f *RSTStreamFrame) Header() FrameHeader {
	return FrameHeader{Length: 4, Type: FrameRSTStream, StreamID: f.StreamID}
}

func (f *RSTStreamFrame) appendPayload(b []byte) []byte {
	return binary.BigEndian.AppendUint32(b, uint32(f.Code))
}

// Setting is a single identifier/value pair from a SETTINGS frame.
type Setting struct {
	ID  SettingID
	Val uint32
}

// String renders the setting as NAME=value.
func (s Setting) String() string { return fmt.Sprintf("%v=%d", s.ID, s.Val) }

// SettingsFrame conveys configuration parameters (RFC 7540 section
// 6.5).
type SettingsFrame struct {
	Ack      bool
	Settings []Setting
}

// Header implements Frame.
func (f *SettingsFrame) Header() FrameHeader {
	var flags Flags
	if f.Ack {
		flags |= FlagAck
	}
	return FrameHeader{Length: uint32(6 * len(f.Settings)), Type: FrameSettings, Flags: flags}
}

func (f *SettingsFrame) appendPayload(b []byte) []byte {
	for _, s := range f.Settings {
		b = binary.BigEndian.AppendUint16(b, uint16(s.ID))
		b = binary.BigEndian.AppendUint32(b, s.Val)
	}
	return b
}

// PushPromiseFrame announces a server push (RFC 7540 section 6.6).
type PushPromiseFrame struct {
	StreamID      uint32
	PromiseID     uint32
	EndHeaders    bool
	BlockFragment []byte
}

// Header implements Frame.
func (f *PushPromiseFrame) Header() FrameHeader {
	var flags Flags
	if f.EndHeaders {
		flags |= FlagEndHeaders
	}
	return FrameHeader{Length: uint32(4 + len(f.BlockFragment)), Type: FramePushPromise, Flags: flags, StreamID: f.StreamID}
}

func (f *PushPromiseFrame) appendPayload(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, f.PromiseID&0x7fffffff)
	return append(b, f.BlockFragment...)
}

// AppendFrame appends the full wire encoding (header + payload) of f
// to b and returns the extended slice.
func AppendFrame(b []byte, f Frame) []byte {
	b = appendFrameHeader(b, f.Header())
	return f.appendPayload(b)
}

// MarshalFrame returns the full wire encoding of f.
func MarshalFrame(f Frame) []byte {
	h := f.Header()
	return AppendFrame(make([]byte, 0, h.WireLen()), f)
}

// FrameScanner incrementally splits a byte stream into frames: feed
// it arbitrary chunks and complete frames come out. It decodes the
// five frame types the simulated sessions exchange (DATA, HEADERS,
// RST_STREAM, SETTINGS, PUSH_PROMISE) and consumes every other type
// without emitting it. Features those sessions never use are refused
// with a ConnectionError rather than misparsed: the PADDED and
// PRIORITY flags, and a header block continued in CONTINUATION
// frames (HEADERS or PUSH_PROMISE without END_HEADERS). Payloads
// longer than DefaultMaxFrameSize are refused with ErrFrameTooLarge.
type FrameScanner struct {
	buf []byte
	off int // parse position within buf

	// Scratch values, one per decoded frame type, so steady-state
	// scanning allocates nothing.
	data     DataFrame
	headers  HeadersFrame
	rst      RSTStreamFrame
	settings SettingsFrame
	push     PushPromiseFrame
}

// Reset discards buffered partial-frame bytes so the scanner can
// start a fresh stream, keeping the buffer capacity and scratch
// frames.
func (sc *FrameScanner) Reset() {
	sc.buf = sc.buf[:0]
	sc.off = 0
}

// Buffered returns the number of bytes awaiting a complete frame.
func (sc *FrameScanner) Buffered() int { return len(sc.buf) - sc.off }

// FeedInto appends stream bytes and invokes emit once per newly
// complete frame of a decoded type, in order, stopping at the first
// error (emit's or the scanner's). It does not copy payloads: the
// frame passed to emit is a scratch value reused across calls whose
// slices alias the scanner's buffer, so it is valid only during the
// callback. In steady state scanning costs zero allocations, which is
// what the HTTP/2 session layers ride.
func (sc *FrameScanner) FeedInto(b []byte, emit func(Frame) error) error {
	// Compact the consumed prefix before appending, so the buffer's
	// backing array is recycled instead of growing behind an
	// advancing offset.
	if sc.off > 0 {
		n := copy(sc.buf, sc.buf[sc.off:])
		sc.buf = sc.buf[:n]
		sc.off = 0
	}
	sc.buf = append(sc.buf, b...)
	for len(sc.buf)-sc.off >= FrameHeaderLen {
		h := parseFrameHeader(sc.buf[sc.off:])
		if h.Length > DefaultMaxFrameSize {
			return fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, h.Length, DefaultMaxFrameSize)
		}
		start := sc.off + FrameHeaderLen
		end := start + int(h.Length)
		if len(sc.buf) < end {
			return nil
		}
		sc.off = end
		payload := sc.buf[start:end]
		var f Frame
		var err error
		switch h.Type {
		case FrameData:
			f, err = sc.parseData(h, payload)
		case FrameHeaders:
			f, err = sc.parseHeaders(h, payload)
		case FrameRSTStream:
			f, err = sc.parseRSTStream(h, payload)
		case FrameSettings:
			f, err = sc.parseSettings(h, payload)
		case FramePushPromise:
			f, err = sc.parsePushPromise(h, payload)
		default:
			continue // a type the sessions never send: skip it
		}
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			return err
		}
	}
	return nil
}

// checkStream refuses a stream-scoped frame on stream 0 and the
// frame flags the scanner does not decode.
func checkStream(h FrameHeader, refused Flags) error {
	if h.StreamID == 0 {
		return ConnectionError{Code: ErrCodeProtocol, Reason: fmt.Sprintf("%v on stream 0", h.Type)}
	}
	if h.Flags&refused != 0 {
		return ConnectionError{Code: ErrCodeProtocol, Reason: fmt.Sprintf("%v flags 0x%x not supported", h.Type, uint8(h.Flags&refused))}
	}
	return nil
}

func (sc *FrameScanner) parseData(h FrameHeader, payload []byte) (Frame, error) {
	if err := checkStream(h, FlagPadded); err != nil {
		return nil, err
	}
	sc.data = DataFrame{StreamID: h.StreamID, EndStream: h.Flags.Has(FlagEndStream), Data: payload}
	return &sc.data, nil
}

func (sc *FrameScanner) parseHeaders(h FrameHeader, payload []byte) (Frame, error) {
	if err := checkStream(h, FlagPadded|FlagPriority); err != nil {
		return nil, err
	}
	if !h.Flags.Has(FlagEndHeaders) {
		return nil, ConnectionError{Code: ErrCodeProtocol, Reason: "HEADERS without END_HEADERS not supported"}
	}
	sc.headers = HeadersFrame{
		StreamID:      h.StreamID,
		EndStream:     h.Flags.Has(FlagEndStream),
		EndHeaders:    true,
		BlockFragment: payload,
	}
	return &sc.headers, nil
}

func (sc *FrameScanner) parseRSTStream(h FrameHeader, payload []byte) (Frame, error) {
	if err := checkStream(h, 0); err != nil {
		return nil, err
	}
	if len(payload) != 4 {
		return nil, ConnectionError{Code: ErrCodeFrameSize, Reason: "RST_STREAM length != 4"}
	}
	sc.rst = RSTStreamFrame{StreamID: h.StreamID, Code: ErrCode(binary.BigEndian.Uint32(payload))}
	return &sc.rst, nil
}

// parseSettings reuses the scratch frame's Settings slice.
func (sc *FrameScanner) parseSettings(h FrameHeader, payload []byte) (Frame, error) {
	if h.StreamID != 0 {
		return nil, ConnectionError{Code: ErrCodeProtocol, Reason: "SETTINGS on nonzero stream"}
	}
	if h.Flags.Has(FlagAck) && len(payload) != 0 {
		return nil, ConnectionError{Code: ErrCodeFrameSize, Reason: "SETTINGS ack with payload"}
	}
	if len(payload)%6 != 0 {
		return nil, ConnectionError{Code: ErrCodeFrameSize, Reason: "SETTINGS length not multiple of 6"}
	}
	sc.settings.Ack = h.Flags.Has(FlagAck)
	sc.settings.Settings = sc.settings.Settings[:0]
	for i := 0; i < len(payload); i += 6 {
		s := Setting{
			ID:  SettingID(binary.BigEndian.Uint16(payload[i : i+2])),
			Val: binary.BigEndian.Uint32(payload[i+2 : i+6]),
		}
		if err := s.Valid(); err != nil {
			return nil, err
		}
		sc.settings.Settings = append(sc.settings.Settings, s)
	}
	return &sc.settings, nil
}

func (sc *FrameScanner) parsePushPromise(h FrameHeader, payload []byte) (Frame, error) {
	if err := checkStream(h, FlagPadded); err != nil {
		return nil, err
	}
	if !h.Flags.Has(FlagEndHeaders) {
		return nil, ConnectionError{Code: ErrCodeProtocol, Reason: "PUSH_PROMISE without END_HEADERS not supported"}
	}
	if len(payload) < 4 {
		return nil, ConnectionError{Code: ErrCodeFrameSize, Reason: "PUSH_PROMISE truncated"}
	}
	sc.push = PushPromiseFrame{
		StreamID:      h.StreamID,
		PromiseID:     binary.BigEndian.Uint32(payload[:4]) & 0x7fffffff,
		EndHeaders:    true,
		BlockFragment: payload[4:],
	}
	return &sc.push, nil
}
