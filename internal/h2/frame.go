package h2

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/wire"
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

	// appendPayload appends the frame's payload encoding to b. It
	// must append exactly Header().Length bytes.
	appendPayload(b *wire.Bytes)
}

// DataFrame carries stream payload bytes (RFC 7540 section 6.1). Only
// their number is modelled: a payload's content never matters to the
// size side-channel, so it travels as a zero run of Len bytes.
type DataFrame struct {
	StreamID  uint32
	EndStream bool
	Len       int
}

// Header implements Frame.
func (f *DataFrame) Header() FrameHeader {
	var flags Flags
	if f.EndStream {
		flags |= FlagEndStream
	}
	return FrameHeader{Length: uint32(f.Len), Type: FrameData, Flags: flags, StreamID: f.StreamID}
}

func (f *DataFrame) appendPayload(b *wire.Bytes) { b.AppendZeros(f.Len) }

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

func (f *HeadersFrame) appendPayload(b *wire.Bytes) { b.AppendLiteral(f.BlockFragment) }

// RSTStreamFrame abruptly terminates a stream (RFC 7540 section 6.4).
type RSTStreamFrame struct {
	StreamID uint32
	Code     ErrCode
}

// Header implements Frame.
func (f *RSTStreamFrame) Header() FrameHeader {
	return FrameHeader{Length: 4, Type: FrameRSTStream, StreamID: f.StreamID}
}

func (f *RSTStreamFrame) appendPayload(b *wire.Bytes) {
	var p [4]byte
	b.AppendLiteral(binary.BigEndian.AppendUint32(p[:0], uint32(f.Code)))
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

func (f *SettingsFrame) appendPayload(b *wire.Bytes) {
	for _, s := range f.Settings {
		var p [6]byte
		binary.BigEndian.PutUint16(p[:], uint16(s.ID))
		binary.BigEndian.PutUint32(p[2:], s.Val)
		b.AppendLiteral(p[:])
	}
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

func (f *PushPromiseFrame) appendPayload(b *wire.Bytes) {
	var p [4]byte
	b.AppendLiteral(binary.BigEndian.AppendUint32(p[:0], f.PromiseID&0x7fffffff))
	b.AppendLiteral(f.BlockFragment)
}

// AppendFrame appends the full wire encoding (header + payload) of f
// to b: the header as literal bytes, a DATA payload as a zero run and
// any other payload as literal bytes.
func AppendFrame(b *wire.Bytes, f Frame) {
	var hdr [FrameHeaderLen]byte
	h := appendFrameHeader(hdr[:0], f.Header())
	if d, ok := f.(*DataFrame); ok {
		b.AppendPiece(h, d.Len) // the header and the payload run in one step
		return
	}
	b.AppendLiteral(h)
	f.appendPayload(b)
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
//
// The scanner keeps the current frame's header and, for the four
// decoded control types, its small payload as plain bytes; a DATA
// payload, and that of a skipped type, it consumes by length alone.
type FrameScanner struct {
	hdr  [FrameHeaderLen]byte // the current frame's header, nhdr bytes of it so far
	nhdr int
	h    FrameHeader // the current frame's header, once whole
	got  int         // payload bytes of the current frame consumed so far
	body []byte      // the current control frame's payload, got bytes of it
	err  error

	// Scratch values, one per decoded frame type, so steady-state
	// scanning allocates nothing.
	data     DataFrame
	headers  HeadersFrame
	rst      RSTStreamFrame
	settings SettingsFrame
	push     PushPromiseFrame
}

// Reset discards the partial frame and any error so the scanner can
// start a fresh stream, keeping the payload buffer's capacity and the
// scratch frames.
func (sc *FrameScanner) Reset() {
	sc.nhdr, sc.got, sc.err = 0, 0, nil
}

// Buffered returns the number of bytes of the frame not yet complete.
func (sc *FrameScanner) Buffered() int { return sc.nhdr + sc.got }

// FeedInto consumes stream bytes and invokes emit once per newly
// complete frame of a decoded type, in order. The first error (emit's
// or the scanner's) stops the scan for good: FeedInto returns it, now
// and from every later call until Reset. The frame passed to emit is a
// scratch value reused across calls, valid only during the callback.
// In steady state scanning costs zero allocations, which is what the
// HTTP/2 session layers ride.
func (sc *FrameScanner) FeedInto(b wire.Bytes, emit func(Frame) error) error {
	for pos := 0; sc.err == nil; {
		if sc.nhdr < FrameHeaderLen {
			n := b.ReadAt(sc.hdr[sc.nhdr:], pos)
			sc.nhdr += n
			pos += n
			if sc.nhdr < FrameHeaderLen {
				return nil
			}
			sc.h = parseFrameHeader(sc.hdr[:])
			if sc.h.Length > DefaultMaxFrameSize {
				sc.err = fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, sc.h.Length, DefaultMaxFrameSize)
				break
			}
			sc.body = sc.body[:0]
		}
		n := min(int(sc.h.Length)-sc.got, b.Len()-pos)
		switch sc.h.Type {
		case FrameHeaders, FrameRSTStream, FrameSettings, FramePushPromise:
			sc.body = slices.Grow(sc.body, n)[:sc.got+n]
			b.ReadAt(sc.body[sc.got:], pos)
		}
		sc.got += n
		pos += n
		if sc.got < int(sc.h.Length) {
			return nil
		}
		sc.nhdr, sc.got = 0, 0
		if f, err := sc.parse(); err != nil {
			sc.err = err
		} else if f != nil {
			sc.err = emit(f)
		}
	}
	return sc.err
}

// parse decodes the complete current frame; a type the sessions never
// send yields no frame.
func (sc *FrameScanner) parse() (Frame, error) {
	switch h, payload := sc.h, sc.body; h.Type {
	case FrameData:
		return sc.parseData(h)
	case FrameHeaders:
		return sc.parseHeaders(h, payload)
	case FrameRSTStream:
		return sc.parseRSTStream(h, payload)
	case FrameSettings:
		return sc.parseSettings(h, payload)
	case FramePushPromise:
		return sc.parsePushPromise(h, payload)
	}
	return nil, nil
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

func (sc *FrameScanner) parseData(h FrameHeader) (Frame, error) {
	if err := checkStream(h, FlagPadded); err != nil {
		return nil, err
	}
	sc.data = DataFrame{StreamID: h.StreamID, EndStream: h.Flags.Has(FlagEndStream), Len: int(h.Length)}
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
