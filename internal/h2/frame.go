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
	// PUSH_PROMISE).
	FlagPadded Flags = 0x8

	// FlagPriority indicates the HEADERS frame carries priority
	// information.
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

// Frame is the interface implemented by all decoded HTTP/2 frames.
type Frame interface {
	// Header returns the frame's header.
	Header() FrameHeader

	// appendPayload appends the frame's payload encoding to b and
	// returns the extended slice. It must produce exactly
	// Header().Length bytes.
	appendPayload(b []byte) []byte
}

// PriorityParam carries the stream dependency fields of PRIORITY and
// HEADERS frames (RFC 7540 section 5.3).
type PriorityParam struct {
	// StreamDep is the stream this stream depends on.
	StreamDep uint32

	// Exclusive marks the dependency as exclusive.
	Exclusive bool

	// Weight is the dependency weight minus one (0..255 encodes
	// weights 1..256).
	Weight uint8
}

// DataFrame carries stream payload bytes (RFC 7540 section 6.1).
type DataFrame struct {
	StreamID  uint32
	EndStream bool
	Data      []byte
	PadLength uint8
	Padded    bool
}

// Header implements Frame.
func (f *DataFrame) Header() FrameHeader {
	var flags Flags
	length := uint32(len(f.Data))
	if f.EndStream {
		flags |= FlagEndStream
	}
	if f.Padded {
		flags |= FlagPadded
		length += 1 + uint32(f.PadLength)
	}
	return FrameHeader{Length: length, Type: FrameData, Flags: flags, StreamID: f.StreamID}
}

func (f *DataFrame) appendPayload(b []byte) []byte {
	if f.Padded {
		b = append(b, f.PadLength)
	}
	b = append(b, f.Data...)
	if f.Padded {
		b = append(b, make([]byte, f.PadLength)...)
	}
	return b
}

// HeadersFrame opens a stream and carries an HPACK-encoded header
// block fragment (RFC 7540 section 6.2).
type HeadersFrame struct {
	StreamID      uint32
	EndStream     bool
	EndHeaders    bool
	BlockFragment []byte
	Priority      PriorityParam
	HasPriority   bool
	PadLength     uint8
	Padded        bool
}

// Header implements Frame.
func (f *HeadersFrame) Header() FrameHeader {
	var flags Flags
	length := uint32(len(f.BlockFragment))
	if f.EndStream {
		flags |= FlagEndStream
	}
	if f.EndHeaders {
		flags |= FlagEndHeaders
	}
	if f.HasPriority {
		flags |= FlagPriority
		length += 5
	}
	if f.Padded {
		flags |= FlagPadded
		length += 1 + uint32(f.PadLength)
	}
	return FrameHeader{Length: length, Type: FrameHeaders, Flags: flags, StreamID: f.StreamID}
}

func (f *HeadersFrame) appendPayload(b []byte) []byte {
	if f.Padded {
		b = append(b, f.PadLength)
	}
	if f.HasPriority {
		dep := f.Priority.StreamDep & 0x7fffffff
		if f.Priority.Exclusive {
			dep |= 1 << 31
		}
		b = binary.BigEndian.AppendUint32(b, dep)
		b = append(b, f.Priority.Weight)
	}
	b = append(b, f.BlockFragment...)
	if f.Padded {
		b = append(b, make([]byte, f.PadLength)...)
	}
	return b
}

// PriorityFrame reprioritizes a stream (RFC 7540 section 6.3).
type PriorityFrame struct {
	StreamID uint32
	Priority PriorityParam
}

// Header implements Frame.
func (f *PriorityFrame) Header() FrameHeader {
	return FrameHeader{Length: 5, Type: FramePriority, StreamID: f.StreamID}
}

func (f *PriorityFrame) appendPayload(b []byte) []byte {
	dep := f.Priority.StreamDep & 0x7fffffff
	if f.Priority.Exclusive {
		dep |= 1 << 31
	}
	b = binary.BigEndian.AppendUint32(b, dep)
	return append(b, f.Priority.Weight)
}

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

// Value returns the value of the given setting and whether it was
// present in the frame. The last occurrence wins, per RFC 7540
// section 6.5.3.
func (f *SettingsFrame) Value(id SettingID) (uint32, bool) {
	var (
		val   uint32
		found bool
	)
	for _, s := range f.Settings {
		if s.ID == id {
			val, found = s.Val, true
		}
	}
	return val, found
}

// PushPromiseFrame announces a server push (RFC 7540 section 6.6).
type PushPromiseFrame struct {
	StreamID      uint32
	PromiseID     uint32
	EndHeaders    bool
	BlockFragment []byte
	PadLength     uint8
	Padded        bool
}

// Header implements Frame.
func (f *PushPromiseFrame) Header() FrameHeader {
	var flags Flags
	length := uint32(4 + len(f.BlockFragment))
	if f.EndHeaders {
		flags |= FlagEndHeaders
	}
	if f.Padded {
		flags |= FlagPadded
		length += 1 + uint32(f.PadLength)
	}
	return FrameHeader{Length: length, Type: FramePushPromise, Flags: flags, StreamID: f.StreamID}
}

func (f *PushPromiseFrame) appendPayload(b []byte) []byte {
	if f.Padded {
		b = append(b, f.PadLength)
	}
	b = binary.BigEndian.AppendUint32(b, f.PromiseID&0x7fffffff)
	b = append(b, f.BlockFragment...)
	if f.Padded {
		b = append(b, make([]byte, f.PadLength)...)
	}
	return b
}

// PingFrame measures round-trip time or checks liveness (RFC 7540
// section 6.7).
type PingFrame struct {
	Ack  bool
	Data [8]byte
}

// Header implements Frame.
func (f *PingFrame) Header() FrameHeader {
	var flags Flags
	if f.Ack {
		flags |= FlagAck
	}
	return FrameHeader{Length: 8, Type: FramePing, Flags: flags}
}

func (f *PingFrame) appendPayload(b []byte) []byte { return append(b, f.Data[:]...) }

// GoAwayFrame initiates connection shutdown (RFC 7540 section 6.8).
type GoAwayFrame struct {
	LastStreamID uint32
	Code         ErrCode
	DebugData    []byte
}

// Header implements Frame.
func (f *GoAwayFrame) Header() FrameHeader {
	return FrameHeader{Length: uint32(8 + len(f.DebugData)), Type: FrameGoAway}
}

func (f *GoAwayFrame) appendPayload(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, f.LastStreamID&0x7fffffff)
	b = binary.BigEndian.AppendUint32(b, uint32(f.Code))
	return append(b, f.DebugData...)
}

// WindowUpdateFrame replenishes a flow-control window (RFC 7540
// section 6.9). StreamID zero updates the connection window.
type WindowUpdateFrame struct {
	StreamID  uint32
	Increment uint32
}

// Header implements Frame.
func (f *WindowUpdateFrame) Header() FrameHeader {
	return FrameHeader{Length: 4, Type: FrameWindowUpdate, StreamID: f.StreamID}
}

func (f *WindowUpdateFrame) appendPayload(b []byte) []byte {
	return binary.BigEndian.AppendUint32(b, f.Increment&0x7fffffff)
}

// ContinuationFrame continues a header block started by HEADERS or
// PUSH_PROMISE (RFC 7540 section 6.10).
type ContinuationFrame struct {
	StreamID      uint32
	EndHeaders    bool
	BlockFragment []byte
}

// Header implements Frame.
func (f *ContinuationFrame) Header() FrameHeader {
	var flags Flags
	if f.EndHeaders {
		flags |= FlagEndHeaders
	}
	return FrameHeader{Length: uint32(len(f.BlockFragment)), Type: FrameContinuation, Flags: flags, StreamID: f.StreamID}
}

func (f *ContinuationFrame) appendPayload(b []byte) []byte { return append(b, f.BlockFragment...) }

// UnknownFrame preserves frames with an unrecognized type so they can
// be ignored but re-serialized (RFC 7540 requires ignoring unknown
// types).
type UnknownFrame struct {
	FH      FrameHeader
	Payload []byte
}

// Header implements Frame.
func (f *UnknownFrame) Header() FrameHeader {
	h := f.FH
	h.Length = uint32(len(f.Payload))
	return h
}

func (f *UnknownFrame) appendPayload(b []byte) []byte { return append(b, f.Payload...) }

// Interface compliance checks.
var (
	_ Frame = (*DataFrame)(nil)
	_ Frame = (*HeadersFrame)(nil)
	_ Frame = (*PriorityFrame)(nil)
	_ Frame = (*RSTStreamFrame)(nil)
	_ Frame = (*SettingsFrame)(nil)
	_ Frame = (*PushPromiseFrame)(nil)
	_ Frame = (*PingFrame)(nil)
	_ Frame = (*GoAwayFrame)(nil)
	_ Frame = (*WindowUpdateFrame)(nil)
	_ Frame = (*ContinuationFrame)(nil)
	_ Frame = (*UnknownFrame)(nil)
)

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

// ParseFramePayload decodes a frame payload given its already-parsed
// header. The returned frame aliases payload.
func ParseFramePayload(h FrameHeader, payload []byte) (Frame, error) {
	if int(h.Length) != len(payload) {
		return nil, ConnectionError{Code: ErrCodeFrameSize, Reason: "payload length mismatch"}
	}
	switch h.Type {
	case FrameData:
		return parseDataFrame(h, payload)
	case FrameHeaders:
		return parseHeadersFrame(h, payload)
	case FramePriority:
		return parsePriorityFrame(h, payload)
	case FrameRSTStream:
		return parseRSTStreamFrame(h, payload)
	case FrameSettings:
		return parseSettingsFrame(h, payload)
	case FramePushPromise:
		return parsePushPromiseFrame(h, payload)
	case FramePing:
		return parsePingFrame(h, payload)
	case FrameGoAway:
		return parseGoAwayFrame(h, payload)
	case FrameWindowUpdate:
		return parseWindowUpdateFrame(h, payload)
	case FrameContinuation:
		return parseContinuationFrame(h, payload)
	default:
		return &UnknownFrame{FH: h, Payload: payload}, nil
	}
}

// FrameScanner incrementally splits a byte stream into frames: feed
// it arbitrary chunks and complete frames come out.
type FrameScanner struct {
	buf []byte
	off int // parse position within buf

	// MaxFrameSize caps accepted payload lengths; zero means
	// DefaultMaxFrameSize.
	MaxFrameSize uint32

	// FeedInto scratch values, one per frame type the simulated
	// sessions exchange, so steady-state scanning allocates nothing.
	data     DataFrame
	headers  HeadersFrame
	rst      RSTStreamFrame
	settings SettingsFrame
	push     PushPromiseFrame
}

// Reset discards buffered partial-frame bytes so the scanner can
// start a fresh stream, keeping the buffer capacity and scratch
// frames. MaxFrameSize is preserved.
func (sc *FrameScanner) Reset() {
	sc.buf = sc.buf[:0]
	sc.off = 0
}

func (sc *FrameScanner) maxSize() uint32 {
	if sc.MaxFrameSize == 0 {
		return DefaultMaxFrameSize
	}
	return sc.MaxFrameSize
}

// ingest compacts the consumed prefix and appends the new bytes, so
// the buffer's backing array is recycled instead of growing behind an
// advancing offset.
func (sc *FrameScanner) ingest(b []byte) {
	if sc.off > 0 {
		n := copy(sc.buf, sc.buf[sc.off:])
		sc.buf = sc.buf[:n]
		sc.off = 0
	}
	sc.buf = append(sc.buf, b...)
}

// next parses the header of the next complete buffered frame. ok is
// false when more bytes are needed.
func (sc *FrameScanner) next() (h FrameHeader, ok bool, err error) {
	if len(sc.buf)-sc.off < FrameHeaderLen {
		return h, false, nil
	}
	h = parseFrameHeader(sc.buf[sc.off:])
	if h.Length > sc.maxSize() {
		return h, false, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, h.Length, sc.maxSize())
	}
	if len(sc.buf)-sc.off < FrameHeaderLen+int(h.Length) {
		return h, false, nil
	}
	return h, true, nil
}

// Feed appends stream bytes and returns all newly complete frames.
// Returned frames own their memory (safe to retain). For the
// allocation-free variant see FeedInto.
func (sc *FrameScanner) Feed(b []byte) ([]Frame, error) {
	sc.ingest(b)
	var out []Frame
	for {
		h, ok, err := sc.next()
		if err != nil || !ok {
			return out, err
		}
		start := sc.off + FrameHeaderLen
		payload := make([]byte, h.Length)
		copy(payload, sc.buf[start:start+int(h.Length)])
		sc.off = start + int(h.Length)
		f, err := ParseFramePayload(h, payload)
		if err != nil {
			return out, err
		}
		out = append(out, f)
	}
}

// FeedInto appends stream bytes and invokes emit once per newly
// complete frame, in order, stopping at the first error (emit's or
// the scanner's). Unlike Feed it does not copy payloads: the frame
// passed to emit aliases the scanner's buffer — and for the frame
// types the simulated sessions exchange (DATA, HEADERS, RST_STREAM,
// SETTINGS, PUSH_PROMISE) is itself a scratch value reused across
// calls — so it is valid only during the callback. In steady state
// those frame types cost zero allocations, which is what the HTTP/2
// session layers ride.
func (sc *FrameScanner) FeedInto(b []byte, emit func(Frame) error) error {
	sc.ingest(b)
	for {
		h, ok, err := sc.next()
		if err != nil || !ok {
			return err
		}
		start := sc.off + FrameHeaderLen
		payload := sc.buf[start : start+int(h.Length)]
		sc.off = start + int(h.Length)
		var f Frame
		switch h.Type {
		case FrameData:
			// Mirror parseDataFrame into the scratch frame.
			if h.StreamID == 0 {
				return ConnectionError{Code: ErrCodeProtocol, Reason: "DATA on stream 0"}
			}
			body, padLen, err := stripPadding(h, payload)
			if err != nil {
				return err
			}
			sc.data = DataFrame{
				StreamID:  h.StreamID,
				EndStream: h.Flags.Has(FlagEndStream),
				Data:      body,
				PadLength: padLen,
				Padded:    h.Flags.Has(FlagPadded),
			}
			f = &sc.data
		case FrameHeaders:
			// Mirror parseHeadersFrame.
			if h.StreamID == 0 {
				return ConnectionError{Code: ErrCodeProtocol, Reason: "HEADERS on stream 0"}
			}
			body, padLen, err := stripPadding(h, payload)
			if err != nil {
				return err
			}
			sc.headers = HeadersFrame{
				StreamID:   h.StreamID,
				EndStream:  h.Flags.Has(FlagEndStream),
				EndHeaders: h.Flags.Has(FlagEndHeaders),
				PadLength:  padLen,
				Padded:     h.Flags.Has(FlagPadded),
			}
			if h.Flags.Has(FlagPriority) {
				if len(body) < 5 {
					return ConnectionError{Code: ErrCodeFrameSize, Reason: "HEADERS priority fields truncated"}
				}
				dep := binary.BigEndian.Uint32(body[:4])
				sc.headers.HasPriority = true
				sc.headers.Priority = PriorityParam{
					StreamDep: dep & 0x7fffffff,
					Exclusive: dep>>31 == 1,
					Weight:    body[4],
				}
				body = body[5:]
			}
			sc.headers.BlockFragment = body
			f = &sc.headers
		case FrameRSTStream:
			// Mirror parseRSTStreamFrame.
			if h.StreamID == 0 {
				return ConnectionError{Code: ErrCodeProtocol, Reason: "RST_STREAM on stream 0"}
			}
			if len(payload) != 4 {
				return ConnectionError{Code: ErrCodeFrameSize, Reason: "RST_STREAM length != 4"}
			}
			sc.rst = RSTStreamFrame{StreamID: h.StreamID, Code: ErrCode(binary.BigEndian.Uint32(payload))}
			f = &sc.rst
		case FrameSettings:
			// Mirror parseSettingsFrame, reusing the Settings slice.
			if h.StreamID != 0 {
				return ConnectionError{Code: ErrCodeProtocol, Reason: "SETTINGS on nonzero stream"}
			}
			if h.Flags.Has(FlagAck) && len(payload) != 0 {
				return ConnectionError{Code: ErrCodeFrameSize, Reason: "SETTINGS ack with payload"}
			}
			if len(payload)%6 != 0 {
				return ConnectionError{Code: ErrCodeFrameSize, Reason: "SETTINGS length not multiple of 6"}
			}
			sc.settings.Ack = h.Flags.Has(FlagAck)
			sc.settings.Settings = sc.settings.Settings[:0]
			for i := 0; i < len(payload); i += 6 {
				s := Setting{
					ID:  SettingID(binary.BigEndian.Uint16(payload[i : i+2])),
					Val: binary.BigEndian.Uint32(payload[i+2 : i+6]),
				}
				if err := s.Valid(); err != nil {
					return err
				}
				sc.settings.Settings = append(sc.settings.Settings, s)
			}
			f = &sc.settings
		case FramePushPromise:
			// Mirror parsePushPromiseFrame.
			if h.StreamID == 0 {
				return ConnectionError{Code: ErrCodeProtocol, Reason: "PUSH_PROMISE on stream 0"}
			}
			body, padLen, err := stripPadding(h, payload)
			if err != nil {
				return err
			}
			if len(body) < 4 {
				return ConnectionError{Code: ErrCodeFrameSize, Reason: "PUSH_PROMISE truncated"}
			}
			sc.push = PushPromiseFrame{
				StreamID:      h.StreamID,
				PromiseID:     binary.BigEndian.Uint32(body[:4]) & 0x7fffffff,
				EndHeaders:    h.Flags.Has(FlagEndHeaders),
				BlockFragment: body[4:],
				PadLength:     padLen,
				Padded:        h.Flags.Has(FlagPadded),
			}
			f = &sc.push
		default:
			f, err = ParseFramePayload(h, payload)
			if err != nil {
				return err
			}
		}
		if err := emit(f); err != nil {
			return err
		}
	}
}

// Buffered returns the number of bytes awaiting a complete frame.
func (sc *FrameScanner) Buffered() int { return len(sc.buf) - sc.off }

// stripPadding removes the pad-length octet and trailing padding from
// a padded payload.
func stripPadding(h FrameHeader, payload []byte) (body []byte, padLen uint8, err error) {
	if !h.Flags.Has(FlagPadded) {
		return payload, 0, nil
	}
	if len(payload) < 1 {
		return nil, 0, ConnectionError{Code: ErrCodeFrameSize, Reason: "padded frame too short"}
	}
	padLen = payload[0]
	body = payload[1:]
	if int(padLen) >= len(body)+1 {
		// RFC 7540 6.1: padding >= remaining payload is a protocol error.
		return nil, 0, ConnectionError{Code: ErrCodeProtocol, Reason: "padding exceeds payload"}
	}
	return body[:len(body)-int(padLen)], padLen, nil
}

func parseDataFrame(h FrameHeader, payload []byte) (Frame, error) {
	if h.StreamID == 0 {
		return nil, ConnectionError{Code: ErrCodeProtocol, Reason: "DATA on stream 0"}
	}
	body, padLen, err := stripPadding(h, payload)
	if err != nil {
		return nil, err
	}
	return &DataFrame{
		StreamID:  h.StreamID,
		EndStream: h.Flags.Has(FlagEndStream),
		Data:      body,
		PadLength: padLen,
		Padded:    h.Flags.Has(FlagPadded),
	}, nil
}

func parseHeadersFrame(h FrameHeader, payload []byte) (Frame, error) {
	if h.StreamID == 0 {
		return nil, ConnectionError{Code: ErrCodeProtocol, Reason: "HEADERS on stream 0"}
	}
	body, padLen, err := stripPadding(h, payload)
	if err != nil {
		return nil, err
	}
	f := &HeadersFrame{
		StreamID:   h.StreamID,
		EndStream:  h.Flags.Has(FlagEndStream),
		EndHeaders: h.Flags.Has(FlagEndHeaders),
		PadLength:  padLen,
		Padded:     h.Flags.Has(FlagPadded),
	}
	if h.Flags.Has(FlagPriority) {
		if len(body) < 5 {
			return nil, ConnectionError{Code: ErrCodeFrameSize, Reason: "HEADERS priority fields truncated"}
		}
		dep := binary.BigEndian.Uint32(body[:4])
		f.HasPriority = true
		f.Priority = PriorityParam{
			StreamDep: dep & 0x7fffffff,
			Exclusive: dep>>31 == 1,
			Weight:    body[4],
		}
		body = body[5:]
	}
	f.BlockFragment = body
	return f, nil
}

func parsePriorityFrame(h FrameHeader, payload []byte) (Frame, error) {
	if h.StreamID == 0 {
		return nil, ConnectionError{Code: ErrCodeProtocol, Reason: "PRIORITY on stream 0"}
	}
	if len(payload) != 5 {
		return nil, StreamError{StreamID: h.StreamID, Code: ErrCodeFrameSize, Reason: "PRIORITY length != 5"}
	}
	dep := binary.BigEndian.Uint32(payload[:4])
	return &PriorityFrame{
		StreamID: h.StreamID,
		Priority: PriorityParam{
			StreamDep: dep & 0x7fffffff,
			Exclusive: dep>>31 == 1,
			Weight:    payload[4],
		},
	}, nil
}

func parseRSTStreamFrame(h FrameHeader, payload []byte) (Frame, error) {
	if h.StreamID == 0 {
		return nil, ConnectionError{Code: ErrCodeProtocol, Reason: "RST_STREAM on stream 0"}
	}
	if len(payload) != 4 {
		return nil, ConnectionError{Code: ErrCodeFrameSize, Reason: "RST_STREAM length != 4"}
	}
	return &RSTStreamFrame{StreamID: h.StreamID, Code: ErrCode(binary.BigEndian.Uint32(payload))}, nil
}

func parseSettingsFrame(h FrameHeader, payload []byte) (Frame, error) {
	if h.StreamID != 0 {
		return nil, ConnectionError{Code: ErrCodeProtocol, Reason: "SETTINGS on nonzero stream"}
	}
	if h.Flags.Has(FlagAck) && len(payload) != 0 {
		return nil, ConnectionError{Code: ErrCodeFrameSize, Reason: "SETTINGS ack with payload"}
	}
	if len(payload)%6 != 0 {
		return nil, ConnectionError{Code: ErrCodeFrameSize, Reason: "SETTINGS length not multiple of 6"}
	}
	f := &SettingsFrame{Ack: h.Flags.Has(FlagAck)}
	for i := 0; i < len(payload); i += 6 {
		s := Setting{
			ID:  SettingID(binary.BigEndian.Uint16(payload[i : i+2])),
			Val: binary.BigEndian.Uint32(payload[i+2 : i+6]),
		}
		if err := s.Valid(); err != nil {
			return nil, err
		}
		f.Settings = append(f.Settings, s)
	}
	return f, nil
}

func parsePushPromiseFrame(h FrameHeader, payload []byte) (Frame, error) {
	if h.StreamID == 0 {
		return nil, ConnectionError{Code: ErrCodeProtocol, Reason: "PUSH_PROMISE on stream 0"}
	}
	body, padLen, err := stripPadding(h, payload)
	if err != nil {
		return nil, err
	}
	if len(body) < 4 {
		return nil, ConnectionError{Code: ErrCodeFrameSize, Reason: "PUSH_PROMISE truncated"}
	}
	return &PushPromiseFrame{
		StreamID:      h.StreamID,
		PromiseID:     binary.BigEndian.Uint32(body[:4]) & 0x7fffffff,
		EndHeaders:    h.Flags.Has(FlagEndHeaders),
		BlockFragment: body[4:],
		PadLength:     padLen,
		Padded:        h.Flags.Has(FlagPadded),
	}, nil
}

func parsePingFrame(h FrameHeader, payload []byte) (Frame, error) {
	if h.StreamID != 0 {
		return nil, ConnectionError{Code: ErrCodeProtocol, Reason: "PING on nonzero stream"}
	}
	if len(payload) != 8 {
		return nil, ConnectionError{Code: ErrCodeFrameSize, Reason: "PING length != 8"}
	}
	f := &PingFrame{Ack: h.Flags.Has(FlagAck)}
	copy(f.Data[:], payload)
	return f, nil
}

func parseGoAwayFrame(h FrameHeader, payload []byte) (Frame, error) {
	if h.StreamID != 0 {
		return nil, ConnectionError{Code: ErrCodeProtocol, Reason: "GOAWAY on nonzero stream"}
	}
	if len(payload) < 8 {
		return nil, ConnectionError{Code: ErrCodeFrameSize, Reason: "GOAWAY truncated"}
	}
	return &GoAwayFrame{
		LastStreamID: binary.BigEndian.Uint32(payload[:4]) & 0x7fffffff,
		Code:         ErrCode(binary.BigEndian.Uint32(payload[4:8])),
		DebugData:    payload[8:],
	}, nil
}

func parseWindowUpdateFrame(h FrameHeader, payload []byte) (Frame, error) {
	if len(payload) != 4 {
		return nil, ConnectionError{Code: ErrCodeFrameSize, Reason: "WINDOW_UPDATE length != 4"}
	}
	inc := binary.BigEndian.Uint32(payload) & 0x7fffffff
	if inc == 0 {
		if h.StreamID == 0 {
			return nil, ConnectionError{Code: ErrCodeProtocol, Reason: "WINDOW_UPDATE increment 0"}
		}
		return nil, StreamError{StreamID: h.StreamID, Code: ErrCodeProtocol, Reason: "WINDOW_UPDATE increment 0"}
	}
	return &WindowUpdateFrame{StreamID: h.StreamID, Increment: inc}, nil
}

func parseContinuationFrame(h FrameHeader, payload []byte) (Frame, error) {
	if h.StreamID == 0 {
		return nil, ConnectionError{Code: ErrCodeProtocol, Reason: "CONTINUATION on stream 0"}
	}
	return &ContinuationFrame{
		StreamID:      h.StreamID,
		EndHeaders:    h.Flags.Has(FlagEndHeaders),
		BlockFragment: payload,
	}, nil
}
