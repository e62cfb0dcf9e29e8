// Package h2 implements the part of the HTTP/2 wire protocol
// (RFC 7540) and HPACK header compression (RFC 7541) that the
// simulated sessions exchange, from scratch on top of the standard
// library only.
//
// The package provides two layers:
//
//   - Framing: FrameHeader, the five frame types the sessions send
//     (DATA, HEADERS, RST_STREAM, SETTINGS, PUSH_PROMISE), AppendFrame
//     for encoding, and FrameScanner, which splits a byte stream fed in
//     arbitrary chunks into those frames through one path (FeedInto).
//     Frames travel as wire.Bytes: a DATA payload is a zero run given
//     by its length (DataFrame carries Len, not bytes), so neither
//     AppendFrame nor the scanner ever copies one; headers and the
//     control frames' payloads are literal bytes. Other frame types
//     are consumed and skipped; padding, priority fields and
//     CONTINUATION-split header blocks are refused rather than
//     decoded.
//   - HPACK: HpackEncoder and HpackDecoder with the full static table,
//     a dynamic table, and canonical Huffman coding. The encoder emits
//     indexed and incrementally indexed literal representations; the
//     decoder accepts every RFC 7541 representation.
//
// The discrete-event simulation endpoints in internal/h2sim build
// their sessions on these two layers, so the bytes on the simulated
// wire are genuine RFC 7540 frames carrying RFC 7541 header blocks.
// Stream lifecycle and flow control are the endpoints' business:
// h2sim tracks its own streams and advertises a window large enough
// that flow control never binds.
package h2

import (
	"errors"
	"fmt"
)

// ErrCode is an HTTP/2 error code as defined in RFC 7540 section 7.
// Error codes appear in RST_STREAM and GOAWAY frames.
type ErrCode uint32

// HTTP/2 error codes (RFC 7540 section 7).
const (
	ErrCodeNo                 ErrCode = 0x0
	ErrCodeProtocol           ErrCode = 0x1
	ErrCodeInternal           ErrCode = 0x2
	ErrCodeFlowControl        ErrCode = 0x3
	ErrCodeSettingsTimeout    ErrCode = 0x4
	ErrCodeStreamClosed       ErrCode = 0x5
	ErrCodeFrameSize          ErrCode = 0x6
	ErrCodeRefusedStream      ErrCode = 0x7
	ErrCodeCancel             ErrCode = 0x8
	ErrCodeCompression        ErrCode = 0x9
	ErrCodeConnect            ErrCode = 0xa
	ErrCodeEnhanceYourCalm    ErrCode = 0xb
	ErrCodeInadequateSecurity ErrCode = 0xc
	ErrCodeHTTP11Required     ErrCode = 0xd
)

var errCodeNames = map[ErrCode]string{
	ErrCodeNo:                 "NO_ERROR",
	ErrCodeProtocol:           "PROTOCOL_ERROR",
	ErrCodeInternal:           "INTERNAL_ERROR",
	ErrCodeFlowControl:        "FLOW_CONTROL_ERROR",
	ErrCodeSettingsTimeout:    "SETTINGS_TIMEOUT",
	ErrCodeStreamClosed:       "STREAM_CLOSED",
	ErrCodeFrameSize:          "FRAME_SIZE_ERROR",
	ErrCodeRefusedStream:      "REFUSED_STREAM",
	ErrCodeCancel:             "CANCEL",
	ErrCodeCompression:        "COMPRESSION_ERROR",
	ErrCodeConnect:            "CONNECT_ERROR",
	ErrCodeEnhanceYourCalm:    "ENHANCE_YOUR_CALM",
	ErrCodeInadequateSecurity: "INADEQUATE_SECURITY",
	ErrCodeHTTP11Required:     "HTTP_1_1_REQUIRED",
}

// String returns the RFC 7540 name of the error code, or a hex value
// for unknown codes.
func (e ErrCode) String() string {
	if s, ok := errCodeNames[e]; ok {
		return s
	}
	return fmt.Sprintf("ERR_CODE_0x%x", uint32(e))
}

// ConnectionError is a connection-level protocol error (RFC 7540
// section 5.4.1). A ConnectionError requires the endpoint to send a
// GOAWAY frame and close the connection.
type ConnectionError struct {
	Code   ErrCode
	Reason string
}

// Error implements the error interface.
func (e ConnectionError) Error() string {
	if e.Reason == "" {
		return fmt.Sprintf("h2: connection error: %s", e.Code)
	}
	return fmt.Sprintf("h2: connection error: %s: %s", e.Code, e.Reason)
}

// ErrFrameTooLarge is returned by the frame scanner when a frame's
// payload exceeds DefaultMaxFrameSize.
var ErrFrameTooLarge = errors.New("h2: frame too large")
