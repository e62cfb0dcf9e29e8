// Package h2 implements the HTTP/2 wire protocol (RFC 7540) and HPACK
// header compression (RFC 7541) from scratch on top of the standard
// library only.
//
// The package provides two layers:
//
//   - Framing: FrameHeader, the concrete Frame types, AppendFrame and
//     MarshalFrame for encoding, and FrameScanner, which splits a byte
//     stream fed in arbitrary chunks into decoded frames.
//   - HPACK: HpackEncoder and HpackDecoder with the full static table,
//     a dynamic table, and canonical Huffman coding.
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

// StreamError is a stream-level protocol error (RFC 7540 section
// 5.4.2). A StreamError requires the endpoint to send a RST_STREAM
// frame for the affected stream.
type StreamError struct {
	StreamID uint32
	Code     ErrCode
	Reason   string
}

// Error implements the error interface.
func (e StreamError) Error() string {
	if e.Reason == "" {
		return fmt.Sprintf("h2: stream %d error: %s", e.StreamID, e.Code)
	}
	return fmt.Sprintf("h2: stream %d error: %s: %s", e.StreamID, e.Code, e.Reason)
}

// Sentinel errors returned by the frame scanner and the HPACK decoder.
var (
	// ErrFrameTooLarge is returned when a frame exceeds the scanner's
	// MaxFrameSize.
	ErrFrameTooLarge = errors.New("h2: frame too large")

	// ErrHeaderListTooLong is returned by the HPACK decoder when the
	// decoded header list exceeds the configured limit.
	ErrHeaderListTooLong = errors.New("h2: header list too long")
)
