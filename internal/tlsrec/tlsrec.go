// Package tlsrec simulates the TLS record layer as a passive observer
// sees it: plaintext is framed into records with the standard 5-byte
// cleartext header (content type, version, length) and a fixed
// per-record ciphertext expansion (explicit-nonce and AEAD-tag
// placeholders). Record bodies travel as plaintext.
//
// Only the observables a passive adversary has against real TLS —
// record boundaries, content types, ciphertext lengths, direction, and
// timing — reach the reproduced attack (the paper's section II primer
// and its tshark-based monitor, section V). Payload-blindness is
// enforced by types, not by transforming bytes: the monitor parses
// headers only (StreamParser yields HeaderInfo) and the predictor
// consumes trace.RecordObs, and neither carries a body. A test in
// internal/core pins this. (See DESIGN.md, substitutions table.)
//
// The record path is built for the simulation hot loop: Seal appends
// into a caller-recycled buffer, Opener.Feed and StreamParser.Feed
// return scratch storage reused across calls (Opener record bodies
// alias its stream buffer), and both parsers consume their buffers by
// offset with compaction rather than reslicing.
//
// Key types: Sealer and Opener (the endpoint halves), Record,
// HeaderInfo (what a sniffer reads from the 5 cleartext header
// bytes), and StreamParser (incremental header extraction from a
// reassembled byte stream, used by core.Monitor).
package tlsrec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// TLS record constants.
const (
	// HeaderLen is the cleartext record header size.
	HeaderLen = 5

	// Overhead is the per-record ciphertext expansion (8-byte explicit
	// nonce + 16-byte AEAD tag, as in TLS 1.2 AES-GCM).
	Overhead = nonceLen + tagLen

	// MaxPlaintext is the largest plaintext fragment per record
	// (RFC 5246 section 6.2.1).
	MaxPlaintext = 16384

	// Version is the wire version written into record headers
	// (TLS 1.2 = 0x0303).
	Version = 0x0303

	nonceLen = 8
	tagLen   = 16
)

// Content types.
const (
	TypeChangeCipherSpec uint8 = 20
	TypeAlert            uint8 = 21
	TypeHandshake        uint8 = 22
	TypeAppData          uint8 = 23
)

// ErrRecordTooLarge is returned when a record header declares a body
// larger than MaxPlaintext+Overhead.
var ErrRecordTooLarge = errors.New("tlsrec: record exceeds maximum size")

// zeros backs the nonce and tag placeholders so Seal does not
// allocate them per record.
var zeros [Overhead]byte

// Sealer frames plaintext into records.
type Sealer struct {
	// MaxPlain caps the plaintext per record; zero means MaxPlaintext.
	// Real stacks often use smaller fragments; the simulation's server
	// uses the TCP MSS so record boundaries align with segments.
	MaxPlain int
}

func (s *Sealer) maxPlain() int {
	if s.MaxPlain <= 0 || s.MaxPlain > MaxPlaintext {
		return MaxPlaintext
	}
	return s.MaxPlain
}

// Seal appends the record encoding of plaintext (split into fragments
// of at most MaxPlain) to dst and returns the extended slice. Each
// fragment is written unchanged between the nonce and tag
// placeholders. An empty plaintext produces a single empty record.
// Passing a recycled dst[:0] makes Seal allocation-free once the
// buffer has reached its high-water capacity.
func (s *Sealer) Seal(dst []byte, contentType uint8, plaintext []byte) []byte {
	mp := s.maxPlain()
	first := true
	for first || len(plaintext) > 0 {
		frag := plaintext
		if len(frag) > mp {
			frag = frag[:mp]
		}
		plaintext = plaintext[len(frag):]
		bodyLen := len(frag) + Overhead
		dst = append(dst, contentType, byte(Version>>8), byte(Version&0xff))
		dst = binary.BigEndian.AppendUint16(dst, uint16(bodyLen))
		dst = append(dst, zeros[:nonceLen]...)
		dst = append(dst, frag...)
		dst = append(dst, zeros[:tagLen]...)
		first = false
	}
	return dst
}

// Record is one parsed record.
type Record struct {
	ContentType uint8
	// Body is the plaintext fragment. It aliases the Opener's stream
	// buffer and is valid only until the next Feed.
	Body []byte
}

// Opener incrementally parses a record stream. Feed arbitrary byte
// chunks; complete records come out.
type Opener struct {
	buf  []byte
	off  int      // parse position within buf
	recs []Record // Feed scratch
}

// Feed appends stream bytes and returns all newly complete records.
// The returned slice and the bodies it points into are scratch owned
// by the Opener, valid only until the next Feed: copy a body out if it
// must survive. In steady state Feed allocates nothing. A malformed
// header stops the parse; the records before it are returned with the
// error.
func (o *Opener) Feed(b []byte) ([]Record, error) {
	if o.off > 0 {
		// Compact the consumed prefix (at most one partial record plus
		// whatever arrived mid-parse) so the buffer is reused instead
		// of growing behind an advancing offset.
		n := copy(o.buf, o.buf[o.off:])
		o.buf = o.buf[:n]
		o.off = 0
	}
	o.buf = append(o.buf, b...)
	out := o.recs[:0]
	var err error
	for len(o.buf)-o.off >= HeaderLen {
		bodyLen := int(binary.BigEndian.Uint16(o.buf[o.off+3 : o.off+5]))
		if bodyLen > MaxPlaintext+Overhead {
			err = fmt.Errorf("%w: %d", ErrRecordTooLarge, bodyLen)
			break
		}
		if bodyLen < Overhead {
			err = fmt.Errorf("tlsrec: body %d shorter than overhead", bodyLen)
			break
		}
		if len(o.buf)-o.off < HeaderLen+bodyLen {
			break
		}
		start := o.off + HeaderLen + nonceLen
		end := o.off + HeaderLen + bodyLen - tagLen
		out = append(out, Record{ContentType: o.buf[o.off], Body: o.buf[start:end:end]})
		o.off += HeaderLen + bodyLen
	}
	o.recs = out
	return out, err
}

// Buffered returns the number of bytes awaiting a complete record.
func (o *Opener) Buffered() int { return len(o.buf) - o.off }

// Reset discards any buffered partial record so the Opener can start
// a fresh stream, keeping the buffer and scratch capacities.
func (o *Opener) Reset() {
	o.buf = o.buf[:0]
	o.off = 0
}

// HeaderInfo is what a passive observer reads from a record header.
type HeaderInfo struct {
	ContentType uint8
	Length      int // ciphertext body length
}

// StreamParser extracts record headers from a passively observed byte
// stream without decrypting, the way the paper's tshark monitor does.
type StreamParser struct {
	buf []byte
	off int
	out []HeaderInfo // Feed scratch
}

// Feed appends observed bytes and returns headers of all records whose
// bytes have fully transited. The returned slice is scratch reused by
// the next Feed call; copy the values out if they must survive it.
func (p *StreamParser) Feed(b []byte) []HeaderInfo {
	if p.off > 0 {
		n := copy(p.buf, p.buf[p.off:])
		p.buf = p.buf[:n]
		p.off = 0
	}
	p.buf = append(p.buf, b...)
	out := p.out[:0]
	for {
		if len(p.buf)-p.off < HeaderLen {
			break
		}
		bodyLen := int(binary.BigEndian.Uint16(p.buf[p.off+3 : p.off+5]))
		if len(p.buf)-p.off < HeaderLen+bodyLen {
			break
		}
		out = append(out, HeaderInfo{ContentType: p.buf[p.off], Length: bodyLen})
		p.off += HeaderLen + bodyLen
	}
	p.out = out
	return out
}

// Reset discards buffered partial-record bytes so the parser can
// observe a fresh stream, keeping buffer and scratch capacities.
func (p *StreamParser) Reset() {
	p.buf = p.buf[:0]
	p.off = 0
}
