// Package tlsrec simulates the TLS record layer as a passive observer
// sees it: plaintext is framed into records with the standard 5-byte
// cleartext header (content type, version, length) and a fixed
// per-record ciphertext expansion (explicit-nonce and AEAD-tag
// placeholders).
//
// Only the observables a passive adversary has against real TLS —
// record boundaries, content types, ciphertext lengths, direction, and
// timing — reach the reproduced attack (the paper's section II primer
// and its tshark-based monitor, section V). Payload-blindness holds by
// construction: records travel as wire.Bytes, in which the nonce and
// tag placeholders and every DATA payload are zero runs given by their
// length alone, so no payload byte exists to be read. On top of that
// the monitor parses headers only (StreamParser yields HeaderInfo) and
// the predictor consumes trace.RecordObs, and neither carries a body.
// Tests in internal/core pin both. (See DESIGN.md, substitutions
// table.)
//
// Nothing here copies a payload: SealHeader and SealTrailer write a
// record straight into the caller's stream (the TCP send queue) around
// the plaintext the caller appends in between, Opener.Feed hands out
// record bodies that are views of its input and keeps only the header
// and the body pieces of a record split across Feed calls, and the
// StreamParser holds at most a header's 5 bytes and counts the body
// bytes down.
//
// Key types: Opener (the receiving half), Record, HeaderInfo (what a
// sniffer reads from the 5 cleartext header bytes), and StreamParser
// (incremental header extraction from a reassembled byte stream, used
// by core.Monitor).
package tlsrec

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/wire"
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

// SealHeader appends to dst the start of one record carrying n
// plaintext bytes: the cleartext header and the explicit-nonce
// placeholder. The caller appends exactly n plaintext bytes and closes
// the record with SealTrailer. n must not exceed MaxPlaintext.
func SealHeader(dst *wire.Bytes, contentType uint8, n int) {
	if n < 0 || n > MaxPlaintext {
		panic(fmt.Sprintf("tlsrec: %d plaintext bytes in one record", n))
	}
	body := n + Overhead
	dst.AppendPiece([]byte{contentType, Version >> 8, Version & 0xff, byte(body >> 8), byte(body)}, nonceLen)
}

// SealTrailer appends the AEAD-tag placeholder that closes a record.
func SealTrailer(dst *wire.Bytes) { dst.AppendZeros(tagLen) }

// Record is one parsed record.
type Record struct {
	ContentType uint8
	// Body is the plaintext fragment, valid only during the Feed
	// callback it is passed to.
	Body wire.Bytes
}

// head tracks the record being parsed: its header, nhdr bytes of it
// so far, and the body bytes still to come once the header is whole.
type head struct {
	hdr  [HeaderLen]byte
	nhdr int
	body int
}

// fill reads the header bytes h still lacks from b at pos and returns
// how many it read; once the header is whole, body is its length.
func (h *head) fill(b *wire.Bytes, pos int) int {
	if h.nhdr == HeaderLen {
		return 0
	}
	n := b.ReadAt(h.hdr[h.nhdr:], pos)
	if h.nhdr += n; h.nhdr == HeaderLen {
		h.body = h.length()
	}
	return n
}

// length is the body length the whole header declares.
func (h *head) length() int { return int(binary.BigEndian.Uint16(h.hdr[3:])) }

// Opener incrementally parses a record stream. Feed arbitrary chunks;
// complete records come out.
type Opener struct {
	head
	part wire.Bytes // the current record's body so far, if it spans Feed calls
	err  error
}

// Feed consumes stream bytes and calls emit with every newly complete
// record, in order. A record's body is valid only during its call: a
// record wholly inside b has a view of b as its body, and one split
// across calls a view of the Opener's part buffer, which holds its
// literal bytes and run lengths. In steady state Feed allocates
// nothing. A malformed header stops the parse for good: Feed returns
// the error, after emitting the records before it, and every later
// Feed returns it again.
func (o *Opener) Feed(b wire.Bytes, emit func(Record)) error {
	for pos := 0; o.err == nil && pos < b.Len(); {
		if pos += o.fill(&b, pos); o.nhdr < HeaderLen {
			break
		}
		if o.body == o.length() {
			if o.err = check(o.body); o.err != nil {
				break
			}
		}
		n := min(o.body, b.Len()-pos)
		o.body -= n
		pos += n
		var body wire.Bytes
		if o.body > 0 || o.part.Len() > 0 {
			if o.part.Append(b.Slice(pos-n, pos)); o.body > 0 {
				break
			}
			body = o.part.Slice(nonceLen, o.part.Len()-tagLen)
		} else {
			body = b.Slice(pos-n+nonceLen, pos-tagLen)
		}
		o.nhdr = 0
		emit(Record{ContentType: o.hdr[0], Body: body})
		o.part.Reset()
	}
	return o.err
}

// check refuses a body length no record can declare.
func check(n int) error {
	if n > MaxPlaintext+Overhead {
		return fmt.Errorf("%w: %d", ErrRecordTooLarge, n)
	}
	if n < Overhead {
		return fmt.Errorf("tlsrec: body %d shorter than overhead", n)
	}
	return nil
}

// Buffered returns the number of bytes awaiting a complete record.
func (o *Opener) Buffered() int {
	if o.nhdr < HeaderLen {
		return o.nhdr
	}
	return HeaderLen + o.length() - o.body
}

// Reset discards any buffered partial record and a parse error so the
// Opener can start a fresh stream, keeping the scratch capacities.
func (o *Opener) Reset() {
	o.head = head{}
	o.part.Reset()
	o.err = nil
}

// HeaderInfo is what a passive observer reads from a record header.
type HeaderInfo struct {
	ContentType uint8
	Length      int // ciphertext body length
}

// StreamParser extracts record headers from a passively observed byte
// stream without decrypting, the way the paper's tshark monitor does.
// It keeps the current record's header and skips its body by length.
type StreamParser struct {
	head
	out []HeaderInfo // Feed scratch
}

// Feed consumes observed bytes and returns headers of all records
// whose bytes have fully transited. The returned slice is scratch
// reused by the next Feed call; copy the values out if they must
// survive it.
func (p *StreamParser) Feed(b wire.Bytes) []HeaderInfo {
	out := p.out[:0]
	for pos := 0; pos < b.Len(); {
		if pos += p.fill(&b, pos); p.nhdr < HeaderLen {
			break
		}
		n := min(p.body, b.Len()-pos)
		p.body -= n
		if pos += n; p.body == 0 {
			out = append(out, HeaderInfo{ContentType: p.hdr[0], Length: p.length()})
			p.nhdr = 0
		}
	}
	p.out = out
	return out
}

// Reset discards the partial record so the parser can observe a fresh
// stream, keeping the scratch capacity.
func (p *StreamParser) Reset() {
	p.nhdr = 0
}
