// Package wiretest builds and reads wire.Bytes streams for tests: a
// literal stream from plain bytes, a stream whose zero bytes a fuzz
// input holds as literal bytes or as runs, and the plain bytes of any
// stream.
package wiretest

import "repro/internal/wire"

// Lit returns p as a stream of literal bytes.
func Lit(p []byte) wire.Bytes {
	var b wire.Bytes
	b.AppendLiteral(p)
	return b
}

// Mixed returns data as a stream in which each zero byte is held as a
// literal byte or as part of a run, as the successive bits of how say
// (cycling through how; an empty how holds every byte literally).
// Literal zeros between run bytes split the runs at arbitrary points.
func Mixed(data, how []byte) wire.Bytes {
	var b wire.Bytes
	bit := 0
	for i, c := range data {
		if c == 0 && len(how) > 0 {
			run := how[bit/8%len(how)]>>(bit%8)&1 == 1
			bit++
			if run {
				b.AppendZeros(1)
				continue
			}
		}
		b.AppendLiteral(data[i : i+1])
	}
	return b
}

// Plain returns the bytes b holds, runs as zeros.
func Plain(b wire.Bytes) []byte {
	p := make([]byte, b.Len())
	b.ReadAt(p, 0)
	return p
}
