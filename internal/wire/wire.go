// Package wire holds a byte stream the way the simulation carries it
// from the HTTP/2 frame to the sniffer tap: literal bytes, plus runs of
// zero bytes that are given by their length alone.
//
// The adversary reads only record lengths, directions and timing, so a
// DATA payload's content never matters, only its size. The senders
// append it as a zero run, as they do the TLS nonce and tag
// placeholders; frame headers, record headers and the small control
// frame bodies stay literal. A 1400-byte DATA record then costs 14
// literal bytes and two run lengths in the TCP send queue, and every
// segment cut from it, every run a reassembler holds or delivers and
// every record body is a view of that queue: nothing copies a payload.
//
// Bytes is the one type. A value that appends is the owner of its
// store (a copy of the owner is one too, and only one of them may go
// on appending); Slice returns a read-only view that shares the store.
// The owner's Advance and Reset drop bytes and reclaim their storage
// once they outweigh the live ones, so a stream's storage stays within
// about twice its live bytes however much passes through it. A view
// stays valid while its bytes are live; once its owner has dropped
// them it must not be read, and after their storage is reclaimed
// reading them panics rather than returning other bytes. ReadAt reads
// bytes as plain bytes (a run reads as zeros), which is how parsers
// read headers. Reading a view never writes the store (only the
// owner's Slice notes where it cut), so views of one stream may be
// read concurrently while the owner is left alone. No other package
// knows the layout.
package wire

// Bytes is a byte stream of literal bytes and zero runs: a window
// [off, off+n) over a store, starting in the store's piece first. A
// value is four words, so views pass cheaply.
type Bytes struct {
	s *store
	// first is the index of the piece holding byte off, counted from
	// the store's origin. The owner holds it complemented, so negative:
	// that is what tells it from its views.
	first int
	off   int
	n     int
}

// store holds a stream's pieces in order, each some literal bytes
// (taken from lit in order) followed by a zero run, at offsets counted
// from the store's origin. Offsets are never reused, and base counts
// the pieces dropped from the front of pcs, so a view whose bytes are
// gone is told apart from one whose bytes are live. Appending to the
// owner may grow its last piece, and so a view's last piece, past the
// view's end: readers clamp to off+n.
type store struct {
	lit  []byte
	pcs  []piece
	base int
	far  int // the furthest piece the owner's Slice found, counted from the origin
}

type piece struct {
	at    int // origin offset of the piece's first byte
	litAt int // index in lit of its first literal byte
	lit   int // literal bytes
	zeros int // zero bytes after them
}

// pieceMem is the memory a piece takes, four ints, which weighs the
// piece table against the literal bytes when deciding to compact.
const pieceMem = 32

// Len returns the stream's length in bytes.
func (b *Bytes) Len() int { return b.n }

// Reset empties the stream. On the owner it keeps the storage's
// capacity, and views of the stream must not be read afterwards; on a
// view it empties the view alone.
func (b *Bytes) Reset() {
	if b.first >= 0 {
		*b = Bytes{}
		return
	}
	if s := b.s; len(s.pcs) > 0 {
		s.base += len(s.pcs)
		s.lit, s.pcs = s.lit[:0], s.pcs[:0]
	}
	b.off, b.n = b.off+b.n, 0
}

// AppendLiteral appends p as literal bytes.
func (b *Bytes) AppendLiteral(p []byte) { b.AppendPiece(p, 0) }

// AppendZeros appends a run of n zero bytes.
func (b *Bytes) AppendZeros(n int) { b.AppendPiece(nil, n) }

// Append appends src, literal bytes as literal bytes and runs as runs.
// src must not share b's storage.
func (b *Bytes) Append(src Bytes) {
	end := src.off + src.n
	pcs, lit := src.pieces()
	for i, off := 0, src.off; off < end; i++ {
		p := &pcs[i]
		lo := min(off, p.at+p.lit)           // the literal bytes taken are [lo, mid)
		mid := max(min(p.at+p.lit, end), lo) // and the zeros [max(off, mid), hi)
		hi := min(p.at+p.lit+p.zeros, end)
		b.AppendPiece(lit[p.litAt+lo-p.at:p.litAt+mid-p.at], hi-max(off, mid))
		off = hi
	}
}

// AppendPiece appends lit as literal bytes and then a run of zeros zero
// bytes, growing the last piece where the stream's layout allows: a
// header and the payload run behind it in one step. Only the owner
// appends; appending to a view panics.
func (b *Bytes) AppendPiece(lit []byte, zeros int) {
	if zeros = max(zeros, 0); len(lit)+zeros == 0 {
		return
	}
	if b.s == nil {
		b.s = &store{}
	} else if b.first >= 0 {
		panic("wire: append to a view")
	}
	s := b.s
	k := len(s.pcs) - 1
	if k < 0 || len(lit) > 0 && s.pcs[k].zeros > 0 {
		s.pcs = append(s.pcs, piece{at: b.off + b.n, litAt: len(s.lit)})
		k++
	}
	if b.n == 0 {
		b.first = ^(s.base + k)
	}
	p := &s.pcs[k]
	p.lit += len(lit)
	p.zeros += zeros
	if len(lit) > 0 {
		s.lit = append(s.lit, lit...)
	}
	b.n += len(lit) + zeros
}

// Slice returns the read-only view of bytes [i, j) of b.
func (b *Bytes) Slice(i, j int) Bytes {
	if i < 0 || j < i || j > b.n {
		panic("wire: slice bounds out of range")
	}
	v := Bytes{s: b.s, first: b.piece(), off: b.off + i, n: j - i}
	if i > 0 && v.n > 0 {
		v.first = b.s.base + b.seek(v.off)
		if b.first < 0 {
			b.s.far = max(b.s.far, v.first)
		}
	}
	return v
}

// ReadAt copies bytes [i, i+len(dst)) of b, or as many of them as b
// holds, into dst, a run as zeros, and returns how many it copied.
func (b *Bytes) ReadAt(dst []byte, i int) int {
	if i < 0 || i > b.n {
		panic("wire: read offset out of range")
	}
	if len(dst) > b.n-i {
		dst = dst[:b.n-i]
	}
	if len(dst) == 0 {
		return 0
	}
	off, k := b.off+i, b.piece()-b.s.base
	if i > 0 || k < 0 {
		k = b.seek(off)
	}
	pcs, lit := b.s.pcs, b.s.lit
	if p := &pcs[k]; off+len(dst) <= p.at+p.lit {
		// The common case: a header held literally in one piece.
		return copy(dst, lit[p.litAt+off-p.at:])
	}
	n := 0
	for ; n < len(dst); k++ {
		p := &pcs[k]
		if d := off - p.at; d < p.lit {
			c := copy(dst[n:], lit[p.litAt+d:p.litAt+p.lit])
			n, off = n+c, off+c
		}
		c := min(p.at+p.lit+p.zeros-off, len(dst)-n)
		clear(dst[n : n+c])
		n, off = n+c, off+c
	}
	return n
}

// Literal returns how many of b's bytes are held as literal bytes; the
// rest are zero runs.
func (b *Bytes) Literal() int {
	n, end := 0, b.off+b.n
	pcs, _ := b.pieces()
	for i, off := 0, b.off; off < end; i++ {
		p := &pcs[i]
		n += max(min(p.at+p.lit, end)-off, 0)
		off = p.at + p.lit + p.zeros
	}
	return n
}

// Advance drops the first k bytes from b. On the owner it reclaims
// the dropped bytes' storage once they take more memory than the live
// ones, so each live byte is moved a bounded number of times on
// average; views of the dropped bytes must not be read afterwards.
func (b *Bytes) Advance(k int) {
	v := b.Slice(k, b.n)
	if b.first >= 0 {
		*b = v
		return
	}
	if v.n == 0 {
		b.Reset()
		return
	}
	v.first = ^v.first
	*b = v
	s := b.s
	d := ^b.first - s.base
	p := &s.pcs[d] // the first live piece loses its dropped literal bytes too
	t := min(b.off-p.at, p.lit)
	if dl := p.litAt + t; 2*(d*pieceMem+dl) > len(s.pcs)*pieceMem+len(s.lit) {
		p.at, p.litAt, p.lit = p.at+t, p.litAt+t, p.lit-t
		s.pcs = s.pcs[:copy(s.pcs, s.pcs[d:])]
		s.lit = s.lit[:copy(s.lit, s.lit[dl:])]
		for i := range s.pcs {
			s.pcs[i].litAt -= dl
		}
		s.base += d
	}
}

// Footprint returns the memory b's store takes up, in use and
// allocated: its literal bytes and its piece table.
func (b *Bytes) Footprint() (used, capacity int) {
	if s := b.s; s != nil {
		used = len(s.lit) + len(s.pcs)*pieceMem
		capacity = cap(s.lit) + cap(s.pcs)*pieceMem
	}
	return used, capacity
}

// piece returns first, the index of the piece holding b's first byte.
func (b *Bytes) piece() int { return b.first ^ b.first>>63 }

// pieces returns the pieces and literal bytes of b's store from the
// one holding b's first byte on; an empty stream has none.
func (b *Bytes) pieces() ([]piece, []byte) {
	if b.n == 0 {
		return nil, nil
	}
	return b.s.pcs[b.seek(b.off):], b.s.lit
}

// seek returns the index in the store's pieces of the piece holding
// origin offset off, a byte of b. Parsers step through a view a piece
// or two at a time, so the search gallops from b's first piece before
// it halves. A TCP sender cuts its segments from the owner in stream
// order, far from its first piece, so the owner starts from the
// furthest piece it found when that lies between. It panics if off is
// no longer held.
func (b *Bytes) seek(off int) int {
	s, pcs := b.s, b.s.pcs
	lo := max(b.piece()-s.base, 0)
	if lo >= len(pcs) || off < pcs[lo].at {
		panic("wire: read of dropped bytes")
	}
	if h := s.far - s.base; b.first < 0 && h > lo && h < len(pcs) && pcs[h].at <= off {
		lo = h
	}
	hi := lo + 1
	for step := 1; hi < len(pcs) && pcs[hi].at <= off; step *= 2 {
		lo, hi = hi, hi+step
	}
	for hi = min(hi, len(pcs)); hi-lo > 1; {
		if m := int(uint(lo+hi) >> 1); pcs[m].at <= off {
			lo = m
		} else {
			hi = m
		}
	}
	return lo
}
