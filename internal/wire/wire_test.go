package wire

import (
	"bytes"
	"math/rand"
	"testing"
)

// plain returns the bytes b holds.
func plain(b Bytes) []byte {
	p := make([]byte, b.Len())
	if n := b.ReadAt(p, 0); n != len(p) {
		panic("short ReadAt")
	}
	return p
}

// TestBytesMatchesPlain drives one stream through random appends of
// literal bytes, zero runs and sub-ranges of a second stream, and
// random prefix drops, and checks after every step that its length,
// bytes, literal count and random reads of random sub-ranges equal a
// plain byte-slice model's, and that a view taken before the step
// still reads the same while none of its bytes has been dropped, though
// the drops compact the storage under it.
func TestBytesMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var src Bytes
	var srcModel []byte
	for i := 0; i < 400; i++ {
		if rng.Intn(2) == 0 {
			p := make([]byte, rng.Intn(12))
			rng.Read(p)
			src.AppendLiteral(p)
			srcModel = append(srcModel, p...)
		} else {
			n := rng.Intn(40)
			src.AppendZeros(n)
			srcModel = append(srcModel, make([]byte, n)...)
		}
	}
	var b Bytes
	var model []byte
	literal := 0
	var view Bytes
	var viewModel []byte
	dropped, viewAt := 0, 0 // bytes dropped so far, and where the view starts
	for step := 0; step < 5000; step++ {
		if len(model) > 0 && (dropped > viewAt || rng.Intn(4) == 0) {
			i := rng.Intn(len(model))
			view, viewModel = b.Slice(i, len(model)), bytes.Clone(model[i:])
			viewAt = dropped + i
		}
		switch op := rng.Intn(10); {
		case op < 3:
			p := make([]byte, rng.Intn(20))
			rng.Read(p)
			b.AppendLiteral(p)
			model = append(model, p...)
			literal += len(p)
		case op < 5:
			n := rng.Intn(300)
			b.AppendZeros(n)
			model = append(model, make([]byte, n)...)
		case op < 8:
			i := rng.Intn(len(srcModel))
			j := i + rng.Intn(len(srcModel)-i+1)
			v := src.Slice(i, j)
			b.Append(v)
			model = append(model, srcModel[i:j]...)
			literal += v.Literal()
		default:
			k := rng.Intn(len(model) + 1)
			head := b.Slice(0, k)
			literal -= head.Literal()
			b.Advance(k)
			model = model[k:]
			dropped += k
		}
		if dropped <= viewAt && !bytes.Equal(plain(view), viewModel) {
			t.Fatalf("step %d: an earlier view changed", step)
		}
		if b.Len() != len(model) || !bytes.Equal(plain(b), model) {
			t.Fatalf("step %d: stream diverges from model (%d vs %d bytes)", step, b.Len(), len(model))
		}
		if b.Literal() != literal {
			t.Fatalf("step %d: %d literal bytes, want %d", step, b.Literal(), literal)
		}
		if len(model) > 0 {
			i := rng.Intn(len(model))
			j := i + rng.Intn(len(model)-i+1)
			v := b.Slice(i, j)
			at := rng.Intn(j - i + 1)
			buf := make([]byte, rng.Intn(j-i+2))
			n := v.ReadAt(buf, at)
			if n != min(len(buf), j-i-at) || !bytes.Equal(buf[:n], model[i+at:i+at+n]) {
				t.Fatalf("step %d: Slice(%d, %d).ReadAt(%d) read %x, want %x", step, i, j, at, buf[:n], model[i+at:i+at+n])
			}
		}
	}
	b.Reset()
	if b.Len() != 0 || b.Literal() != 0 || len(plain(b)) != 0 {
		t.Fatal("Reset left bytes")
	}
}

// TestSliceBounds checks that an out-of-range sub-range or read offset
// panics rather than reading past the stream.
func TestSliceBounds(t *testing.T) {
	var b Bytes
	b.AppendZeros(4)
	for _, r := range [][2]int{{-1, 2}, {3, 2}, {0, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Slice(%d, %d) of 4 bytes did not panic", r[0], r[1])
				}
			}()
			b.Slice(r[0], r[1])
		}()
	}
	for _, at := range []int{-1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ReadAt at %d of 4 bytes did not panic", at)
				}
			}()
			b.ReadAt(make([]byte, 1), at)
		}()
	}
}

// TestQueueSteadyStateZeroAlloc runs the send-queue pattern — append
// records, cut segments from them as views, read their headers, copy
// one into a reused stream, drop the acked prefix, and start over —
// and requires it to allocate nothing once warm.
func TestQueueSteadyStateZeroAlloc(t *testing.T) {
	var q, part Bytes
	hdr := make([]byte, 14)
	cycle := func() {
		q.Reset()
		for i := 0; i < 4; i++ {
			q.AppendLiteral(hdr[:5])
			q.AppendZeros(8)
			q.AppendLiteral(hdr[5:])
			q.AppendZeros(1416)
		}
		for q.Len() > 0 {
			seg := q.Slice(0, min(1460, q.Len()))
			seg.ReadAt(hdr[:5], 0)
			part.Reset()
			part.Append(seg)
			q.Advance(seg.Len())
		}
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("queue steady state: %.1f allocs/op, want 0", allocs)
	}
}

// TestStorageBounded pushes a thousand times its live bytes through a
// queue that appends literal chunks and zero runs and drops acked
// prefixes, and requires its storage to stay within a small multiple
// of the live bytes: the dropped bytes' storage is reclaimed as it
// goes, not kept until Reset.
func TestStorageBounded(t *testing.T) {
	const live = 4096
	rng := rand.New(rand.NewSource(2))
	var q Bytes
	chunk := make([]byte, 256)
	maxUsed, maxCap := 0, 0
	for sent := 0; sent < 1000*live; {
		for q.Len() < live {
			n := 64 + rng.Intn(len(chunk)-63)
			if rng.Intn(2) == 0 {
				q.AppendLiteral(chunk[:n])
			} else {
				q.AppendZeros(n)
			}
			sent += n
			used, capacity := q.Footprint()
			maxUsed, maxCap = max(maxUsed, used), max(maxCap, capacity)
		}
		q.Advance(rng.Intn(q.Len() + 1))
	}
	if maxUsed > 4*live || maxCap > 8*live {
		t.Errorf("storage peaked at %d bytes used, %d allocated, for at most %d live bytes", maxUsed, maxCap, live+len(chunk))
	}
}

// TestViewsAreReadOnly checks that a view cannot change its owner's
// stream: appending to it panics, and resetting it empties the view
// alone.
func TestViewsAreReadOnly(t *testing.T) {
	var b Bytes
	b.AppendLiteral([]byte{1, 2, 3})
	b.AppendZeros(5)
	v := b.Slice(1, 6)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("appending to a view did not panic")
			}
		}()
		v.AppendLiteral([]byte{4})
	}()
	v.Reset()
	if v.Len() != 0 || b.Len() != 8 || !bytes.Equal(plain(b), []byte{1, 2, 3, 0, 0, 0, 0, 0}) {
		t.Errorf("resetting a view changed its owner: %x", plain(b))
	}
}

// TestDroppedBytesPanic checks that a view of bytes the owner no
// longer holds panics when read, after a Reset and after drops whose
// storage later appends reclaimed, rather than reading newer bytes.
func TestDroppedBytesPanic(t *testing.T) {
	mustPanic := func(what string, v Bytes) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("reading %s did not panic", what)
			}
		}()
		v.ReadAt(make([]byte, 1), 0)
	}
	var b Bytes
	b.AppendLiteral([]byte("stale"))
	old := b.Slice(0, 5)
	b.Reset()
	b.AppendLiteral([]byte("fresh"))
	mustPanic("a view from before Reset", old)

	old = b.Slice(0, 5)
	for i := 0; i < 8; i++ {
		b.Advance(b.Len() - 1)
		b.AppendZeros(3)
		b.AppendLiteral([]byte{byte(i)})
	}
	mustPanic("a view of dropped bytes", old)
	if got := plain(b.Slice(b.Len()-4, b.Len())); !bytes.Equal(got, []byte{0, 0, 0, 7}) {
		t.Errorf("live bytes read %x after compaction", got)
	}
}
