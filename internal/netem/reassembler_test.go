package netem

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// seg is one test segment: its sequence number and its bytes.
type seg struct {
	seq uint32
	b   wire.Bytes
}

// lit builds a literal test segment.
func lit(seq uint32, b string) seg { return seg{seq, wiretest.Lit([]byte(b))} }

// collect pushes segments in order and returns the delivered stream.
func collect(r *Reassembler, segs ...seg) string {
	var out []byte
	for _, s := range segs {
		r.Push(s.seq, s.b, func(b wire.Bytes) { out = append(out, wiretest.Plain(b)...) })
	}
	return string(out)
}

func TestReassemblerOverlap(t *testing.T) {
	var r Reassembler
	got := collect(&r,
		lit(0, "abcd"),
		lit(2, "cdef"), // overlaps 2 bytes
		lit(8, "ij"),   // held
		lit(8, "ijkl"), // same slot, longer: replaces it
		lit(6, "gh"),   // fills the gap
	)
	if got != "abcdefghijkl" || r.Next != 12 {
		t.Errorf("reassembled %q up to %d, want abcdefghijkl up to 12", got, r.Next)
	}
}

func TestReassemblerWraparound(t *testing.T) {
	var r Reassembler
	r.Reset(0xfffffffe)
	got := collect(&r,
		lit(0, "cd"),          // past the wrap: held
		lit(0xfffffffe, "ab"), // ends at 0
	)
	if got != "abcd" || r.Next != 2 {
		t.Errorf("reassembled %q up to %d, want abcd up to 2", got, r.Next)
	}
}

// FuzzReassembler cuts a stream that starts near 2^32 (so sequence
// numbers wrap) into segments whose zero bytes are held as literal
// bytes or as runs as how decides (see wiretest.Mixed), adds
// duplicates and overlapping fragments, shuffles them, and requires
// the reassembler to deliver the plain stream exactly once, in order,
// with Next already past each run when it is delivered and nothing
// left held at the end.
func FuzzReassembler(f *testing.F) {
	f.Add([]byte("hello world attack"), uint16(5), int64(1), []byte{})
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3, 4, 5, 6}, 40), uint16(100), int64(7), []byte{0xb3})
	f.Add([]byte{}, uint16(0), int64(0), []byte{1})
	f.Add(make([]byte, 300), uint16(40), int64(3), []byte{0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte, back uint16, seed int64, how []byte) {
		rng := rand.New(rand.NewSource(seed))
		start := -uint32(back)
		var segs []seg
		for off := 0; off < len(data); {
			n := min(1+rng.Intn(16), len(data)-off)
			segs = append(segs, seg{start + uint32(off), wiretest.Mixed(data[off:off+n], how)})
			off += n
		}
		for extra := len(segs) / 2; extra > 0; extra-- { // duplicates and overlaps
			a := rng.Intn(len(data))
			b := a + 1 + rng.Intn(len(data)-a)
			segs = append(segs, seg{start + uint32(a), wiretest.Mixed(data[a:b], how)})
		}
		rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })

		var r Reassembler
		r.Reset(start)
		var out []byte
		deliver := func(b wire.Bytes) {
			out = append(out, wiretest.Plain(b)...)
			if r.Next != start+uint32(len(out)) {
				t.Fatalf("delivered through %d with Next at %d", start+uint32(len(out)), r.Next)
			}
		}
		for _, s := range segs {
			beyond := seqLess(r.Next, s.seq)
			if held := r.Push(s.seq, s.b, deliver); held != beyond {
				t.Fatalf("Push(%d) with Next %d reported held=%v", s.seq, r.Next, held)
			}
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("delivered %x, want %x", out, data)
		}
		if r.Next != start+uint32(len(data)) || len(r.held) != 0 {
			t.Fatalf("Next %d with %d held, want %d with none", r.Next, len(r.held), start+uint32(len(data)))
		}
	})
}
