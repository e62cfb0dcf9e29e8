package netem

import (
	"bytes"
	"math/rand"
	"testing"
)

// collect pushes segments in order and returns the delivered stream.
func collect(r *Reassembler, segs ...heldSeg) string {
	var out []byte
	for _, s := range segs {
		r.Push(s.seq, s.buf, func(b []byte) { out = append(out, b...) })
	}
	return string(out)
}

func TestReassemblerOverlap(t *testing.T) {
	var r Reassembler
	got := collect(&r,
		heldSeg{0, []byte("abcd")},
		heldSeg{2, []byte("cdef")}, // overlaps 2 bytes
		heldSeg{8, []byte("ij")},   // held
		heldSeg{8, []byte("ijkl")}, // same slot, longer: replaces it
		heldSeg{6, []byte("gh")},   // fills the gap
	)
	if got != "abcdefghijkl" || r.Next != 12 {
		t.Errorf("reassembled %q up to %d, want abcdefghijkl up to 12", got, r.Next)
	}
}

func TestReassemblerWraparound(t *testing.T) {
	var r Reassembler
	r.Reset(0xfffffffe)
	got := collect(&r,
		heldSeg{0, []byte("cd")},          // past the wrap: held
		heldSeg{0xfffffffe, []byte("ab")}, // ends at 0
	)
	if got != "abcd" || r.Next != 2 {
		t.Errorf("reassembled %q up to %d, want abcd up to 2", got, r.Next)
	}
}

// FuzzReassembler cuts a stream that starts near 2^32 (so sequence
// numbers wrap) into segments, adds duplicates and overlapping
// fragments, shuffles them, and requires the reassembler to deliver
// the stream exactly once, in order, with Next already past each run
// when it is delivered and nothing left held at the end.
func FuzzReassembler(f *testing.F) {
	f.Add([]byte("hello world attack"), uint16(5), int64(1))
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3, 4, 5, 6}, 40), uint16(100), int64(7))
	f.Add([]byte{}, uint16(0), int64(0))
	f.Fuzz(func(t *testing.T, data []byte, back uint16, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		start := -uint32(back)
		var segs []heldSeg
		for off := 0; off < len(data); {
			n := min(1+rng.Intn(16), len(data)-off)
			segs = append(segs, heldSeg{start + uint32(off), data[off : off+n]})
			off += n
		}
		for extra := len(segs) / 2; extra > 0; extra-- { // duplicates and overlaps
			a := rng.Intn(len(data))
			b := a + 1 + rng.Intn(len(data)-a)
			segs = append(segs, heldSeg{start + uint32(a), data[a:b]})
		}
		rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })

		var r Reassembler
		r.Reset(start)
		var out []byte
		deliver := func(b []byte) {
			out = append(out, b...)
			if r.Next != start+uint32(len(out)) {
				t.Fatalf("delivered through %d with Next at %d", start+uint32(len(out)), r.Next)
			}
		}
		for _, s := range segs {
			beyond := seqLess(r.Next, s.seq)
			if held := r.Push(s.seq, s.buf, deliver); held != beyond {
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
