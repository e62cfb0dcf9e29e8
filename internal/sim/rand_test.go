package sim

import (
	"math/rand"
	"testing"
)

// opArgs are the bounds the byte-coded draws take: small and large,
// powers of two (the mask paths) and values just above a power of two,
// whose rejection loops redraw about half the time.
var opArgs = []int64{
	1, 2, 3, 7, 8, 1000, 1 << 20, 200_000, 1<<31 - 1, 1 << 31,
	1<<31 + 1, 1<<40 + 3, 1<<62 + 1, 1<<63 - 1, 3 << 61, 12345678901,
}

// checkOps runs the byte-coded draw sequence ops on a Rand and on
// math/rand seeded alike and fails at the first draw that differs.
// The low three bits of each byte pick the method, the rest its
// argument from opArgs.
func checkOps(t *testing.T, seed int64, ops []byte) {
	t.Helper()
	got, want := NewRand(seed), rand.New(rand.NewSource(seed))
	var gp, wp [40]int
	for i, b := range ops {
		n := opArgs[int(b>>3)%len(opArgs)]
		var g, w int64
		switch b & 7 {
		case 0:
			g, w = got.Int63(), want.Int63()
		case 1:
			g, w = got.Int63n(n), want.Int63n(n)
		case 2:
			g, w = int64(got.Intn(int(n))), int64(want.Intn(int(n)))
		case 3:
			gf, wf := got.Float64(), want.Float64()
			if gf != wf {
				t.Fatalf("seed %d op %d: Float64 = %v, math/rand %v", seed, i, gf, wf)
			}
		case 4:
			k := int(n % int64(len(gp)))
			for j := range gp {
				gp[j], wp[j] = j, j
			}
			got.Shuffle(k, func(i, j int) { gp[i], gp[j] = gp[j], gp[i] })
			want.Shuffle(k, func(i, j int) { wp[i], wp[j] = wp[j], wp[i] })
			if gp != wp {
				t.Fatalf("seed %d op %d: Shuffle(%d) = %v, math/rand %v", seed, i, k, gp, wp)
			}
		case 5:
			m := int32(n%(1<<31-1)) + 1
			g, w = int64(got.Int31n(m)), int64(want.Int31n(m))
		case 6:
			g, w = got.Int63Below(Int63nLimit(n))%n, want.Int63n(n)
		case 7:
			s := seed ^ n*int64(i)
			got.Seed(s)
			want.Seed(s)
		}
		if g != w {
			t.Fatalf("seed %d op %d (byte %#x, n %d): got %d, math/rand %d", seed, i, b, n, g, w)
		}
	}
	if g, w := got.Int63(), want.Int63(); g != w {
		t.Fatalf("seed %d: final Int63 = %d, math/rand %d", seed, g, w)
	}
}

// TestRandMatchesMathRand pins Rand's stream to math/rand's for the
// seeds at the edges of Seed's reduction (zero, negatives, 2^31-1 and
// its neighbours, 89482311 that zero maps to) and for the seeds the
// campaigns use, over 12k mixed draws each.
func TestRandMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 1<<31 - 1, 1 << 31, -(1 << 40), 89482311, 1001, 2001, 1<<63 - 1, -1 << 63}
	for _, seed := range seeds {
		ops := make([]byte, 12_000)
		rand.New(rand.NewSource(seed)).Read(ops)
		for i := range ops {
			if ops[i]&7 == 7 && i%64 != 0 {
				ops[i] &^= 1 // re-seed rarely, so long streams run too
			}
		}
		checkOps(t, seed, ops)
	}
}

// TestRandSeedResets checks that re-seeding a used generator replays
// the stream of a fresh one, as Simulator.Reset relies on.
func TestRandSeedResets(t *testing.T) {
	r := NewRand(5)
	for i := 0; i < 2000; i++ {
		r.Int63()
	}
	r.Seed(9)
	fresh := NewRand(9)
	for i := 0; i < 2000; i++ {
		if a, b := r.Int63(), fresh.Int63(); a != b {
			t.Fatalf("draw %d after re-seeding: %d, fresh %d", i, a, b)
		}
	}
}

// TestSeedrandMatchesSchrage checks the folded Lehmer step against
// math/rand's Schrage form over the ends of its domain and a stride
// through the middle.
func TestSeedrandMatchesSchrage(t *testing.T) {
	schrage := func(x int32) int32 {
		const a, q, r = 48271, 44488, 3399
		x = a*(x%q) - r*(x/q)
		if x < 0 {
			x += int32max
		}
		return x
	}
	check := func(x int32) {
		if g, w := seedrand(uint64(x)), schrage(x); g != uint64(w) {
			t.Fatalf("seedrand(%d) = %d, Schrage %d", x, g, w)
		}
	}
	for x := int32(1); x < 100_000; x++ {
		check(x)
		check(int32max - x)
	}
	for x := int32(1); x < int32max-7919; x += 7919 {
		check(x)
	}
}

// FuzzRandMatchesMathRand runs arbitrary byte-coded draw sequences (see
// checkOps) on Rand and math/rand at arbitrary seeds.
func FuzzRandMatchesMathRand(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(0), []byte{0x79, 0x61, 0x6a, 0x72, 0x6c})
	f.Add(int64(-1<<40), []byte{0xff, 0x0c, 0x24, 0x0b, 0x1e, 0x66})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		checkOps(t, seed, ops)
	})
}

// scripted returns a Rand whose next draws are vals (at most 200 of
// them, each in [0, 2^63)): the register is zero but for the words the
// draws feed from, so each draw adds a zero tap to a scripted word.
func scripted(vals []int64) *Rand {
	r := &Rand{feed: rngLen - rngTap}
	for i, v := range vals {
		r.vec[r.feed-1-i] = v
	}
	return r
}

// scriptSource is a math/rand Source that replays vals, so math/rand
// can be driven through the same forced draws.
type scriptSource struct {
	vals []int64
	next int
}

func (s *scriptSource) Int63() int64 {
	v := s.vals[s.next%len(s.vals)]
	s.next++
	return v
}

func (s *scriptSource) Seed(int64) { s.next = 0 }

// TestInt63BelowRejectsAsInt63n forces draws above Int63n's limit,
// which a seeded generator meets fewer than once in 2^45 draws for the
// model's bounds: Int63Below must redraw exactly as often as Int63n,
// and its value modulo n must be Int63n's.
func TestInt63BelowRejectsAsInt63n(t *testing.T) {
	const top = 1<<63 - 1
	for _, n := range []int64{200_000, 3, 1<<62 + 1} {
		lim := Int63nLimit(n)
		for _, vals := range [][]int64{
			{lim + 1, 12345},
			{top, top - 1, lim + 1, lim},
			{lim, 7},
			{0},
			{top, n - 1},
		} {
			script := append(vals, 4242, 4343)
			got, want := scripted(script), &scriptSource{vals: script}
			g, w := got.Int63Below(lim)%n, rand.New(want).Int63n(n)
			if g != w {
				t.Errorf("n %d, values %v: drew %d, Int63n %d", n, vals, g, w)
			}
			if next := got.Int63(); next != script[want.next] {
				t.Errorf("n %d, values %v: Int63n used %d values, Int63Below did not", n, vals, want.next)
			}
		}
	}
}

// TestSkipBelowMatchesInt63Below: SkipBelow(k, limit) must leave the
// generator exactly where k Int63Below(limit) calls do. A limit of
// 2^60 rejects seven draws in eight, and the scripted registers force
// rejections at the top of the range, at the limit and just above it.
func TestSkipBelowMatchesInt63Below(t *testing.T) {
	const top = 1<<63 - 1
	limits := []int64{Int63nLimit(200_000), Int63nLimit(3), Int63nLimit(1<<62 + 1), 1 << 60, top}
	for _, seed := range []int64{1, 7, -1 << 40} {
		for _, limit := range limits {
			for _, k := range []int{-1, 0, 1, 2, 7, 1000} {
				got, want := NewRand(seed), NewRand(seed)
				got.SkipBelow(k, limit)
				for i := 0; i < k; i++ {
					want.Int63Below(limit)
				}
				if *got != *want {
					t.Errorf("seed %d, limit %d, k %d: SkipBelow left a different state", seed, limit, k)
				}
			}
		}
	}
	lim := Int63nLimit(3)
	for _, vals := range [][]int64{
		{lim + 1, 12345, top, lim, top - 1, 0},
		{top, top - 1, lim + 1, lim, 7, 8},
		{lim, lim + 1, lim, lim + 1, 1, 2},
	} {
		for k := 0; k <= 3; k++ {
			got, want := scripted(vals), scripted(vals)
			got.SkipBelow(k, lim)
			for i := 0; i < k; i++ {
				want.Int63Below(lim)
			}
			if *got != *want {
				t.Errorf("values %v, k %d: SkipBelow left a different state", vals, k)
			}
		}
	}
}
