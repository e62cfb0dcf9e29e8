package h2sim

import (
	"math/rand"
	"testing"
)

// TestJitterDrawMatchesInt63n pins the specialised service-time draw
// to rand.Int63n(serviceJitter): for every seed the reduced draw must
// equal Int63n's, and the source must be left in the same state, so
// the simulation consumes the identical stream.
func TestJitterDrawMatchesInt63n(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < 16; i++ {
			if g, w := jitterDraw(got)%int64(serviceJitter), want.Int63n(int64(serviceJitter)); g != w {
				t.Fatalf("seed %d draw %d: %d, Int63n gives %d", seed, i, g, w)
			}
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: the sources diverge after the draws: %d vs %d", seed, g, w)
		}
	}
}

// scriptSource is a rand.Source that replays fixed values, so a test
// can reach Int63n's rejection path, which a seeded source takes
// fewer than once in 2^45 draws.
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

// TestJitterDrawRejectsAsInt63n forces values above jitterMax: the
// draw must redraw exactly as often as Int63n and reduce the same
// accepted value.
func TestJitterDrawRejectsAsInt63n(t *testing.T) {
	const top = 1<<63 - 1
	for _, vals := range [][]int64{
		{jitterMax + 1, 12345},
		{top, top - 1, jitterMax + 1, jitterMax},
		{jitterMax, 7},
		{0},
		{top, int64(serviceJitter) - 1},
	} {
		got, want := &scriptSource{vals: vals}, &scriptSource{vals: vals}
		g, w := jitterDraw(rand.New(got))%int64(serviceJitter), rand.New(want).Int63n(int64(serviceJitter))
		if g != w || got.next != want.next {
			t.Errorf("values %v: drew %d after %d values, Int63n %d after %d", vals, g, got.next, w, want.next)
		}
	}
	if jitterMax <= 0 || (jitterMax+1)%int64(serviceJitter) != 0 {
		t.Errorf("jitterMax %d is not one below a multiple of serviceJitter", jitterMax)
	}
}
