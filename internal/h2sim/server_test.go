package h2sim

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// TestJitterDrawMatchesInt63n pins the specialised service-time draw
// to math/rand's Int63n(serviceJitter): for every seed the reduced draw
// must equal Int63n's, and the generators must be left in the same
// state, so the simulation consumes the identical stream.
func TestJitterDrawMatchesInt63n(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		got, want := sim.NewRand(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 16; i++ {
			if g, w := jitterDraw(got)%int64(serviceJitter), want.Int63n(int64(serviceJitter)); g != w {
				t.Fatalf("seed %d draw %d: %d, Int63n gives %d", seed, i, g, w)
			}
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: the generators diverge after the draws: %d vs %d", seed, g, w)
		}
	}
}

// TestJitterDrawRejectsAsInt63n checks that the draw redraws exactly
// where Int63n(serviceJitter) does: above jitterMax, which must be
// Int63n's limit, one below a whole multiple of serviceJitter. The
// redraw loop itself is sim.Rand.Int63Below, which sim's
// TestInt63BelowRejectsAsInt63n drives through forced rejections.
func TestJitterDrawRejectsAsInt63n(t *testing.T) {
	if lim := sim.Int63nLimit(int64(serviceJitter)); jitterMax != lim {
		t.Errorf("jitterMax = %d, Int63n(serviceJitter) keeps values up to %d", jitterMax, lim)
	}
	if jitterMax <= 0 || (jitterMax+1)%int64(serviceJitter) != 0 {
		t.Errorf("jitterMax %d is not one below a multiple of serviceJitter", jitterMax)
	}
}
