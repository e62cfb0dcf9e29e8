package sim

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// Edge cases for the self-scheduling (generation-checked) timer
// implementation: the event a Reset pushes stays in the heap even
// after a Stop or a newer Reset, so every path below exercises stale
// events being discarded at dispatch time.

// TestTimerResetInsideOwnCallback re-arms the timer from its own
// firing, the pattern the TCP RTO backoff uses.
func TestTimerResetInsideOwnCallback(t *testing.T) {
	s := New(1)
	var fires []time.Duration
	var timer *Timer
	timer = s.NewTimer(func() {
		fires = append(fires, s.Now())
		if len(fires) < 3 {
			timer.Reset(10 * time.Millisecond)
		}
	})
	timer.Reset(10 * time.Millisecond)
	s.Run(math.MaxInt64)
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if len(fires) != len(want) {
		t.Fatalf("fired %d times at %v, want %d", len(fires), fires, len(want))
	}
	for i, at := range want {
		if fires[i] != at {
			t.Errorf("fire %d at %v, want %v", i, fires[i], at)
		}
	}
	if timer.Armed() {
		t.Error("timer still armed after final fire")
	}
}

// TestTimerStopAfterFire stops a timer that has already fired: a
// no-op that must not disturb a subsequent re-arm.
func TestTimerStopAfterFire(t *testing.T) {
	s := New(1)
	fired := 0
	timer := s.NewTimer(func() { fired++ })
	timer.Reset(time.Millisecond)
	s.Run(math.MaxInt64)
	if fired != 1 {
		t.Fatalf("fired %d, want 1", fired)
	}
	timer.Stop() // already fired: must be a safe no-op
	timer.Stop() // and idempotent
	s.Run(math.MaxInt64)
	if fired != 1 {
		t.Fatalf("fired %d after post-fire Stop, want 1", fired)
	}
	timer.Reset(time.Millisecond)
	s.Run(math.MaxInt64)
	if fired != 2 {
		t.Errorf("fired %d after re-arm, want 2", fired)
	}
}

// TestTimerInterleavedResetStopDeterminism interleaves two timers'
// Reset/Stop calls with plain events and checks the full execution
// order is exactly the (at, seq) order — i.e. stale timer events
// (cancelled or superseded) occupy their heap slots without ever
// perturbing when live events run.
func TestTimerInterleavedResetStopDeterminism(t *testing.T) {
	run := func() []string {
		s := New(7)
		var order []string
		mark := func(name string) func() {
			return func() { order = append(order, fmt.Sprintf("%s@%v", name, s.Now())) }
		}
		a := s.NewTimer(mark("a"))
		b := s.NewTimer(mark("b"))
		a.Reset(5 * time.Millisecond) // superseded below
		b.Reset(3 * time.Millisecond) // stopped below
		s.After(2*time.Millisecond, mark("e1"))
		a.Reset(4 * time.Millisecond) // wins for a
		b.Stop()
		s.After(4*time.Millisecond, mark("e2")) // same time as a: FIFO by seq
		b.Reset(6 * time.Millisecond)
		s.After(6*time.Millisecond, mark("e3"))
		s.Run(math.MaxInt64)
		return order
	}
	want := []string{"e1@2ms", "a@4ms", "e2@4ms", "b@6ms", "e3@6ms"}
	first := run()
	if len(first) != len(want) {
		t.Fatalf("order %v, want %v", first, want)
	}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("order %v, want %v", first, want)
		}
	}
	// Determinism: identical runs produce identical order.
	for trial := 0; trial < 3; trial++ {
		again := run()
		for i := range want {
			if again[i] != first[i] {
				t.Fatalf("run %d diverged: %v vs %v", trial, again, first)
			}
		}
	}
}

// TestTimerStopThenResetSameTick stops and immediately re-arms for
// the same deadline: exactly one fire, from the newest generation.
func TestTimerStopThenResetSameTick(t *testing.T) {
	s := New(1)
	fired := 0
	timer := s.NewTimer(func() { fired++ })
	timer.Reset(time.Millisecond)
	timer.Stop()
	timer.Reset(time.Millisecond)
	timer.Stop()
	timer.Reset(time.Millisecond)
	s.Run(math.MaxInt64)
	if fired != 1 {
		t.Errorf("fired %d, want exactly 1", fired)
	}
}
