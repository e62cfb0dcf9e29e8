package sim

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// Edge cases for the self-scheduling timer: a key a Reset pushes stays
// in the heap after a Stop or a newer Reset and pops as stale, and a
// Reset inside Run behind the timer's queued key pushes nothing until
// that key pops, so every path below exercises keys checked against
// the deadline's seq at dispatch time.

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

// TestRunDryEndsAtSupersededDeadline re-arms a timer inside Run behind
// its queued key, which pushes nothing, then stops it, leaving nothing
// else queued. A queue that pushed every Reset would pop the
// superseded deadline last, so Run must return with the clock there.
func TestRunDryEndsAtSupersededDeadline(t *testing.T) {
	s := New(1)
	timer := s.NewTimer(func() { t.Error("stopped timer fired") })
	timer.Reset(5 * time.Millisecond)
	s.After(time.Millisecond, func() {
		timer.Reset(10 * time.Millisecond)
		timer.Stop()
	})
	s.Run(time.Second)
	if s.Now() != 11*time.Millisecond {
		t.Errorf("Run returned at %v, want 11ms", s.Now())
	}
	if c := s.EventCounts(); c.TimerStale != 1 || c.Func != 1 {
		t.Errorf("event counts %+v, want one stale key and one callback", c)
	}
}

// TestTimerResetBehindQueuedKeyFiresOnTime re-arms a timer later, from
// inside Run, while its first key is queued: the deadline is pushed
// only when that key pops, and still fires at its own time and after
// an event scheduled for the same time earlier.
func TestTimerResetBehindQueuedKeyFiresOnTime(t *testing.T) {
	s := New(1)
	var order []string
	mark := func(name string) func() {
		return func() { order = append(order, fmt.Sprintf("%s@%v", name, s.Now())) }
	}
	timer := s.NewTimer(mark("t"))
	timer.Reset(2 * time.Millisecond)
	s.After(time.Millisecond, func() {
		s.After(3*time.Millisecond, mark("e"))
		timer.Reset(3 * time.Millisecond) // same time as e, later seq
	})
	s.Run(time.Second)
	want := []string{"e@4ms", "t@4ms"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order %v, want %v", order, want)
	}
	if c := s.EventCounts(); c.TimerLive != 1 || c.TimerStale != 1 {
		t.Errorf("event counts %+v, want one live and one stale key", c)
	}
}

// TestResetDisarmsTimers discards a timer's queued key and its pending
// deadline with the queue: after Reset the timer is disarmed, and it
// re-arms in the new run as a new timer would, whether it is stopped
// first or re-armed inside Run.
func TestResetDisarmsTimers(t *testing.T) {
	s := New(1)
	fired := 0
	timer := s.NewTimer(func() { fired++ })
	arm := func() {
		timer.Reset(5 * time.Millisecond)
		s.After(time.Millisecond, func() {
			timer.Reset(10 * time.Millisecond)
			s.Stop()
		})
		s.Run(time.Second)
	}
	arm()
	s.Reset(1)
	if timer.Armed() {
		t.Fatal("timer armed after Reset")
	}
	// A stopped timer's old deadline must not move the clock.
	timer.Stop()
	s.After(time.Millisecond, func() {})
	s.Run(time.Second)
	if s.Now() != time.Millisecond {
		t.Errorf("Run returned at %v, want 1ms", s.Now())
	}
	arm()
	s.Reset(1)
	// A re-arm inside Run must not wait behind a key Reset discarded.
	s.After(time.Millisecond, func() { timer.Reset(20 * time.Millisecond) })
	s.Run(time.Second)
	if fired != 1 || s.Now() != 21*time.Millisecond {
		t.Errorf("fired %d times, Run returned at %v; want once at 21ms", fired, s.Now())
	}
}
