package sim

import (
	"math"
	"testing"
	"time"
)

// TestAfterZeroAlloc proves the tentpole property: once the event
// heap has grown to its high-water mark, scheduling with After (a
// pre-built callback) allocates zero bytes per event.
func TestAfterZeroAlloc(t *testing.T) {
	s := New(1)
	fn := func() {}
	// Warm up: grow the heap slice past anything the loop needs.
	for i := 0; i < 64; i++ {
		s.After(time.Duration(i)*time.Microsecond, fn)
	}
	s.Run(math.MaxInt64)
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			s.After(time.Duration(i)*time.Microsecond, fn)
		}
		s.Run(math.MaxInt64)
	})
	if allocs != 0 {
		t.Errorf("After + Run: %.1f allocs/op, want 0", allocs)
	}
}

// TestAfterArgZeroAlloc proves the closure-free argument-carrying
// path (used for per-packet delivery) stays allocation-free when the
// callback is reused and the argument is pointer-shaped.
func TestAfterArgZeroAlloc(t *testing.T) {
	s := New(1)
	var sink *int
	fn := func(x any) { sink = x.(*int) }
	arg := new(int)
	for i := 0; i < 64; i++ {
		s.AfterArg(time.Microsecond, fn, arg)
	}
	s.Run(math.MaxInt64)
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			s.AfterArg(time.Duration(i), fn, arg)
		}
		s.Run(math.MaxInt64)
	})
	if allocs != 0 {
		t.Errorf("AfterArg + Run: %.1f allocs/op, want 0", allocs)
	}
	_ = sink
}

// TestTimerResetZeroAlloc proves Timer.Reset and Timer.Stop schedule
// without allocating in steady state — the property the retransmission
// timer hot path depends on.
func TestTimerResetZeroAlloc(t *testing.T) {
	s := New(1)
	timer := s.NewTimer(func() {})
	// Warm up the heap, including stale keys left by re-Resets outside
	// a loop, each of which pushes.
	for i := 0; i < 64; i++ {
		timer.Reset(time.Duration(i) * time.Microsecond)
	}
	s.Run(math.MaxInt64)
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 16; i++ {
			timer.Reset(time.Duration(i+1) * time.Microsecond)
		}
		timer.Stop()
		timer.Reset(time.Microsecond)
		s.Run(math.MaxInt64)
	})
	if allocs != 0 {
		t.Errorf("Timer.Reset/Stop + Run: %.1f allocs/op, want 0", allocs)
	}
}

// TestTimerResetInRunZeroAlloc proves that re-arming timers from
// inside a running loop allocates nothing in steady state: a Reset
// behind a queued key that pushes nothing and lists the timer, the pop
// that pushes its deadline, and the push of every deadline still off
// the heap when a Stop ends Run, which the drain then fires.
func TestTimerResetInRunZeroAlloc(t *testing.T) {
	s := New(1)
	timers := make([]*Timer, 3)
	for i := range timers {
		timers[i] = s.NewTimer(func() {})
	}
	ticks := 0
	var tick func()
	tick = func() {
		for i, tm := range timers {
			tm.Reset(time.Duration(i+2) * time.Millisecond)
		}
		if ticks++; ticks%16 == 0 {
			s.Stop()
			return
		}
		s.After(100*time.Microsecond, tick)
	}
	round := func() {
		s.Reset(1)
		for _, tm := range timers {
			tm.Reset(time.Millisecond)
		}
		s.After(0, tick)
		s.Run(time.Second)
		s.RunUntil(s.Now() + 10*time.Millisecond)
	}
	round() // warm: grows the pool, the heap and the unpushed list
	if c := s.EventCounts(); c.TimerLive != 3 || c.TimerStale > 6 {
		t.Fatalf("event counts %+v, want 3 live and at most 6 stale keys", c)
	}
	allocs := testing.AllocsPerRun(200, round)
	if allocs != 0 {
		t.Errorf("Timer.Reset inside Run: %.1f allocs/op, want 0", allocs)
	}
}

// TestMixedDelaysZeroAlloc schedules across the whole spread of delays
// the simulation uses — same-time bursts, sub-µs chains, ms-scale
// steps, about 2.1 s and several seconds out — so the heap and the
// pool's freelist are exercised at many depths, and proves
// schedule+dispatch stays allocation-free once both have reached
// their high-water marks.
func TestMixedDelaysZeroAlloc(t *testing.T) {
	s := New(1)
	fn := func() {}
	mixed := func() {
		for i := 0; i < 8; i++ {
			d := time.Duration(i)
			s.After(0, fn)                                            // same time
			s.After(100*d, fn)                                        // sub-µs
			s.After((d+1)*512*time.Microsecond, fn)                   // ms-scale
			s.After(2147*time.Millisecond, fn)                        // about 2.1 s
			s.After(2200*time.Millisecond+d*500*time.Millisecond, fn) // several seconds
		}
		s.Run(math.MaxInt64)
	}
	mixed() // warm: grows the pool and the heap to high-water
	allocs := testing.AllocsPerRun(100, mixed)
	if allocs != 0 {
		t.Errorf("mixed-delay schedule + Run: %.1f allocs/op, want 0", allocs)
	}
}

// TestLaneZeroAlloc proves a lane schedules and dispatches without
// allocating once its ring has reached its high-water mark — the
// per-packet path of every netem link and the blocked-worker poll path
// of the h2sim server.
func TestLaneZeroAlloc(t *testing.T) {
	s := New(1)
	lane := s.NewLane(func(any) {})
	arg := new(int)
	burst := func() {
		for i := 0; i < 64; i++ {
			lane.AfterArg(time.Duration(i/2)*time.Microsecond, arg)
		}
		s.Run(math.MaxInt64)
	}
	burst() // warm: grows the ring to 64 entries
	allocs := testing.AllocsPerRun(200, burst)
	if allocs != 0 {
		t.Errorf("Lane.AfterArg + Run: %.1f allocs/op, want 0", allocs)
	}
}

// TestLaneCycleZeroAlloc proves that cycling blocked polls in place
// allocates nothing once the lane's ring has reached its high-water
// mark: the pass's pops, its accounting and its re-queues into the
// freed slots, and the caller's batched draws. This is the
// blocked-worker path of the h2sim server.
func TestLaneCycleZeroAlloc(t *testing.T) {
	s := New(1)
	blocked := false
	var lane *Lane
	lane = s.NewLane(func(a any) {
		if blocked {
			s.Rand().Int63()
			lane.AfterArg(time.Millisecond, a)
			s.Rand().SkipBelow(lane.Cycle(time.Millisecond), 1<<63-1)
		}
	})
	unblock := func() { blocked = false }
	args := []any{new(int), new(int), new(int)}
	round := func() {
		blocked = true
		for _, a := range args {
			lane.AfterArg(0, a)
		}
		s.After(50*time.Millisecond, unblock)
		s.Run(math.MaxInt64)
	}
	round() // warm: grows the ring and the pool
	steps := s.Steps()
	allocs := testing.AllocsPerRun(200, round)
	if allocs != 0 {
		t.Errorf("Lane.Cycle + Run: %.1f allocs/op, want 0", allocs)
	}
	if per := (s.Steps() - steps) / 201; per != 3*51+1 {
		t.Errorf("%d events per round, want %d", per, 3*51+1)
	}
}

// BenchmarkAfter measures raw schedule+dispatch cost of the event
// queue.
func BenchmarkAfter(b *testing.B) {
	s := New(1)
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Microsecond, fn)
		if i%64 == 63 {
			s.Run(math.MaxInt64)
		}
	}
	s.Run(math.MaxInt64)
}

// BenchmarkLaneAfterArg measures schedule+dispatch through a lane,
// the path a link delivery takes.
func BenchmarkLaneAfterArg(b *testing.B) {
	s := New(1)
	lane := s.NewLane(func(any) {})
	arg := new(int)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lane.AfterArg(time.Microsecond, arg)
		if i%64 == 63 {
			s.Run(math.MaxInt64)
		}
	}
	s.Run(math.MaxInt64)
}

// BenchmarkLaneCycle measures one blocked poll cycled in place: its
// share of a pass (the pop, the accounting and the re-queue, with
// Run's clock limit checked before each) and its batched discarded
// draw, as a trial runs them. Eight pollers share a lane, one each
// 1/8 ms, and a Stop event ends the run after about b.N polls; the
// first poll's pass runs all the others.
func BenchmarkLaneCycle(b *testing.B) {
	s := New(1)
	limit := Int63nLimit(1000)
	var lane *Lane
	lane = s.NewLane(func(a any) {
		s.Rand().Int63Below(limit)
		lane.AfterArg(time.Millisecond, a)
		s.Rand().SkipBelow(lane.Cycle(time.Millisecond), limit)
	})
	for i := 0; i < 8; i++ {
		lane.AfterArg(time.Duration(i)*time.Millisecond/8, new(int))
	}
	s.After(time.Duration(b.N)*time.Millisecond/8, s.Stop)
	b.ReportAllocs()
	s.Run(math.MaxInt64)
}

// BenchmarkTimerReset measures the timer re-arm path (the RTO timer
// resets on every ACK in the TCP simulation).
func BenchmarkTimerReset(b *testing.B) {
	s := New(1)
	timer := s.NewTimer(func() {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		timer.Reset(time.Microsecond)
		if i%64 == 63 {
			s.Run(math.MaxInt64)
		}
	}
	s.Run(math.MaxInt64)
}
