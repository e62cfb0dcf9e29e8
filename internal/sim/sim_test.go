package sim

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New(1)
	var got []int
	s.After(30*time.Millisecond, func() { got = append(got, 3) })
	s.After(10*time.Millisecond, func() { got = append(got, 1) })
	s.After(20*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", got)
	}
	if s.Now() != 30*time.Millisecond {
		t.Errorf("final time = %v, want 30ms", s.Now())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5*time.Millisecond, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of FIFO order: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	var fired []time.Duration
	s.After(time.Millisecond, func() {
		fired = append(fired, s.Now())
		s.After(2*time.Millisecond, func() {
			fired = append(fired, s.Now())
		})
	})
	s.Run()
	if len(fired) != 2 || fired[0] != time.Millisecond || fired[1] != 3*time.Millisecond {
		t.Errorf("fired = %v", fired)
	}
}

func TestSchedulingInPastClamps(t *testing.T) {
	s := New(1)
	ran := false
	s.After(10*time.Millisecond, func() {
		s.At(time.Millisecond, func() { ran = true }) // in the past
	})
	s.Run()
	if !ran {
		t.Error("past-scheduled event never ran")
	}
	if s.Now() != 10*time.Millisecond {
		t.Errorf("clock went backwards: %v", s.Now())
	}

	// A timer armed with a negative delay fires now, and reports so.
	var firedAt time.Duration
	timer := s.NewTimer(func() { firedAt = s.Now() })
	timer.Reset(-5 * time.Millisecond)
	if d := timer.Deadline(); d != 10*time.Millisecond {
		t.Errorf("Deadline after Reset(-5ms) at 10ms = %v, want 10ms", d)
	}
	s.Run()
	if firedAt != 10*time.Millisecond {
		t.Errorf("timer armed in the past fired at %v, want 10ms", firedAt)
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var count int
	for i := 1; i <= 5; i++ {
		s.At(time.Duration(i)*time.Millisecond, func() { count++ })
	}
	s.RunUntil(3 * time.Millisecond)
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
	if s.Now() != 3*time.Millisecond {
		t.Errorf("now = %v, want 3ms", s.Now())
	}
	s.RunUntil(10 * time.Millisecond)
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if s.Now() != 10*time.Millisecond {
		t.Errorf("now = %v, want 10ms (advances past last event)", s.Now())
	}
}

func TestRunWhile(t *testing.T) {
	s := New(1)
	var count int
	for i := 1; i <= 100; i++ {
		s.At(time.Duration(i)*time.Millisecond, func() { count++ })
	}
	s.RunWhile(func() bool { return count < 7 })
	if count != 7 {
		t.Errorf("count = %d, want 7", count)
	}
}

func TestTimerFires(t *testing.T) {
	s := New(1)
	fired := 0
	tm := s.NewTimer(func() { fired++ })
	tm.Reset(5 * time.Millisecond)
	if !tm.Armed() {
		t.Error("timer not armed after Reset")
	}
	if tm.Deadline() != 5*time.Millisecond {
		t.Errorf("deadline = %v", tm.Deadline())
	}
	s.Run()
	if fired != 1 {
		t.Errorf("fired %d times, want 1", fired)
	}
	if tm.Armed() {
		t.Error("timer still armed after firing")
	}
}

func TestTimerStopPreventsFiring(t *testing.T) {
	s := New(1)
	fired := 0
	tm := s.NewTimer(func() { fired++ })
	tm.Reset(5 * time.Millisecond)
	s.After(time.Millisecond, func() { tm.Stop() })
	s.Run()
	if fired != 0 {
		t.Errorf("stopped timer fired %d times", fired)
	}
	tm.Stop() // stopping again is a no-op
}

func TestTimerResetSupersedesOldDeadline(t *testing.T) {
	s := New(1)
	var at time.Duration
	tm := s.NewTimer(func() { at = s.Now() })
	tm.Reset(5 * time.Millisecond)
	s.After(time.Millisecond, func() { tm.Reset(20 * time.Millisecond) })
	s.Run()
	if at != 21*time.Millisecond {
		t.Errorf("timer fired at %v, want 21ms", at)
	}
}

func TestTimerRearmInCallback(t *testing.T) {
	s := New(1)
	count := 0
	var tm *Timer
	tm = s.NewTimer(func() {
		count++
		if count < 3 {
			tm.Reset(time.Millisecond)
		}
	})
	tm.Reset(time.Millisecond)
	s.Run()
	if count != 3 {
		t.Errorf("periodic rearm fired %d times, want 3", count)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) []int64 {
		s := New(seed)
		var out []int64
		var tick func()
		tick = func() {
			out = append(out, s.Rand().Int63n(1000))
			if len(out) < 50 {
				s.After(time.Duration(s.Rand().Int63n(int64(time.Millisecond))), tick)
			}
		}
		s.After(0, tick)
		s.Run()
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical runs")
	}
}

func TestMaxStepsGuard(t *testing.T) {
	s := New(1)
	s.MaxSteps = 10
	var loop func()
	loop = func() { s.After(time.Microsecond, loop) }
	s.After(0, loop)
	defer func() {
		if recover() == nil {
			t.Error("runaway simulation did not panic")
		}
	}()
	s.Run()
}

func TestClockMonotoneQuick(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New(7)
		last := time.Duration(-1)
		ok := true
		for _, d := range delays {
			s.After(time.Duration(d)*time.Microsecond, func() {
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
			})
		}
		s.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStepsCounter(t *testing.T) {
	s := New(1)
	for i := 0; i < 5; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {})
	}
	s.Run()
	if s.Steps() != 5 {
		t.Errorf("steps = %d, want 5", s.Steps())
	}
}

// TestEventCountsByKind checks that every dispatch lands in exactly one
// kind and that Reset zeroes the counts.
func TestEventCountsByKind(t *testing.T) {
	s := New(1)
	s.After(time.Millisecond, func() {})
	s.At(2*time.Millisecond, func() {})
	s.AfterArg(time.Millisecond, func(any) {}, new(int))
	live := s.NewTimer(func() {})
	live.Reset(time.Millisecond)
	stale := s.NewTimer(func() {})
	stale.Reset(time.Millisecond)
	stale.Reset(2 * time.Millisecond) // the first event goes stale
	stale.Stop()                      // and so does the second
	lane := s.NewLane()
	lane.After(time.Millisecond, func() {})
	lane.AfterArg(time.Millisecond, func(any) {}, new(int))
	lane.After(0, func() {}) // earlier than the tail: main queue
	s.Run()
	want := EventCounts{TimerLive: 1, TimerStale: 2, Arg: 2, Func: 4}
	if got := s.EventCounts(); got != want {
		t.Errorf("counts = %+v, want %+v", got, want)
	}
	if s.Steps() != 9 {
		t.Errorf("steps = %d, want 9", s.Steps())
	}
	s.Reset(2)
	if got := s.EventCounts(); got != (EventCounts{}) {
		t.Errorf("counts after Reset = %+v, want zero", got)
	}
}

// TestForEachPendingArgVisitsExactlyPending places payloads on the
// main queue (same-time and sub-µs, ms-scale, about 2.1 s and several
// seconds out) and in a lane (in its ring and through its fallback to
// the main queue), dispatches some of them, and checks that each
// payload still pending is visited exactly once and no dispatched one
// is, and that nothing is visited after Reset.
func TestForEachPendingArgVisitsExactlyPending(t *testing.T) {
	s := New(1)
	lane := s.NewLane()
	pending := map[*int]bool{}
	fn := func(a any) { delete(pending, a.(*int)) }
	add := func(at time.Duration) {
		p := new(int)
		pending[p] = true
		s.AfterArg(at-s.Now(), fn, p)
	}
	addLane := func(at time.Duration) {
		p := new(int)
		pending[p] = true
		lane.AfterArg(at-s.Now(), fn, p)
	}
	const ms = time.Millisecond
	for _, at := range []time.Duration{
		0, 10, 20, // same time and sub-µs
		3 * ms, 3*ms + 100, 3*ms + 200, // a burst dispatched part way
		5 * ms,               // dispatched in the second window
		150 * ms, 150*ms + 1, // ms-scale, never reached
		2150 * ms,       // about 2.1 s
		4 * time.Second, // several seconds
	} {
		add(at)
	}
	for _, at := range []time.Duration{
		15,     // dispatched in the first window
		4 * ms, // dispatched in the second window
		200 * ms,
		100 * ms, // earlier than the tail: falls back to the main queue
	} {
		addLane(at)
	}
	s.After(3500*time.Microsecond, func() {}) // plain events carry no payload
	check := func(label string) {
		t.Helper()
		seen := map[*int]int{}
		s.ForEachPendingArg(func(a any) { seen[a.(*int)]++ })
		for p, n := range seen {
			if !pending[p] {
				t.Errorf("%s: visited a payload that is not pending", label)
			} else if n != 1 {
				t.Errorf("%s: visited a pending payload %d times", label, n)
			}
		}
		if len(seen) != len(pending) {
			t.Errorf("%s: visited %d payloads, %d pending", label, len(seen), len(pending))
		}
	}
	check("before dispatch")
	s.RunUntil(3*ms + 100)
	if len(pending) != 9 {
		t.Fatalf("setup: %d payloads pending after the first window, want 9", len(pending))
	}
	check("burst dispatched part way")
	s.RunUntil(5 * ms)
	if len(pending) != 6 {
		t.Fatalf("setup: %d payloads pending after the second window, want 6", len(pending))
	}
	check("second window")
	s.Reset(2)
	s.ForEachPendingArg(func(any) { t.Error("visited a payload after Reset") })
	pending = map[*int]bool{}
	add(time.Millisecond)
	addLane(2 * time.Millisecond)
	check("after Reset")
	s.Run()
	if len(pending) != 0 {
		t.Errorf("%d payloads never dispatched after Reset", len(pending))
	}
}

// TestLaneFallbackKeepsOrder interleaves lane pushes (in order, tied,
// and earlier than the lane's tail) with main-queue events and a timer
// at the same instants: dispatch must follow (at, seq) exactly, and
// only the out-of-order push may reach the main queue.
func TestLaneFallbackKeepsOrder(t *testing.T) {
	s := New(1)
	lane := s.NewLane()
	var got []string
	mark := func(name string) func() { return func() { got = append(got, name+"@"+s.Now().String()) } }
	lane.After(2*time.Millisecond, mark("L1"))
	s.After(2*time.Millisecond, mark("M1"))
	lane.After(2*time.Millisecond, mark("L2")) // tie with the tail: stays in the lane
	if len(s.heap) != 1 {
		t.Fatalf("main queue holds %d events, want 1", len(s.heap))
	}
	lane.After(time.Millisecond, mark("L3")) // earlier than the tail: falls back
	if len(s.heap) != 2 || lane.n != 2 {
		t.Fatalf("after fallback: main %d, lane %d; want 2, 2", len(s.heap), lane.n)
	}
	timer := s.NewTimer(mark("T"))
	timer.Reset(2 * time.Millisecond)
	lane.After(3*time.Millisecond, func() {
		mark("L4")()
		lane.After(0, mark("L5")) // pushed during dispatch, at the tail's time
		s.After(0, mark("M2"))
	})
	s.Run()
	want := []string{"L3@1ms", "L1@2ms", "M1@2ms", "L2@2ms", "T@2ms", "L4@3ms", "L5@3ms", "M2@3ms"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("dispatch order = %v, want %v", got, want)
	}
	if want := (EventCounts{TimerLive: 1, Func: 7}); s.EventCounts() != want {
		t.Errorf("counts = %+v, want %+v", s.EventCounts(), want)
	}
}

// TestLaneRingGrowsAndWraps pushes past the ring's capacity while the
// head sits mid-ring, across a Reset that must keep the capacity.
func TestLaneRingGrowsAndWraps(t *testing.T) {
	s := New(1)
	lane := s.NewLane()
	var got []int
	for round := 0; round < 2; round++ {
		got = got[:0]
		for i := 0; i < 5; i++ {
			i := i
			lane.After(time.Duration(i), func() { got = append(got, i) })
		}
		s.RunUntil(2) // head moves to ring index 3
		for i := 5; i < 40; i++ {
			i := i
			lane.After(time.Duration(i), func() { got = append(got, i) })
		}
		s.Run()
		for i, v := range got {
			if v != i {
				t.Fatalf("round %d: lane dispatched out of order: %v", round, got)
			}
		}
		if len(got) != 40 {
			t.Fatalf("round %d: dispatched %d of 40", round, len(got))
		}
		capBefore := len(lane.ring)
		lane.After(time.Hour, func() { t.Error("event survived Reset") })
		s.Reset(1)
		if lane.n != 0 || len(lane.ring) != capBefore {
			t.Fatalf("Reset left %d entries, ring %d (was %d)", lane.n, len(lane.ring), capBefore)
		}
	}
}
