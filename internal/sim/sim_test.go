package sim

import (
	"fmt"
	"math"
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
	s.Run(math.MaxInt64)
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
		s.After(5*time.Millisecond, func() { got = append(got, i) })
	}
	s.Run(math.MaxInt64)
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
	s.Run(math.MaxInt64)
	if len(fired) != 2 || fired[0] != time.Millisecond || fired[1] != 3*time.Millisecond {
		t.Errorf("fired = %v", fired)
	}
}

func TestSchedulingInPastClamps(t *testing.T) {
	s := New(1)
	ran := false
	s.After(10*time.Millisecond, func() {
		s.After(-9*time.Millisecond, func() { ran = true }) // in the past
	})
	s.Run(math.MaxInt64)
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
	s.Run(math.MaxInt64)
	if firedAt != 10*time.Millisecond {
		t.Errorf("timer armed in the past fired at %v, want 10ms", firedAt)
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var count int
	for i := 1; i <= 5; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() { count++ })
	}
	s.Stop() // RunUntil ignores the stop flag
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

// TestRunStopsOnFlagOrLimit: Run checks the stop flag and its clock
// limit before each event, the first one included, so a Stop from a
// callback ends it before the next event, the first event at or past
// the limit still runs, and a Stop before Run dispatches nothing until
// Reset clears the flag.
func TestRunStopsOnFlagOrLimit(t *testing.T) {
	s := New(1)
	var count int
	schedule := func() {
		for i := 1; i <= 100; i++ {
			s.After(time.Duration(i)*time.Millisecond, func() {
				if count++; count == 7 {
					s.Stop()
				}
			})
		}
	}
	schedule()
	s.Run(math.MaxInt64)
	if count != 7 || s.Now() != 7*time.Millisecond {
		t.Errorf("Stop at the 7th event: count = %d at %v, want 7 at 7ms", count, s.Now())
	}
	s.Run(math.MaxInt64)
	if count != 7 {
		t.Errorf("Run after Stop dispatched %d more events", count-7)
	}

	s.Reset(1)
	count = 0
	schedule()
	s.Run(4*time.Millisecond + 1)
	if count != 5 || s.Now() != 5*time.Millisecond {
		t.Errorf("Run(4ms+1ns): count = %d at %v, want 5 at 5ms", count, s.Now())
	}
	s.Run(5 * time.Millisecond)
	if count != 5 {
		t.Errorf("Run at its limit dispatched %d events", count-5)
	}
	s.Run(math.MaxInt64)
	if count != 7 {
		t.Errorf("Run after the limit: count = %d, want 7", count)
	}

	s.Reset(1)
	count = 0
	schedule()
	s.Stop()
	s.Run(math.MaxInt64)
	if s.Steps() != 0 {
		t.Errorf("Run after Stop dispatched %d events", s.Steps())
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
	s.Run(math.MaxInt64)
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
	s.Run(math.MaxInt64)
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
	s.Run(math.MaxInt64)
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
	s.Run(math.MaxInt64)
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
		s.Run(math.MaxInt64)
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
	s.Run(math.MaxInt64)
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
		s.Run(math.MaxInt64)
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
	s.Run(math.MaxInt64)
	if s.Steps() != 5 {
		t.Errorf("steps = %d, want 5", s.Steps())
	}
}

// TestEventCountsByKind checks that every dispatch lands in exactly one
// kind and that Reset zeroes the counts.
func TestEventCountsByKind(t *testing.T) {
	s := New(1)
	s.After(time.Millisecond, func() {})
	s.After(2*time.Millisecond, func() {})
	s.AfterArg(time.Millisecond, func(any) {}, new(int))
	live := s.NewTimer(func() {})
	live.Reset(time.Millisecond)
	stale := s.NewTimer(func() {})
	stale.Reset(time.Millisecond)
	stale.Reset(2 * time.Millisecond) // the first event goes stale
	stale.Stop()                      // and so does the second
	lane := s.NewLane(func(any) {})
	lane.AfterArg(time.Millisecond, new(int))
	lane.AfterArg(time.Millisecond, new(int))
	s.Run(math.MaxInt64)
	want := EventCounts{TimerLive: 1, TimerStale: 2, Arg: 3, Func: 2}
	if got := s.EventCounts(); got != want {
		t.Errorf("counts = %+v, want %+v", got, want)
	}
	if s.Steps() != 8 {
		t.Errorf("steps = %d, want 8", s.Steps())
	}
	s.Reset(2)
	if got := s.EventCounts(); got != (EventCounts{}) {
		t.Errorf("counts after Reset = %+v, want zero", got)
	}
}

// TestForEachPendingArgVisitsExactlyPending places payloads on the
// main queue (same-time and sub-µs, ms-scale, about 2.1 s and several
// seconds out) and in a lane, dispatches some of them, and checks that each
// payload still pending is visited exactly once and no dispatched one
// is, and that nothing is visited after Reset.
func TestForEachPendingArgVisitsExactlyPending(t *testing.T) {
	s := New(1)
	pending := map[*int]bool{}
	fn := func(a any) { delete(pending, a.(*int)) }
	lane := s.NewLane(fn)
	add := func(at time.Duration) {
		p := new(int)
		pending[p] = true
		s.AfterArg(at-s.Now(), fn, p)
	}
	addLane := func(at time.Duration) {
		p := new(int)
		pending[p] = true
		lane.AfterArg(at-s.Now(), p)
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
	if len(pending) != 8 {
		t.Fatalf("setup: %d payloads pending after the first window, want 8", len(pending))
	}
	check("burst dispatched part way")
	s.RunUntil(5 * ms)
	if len(pending) != 5 {
		t.Fatalf("setup: %d payloads pending after the second window, want 5", len(pending))
	}
	check("second window")
	s.Reset(2)
	s.ForEachPendingArg(func(any) { t.Error("visited a payload after Reset") })
	pending = map[*int]bool{}
	add(time.Millisecond)
	addLane(2 * time.Millisecond)
	check("after Reset")
	s.Run(math.MaxInt64)
	if len(pending) != 0 {
		t.Errorf("%d payloads never dispatched after Reset", len(pending))
	}
}

// TestLaneKeepsOrder interleaves lane pushes (in order and tied with
// the tail) with main-queue events and a timer at the same instants:
// dispatch must follow (at, seq) exactly, and no lane push may reach
// the main queue.
func TestLaneKeepsOrder(t *testing.T) {
	s := New(1)
	var got []string
	logAt := func(name string) { got = append(got, name+"@"+s.Now().String()) }
	mark := func(name string) func() { return func() { logAt(name) } }
	var lane *Lane
	lane = s.NewLane(func(a any) {
		logAt(a.(string))
		if a == "L3" {
			lane.AfterArg(0, "L4") // pushed during dispatch, at the tail's time
			s.After(0, mark("M2"))
		}
	})
	lane.AfterArg(time.Millisecond, "L0")
	lane.AfterArg(2*time.Millisecond, "L1")
	s.After(2*time.Millisecond, mark("M1"))
	lane.AfterArg(2*time.Millisecond, "L2") // tie with the tail: stays in the lane
	if len(s.heap) != 1 || lane.n != 3 {
		t.Fatalf("main queue %d, lane %d; want 1, 3", len(s.heap), lane.n)
	}
	timer := s.NewTimer(mark("T"))
	timer.Reset(2 * time.Millisecond)
	lane.AfterArg(3*time.Millisecond, "L3")
	s.Run(math.MaxInt64)
	want := []string{"L0@1ms", "L1@2ms", "M1@2ms", "L2@2ms", "T@2ms", "L3@3ms", "L4@3ms", "M2@3ms"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("dispatch order = %v, want %v", got, want)
	}
	if want := (EventCounts{TimerLive: 1, Arg: 5, Func: 2}); s.EventCounts() != want {
		t.Errorf("counts = %+v, want %+v", s.EventCounts(), want)
	}
}

// TestLaneDrop: Drop marks every pending entry with its arg dead and
// no other. A dead entry keeps its place: it is dispatched in (at, seq)
// order and counted as Arg, but the handler never sees it, nor does
// ForEachPendingArg, and it does not move the clock any differently
// from a live one. Dropping an arg with nothing pending changes
// nothing.
func TestLaneDrop(t *testing.T) {
	s := New(1)
	var got []string
	lane := s.NewLane(func(a any) { got = append(got, fmt.Sprintf("%s@%v", *a.(*string), s.Now())) })
	a, b, c := new(string), new(string), new(string)
	*a, *b, *c = "a", "b", "c"
	for i, arg := range []*string{a, b, a, c, a} {
		lane.AfterArg(time.Duration(i)*time.Millisecond, arg)
	}
	s.After(5*time.Millisecond, func() { got = append(got, "M@"+s.Now().String()) })
	lane.Drop(a)
	lane.Drop(new(string))
	if lane.n != 5 {
		t.Fatalf("Drop removed entries: lane %d, want 5", lane.n)
	}
	var pending []string
	s.ForEachPendingArg(func(x any) { pending = append(pending, *x.(*string)) })
	if fmt.Sprint(pending) != "[b c]" {
		t.Errorf("pending args = %v, want [b c]", pending)
	}
	s.Run(math.MaxInt64)
	if want := "[b@1ms c@3ms M@5ms]"; fmt.Sprint(got) != want {
		t.Errorf("dispatched %v, want %s", got, want)
	}
	if want := (EventCounts{Arg: 5, Func: 1}); s.EventCounts() != want {
		t.Errorf("counts = %+v, want %+v", s.EventCounts(), want)
	}
	if s.Now() != 5*time.Millisecond || s.seq != 6 {
		t.Errorf("now %v, seq %d; want 5ms, 6", s.Now(), s.seq)
	}
}

// TestLaneOutOfOrderPushPanics: a push earlier than the lane's newest
// entry would break the lane's order, so it panics, naming the lane
// and both times, whether it comes from AfterArg or from Cycle's
// re-queue. There pollers at 1, 15 and 55 ms are cycled from an event
// at 0; the 1 ms poller's re-poll at 11 ms precedes the 55 ms tail.
// The pass's state is written back before the panic: the refused
// re-queue's pop is dispatched, its push is not.
func TestLaneOutOfOrderPushPanics(t *testing.T) {
	catch := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return "no panic"
	}
	nop := func(any) {}

	s := New(1)
	s.NewLane(nop)
	lane := s.NewLane(nop)
	lane.AfterArg(2*time.Millisecond, 1)
	want := "sim: lane 1: push at 1ms precedes its newest entry at 2ms"
	if msg := catch(func() { lane.AfterArg(time.Millisecond, 2) }); msg != want {
		t.Errorf("AfterArg: panic = %q, want %q", msg, want)
	}
	if lane.n != 1 || s.seq != 1 {
		t.Errorf("the refused push left lane %d, seq %d; want 1, 1", lane.n, s.seq)
	}

	s = New(1)
	lane = s.NewLane(nop)
	for _, at := range []time.Duration{1, 15, 55} {
		lane.AfterArg(at*time.Millisecond, int(at))
	}
	s.After(0, func() { lane.Cycle(10 * time.Millisecond) })
	want = "sim: lane 0: push at 11ms precedes its newest entry at 55ms"
	if msg := catch(func() { s.Run(math.MaxInt64) }); msg != want {
		t.Errorf("Cycle: panic = %q, want %q", msg, want)
	}
	if lane.n != 2 || s.seq != 4 || s.Now() != time.Millisecond || s.Steps() != 2 || s.EventCounts().Arg != 1 {
		t.Errorf("the refused re-queue left lane %d, seq %d, now %v, steps %d, counts %+v; want 2, 4, 1ms, 2, Arg 1",
			lane.n, s.seq, s.Now(), s.Steps(), s.EventCounts())
	}
}

// TestLaneRingGrowsAndWraps pushes past the ring's capacity while the
// head sits mid-ring, across a Reset that must keep the capacity.
func TestLaneRingGrowsAndWraps(t *testing.T) {
	s := New(1)
	var got []int
	lane := s.NewLane(func(a any) {
		if a == "late" {
			t.Error("event survived Reset")
			return
		}
		got = append(got, a.(int))
	})
	for round := 0; round < 2; round++ {
		got = got[:0]
		for i := 0; i < 5; i++ {
			lane.AfterArg(time.Duration(i), i)
		}
		s.RunUntil(2) // head moves to ring index 3
		for i := 5; i < 40; i++ {
			lane.AfterArg(time.Duration(i), i)
		}
		s.Run(math.MaxInt64)
		for i, v := range got {
			if v != i {
				t.Fatalf("round %d: lane dispatched out of order: %v", round, got)
			}
		}
		if len(got) != 40 {
			t.Fatalf("round %d: dispatched %d of 40", round, len(got))
		}
		capBefore := len(lane.ring)
		lane.AfterArg(time.Hour, "late")
		s.Reset(1)
		if lane.n != 0 || len(lane.ring) != capBefore {
			t.Fatalf("Reset left %d entries, ring %d (was %d)", lane.n, len(lane.ring), capBefore)
		}
		for _, e := range lane.ring {
			if e.arg != nil {
				t.Fatalf("Reset left a payload in the ring")
			}
		}
	}
}
