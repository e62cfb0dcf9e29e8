package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// Lane.Cycle must be invisible: a run that cycles blocked polls in
// place must leave the same dispatch log, clock, Steps, EventCounts,
// rand state and pending lane as one that sends every poll through
// the dispatch loop, however the loop stops. pollRig builds the two
// runs from one model of the h2sim server's blocked workers.

const pollEvery = 10 * time.Millisecond

// rigMaxSteps bounds every rig's run, so that a Cycle that overran the
// unblock event fails with a panic instead of polling forever.
const rigMaxSteps = 100_000

// pollRig runs n pollers on one lane. While blocked holds, a poll
// draws from the simulator's rand and re-polls pollEvery later; an
// event at unblockAt clears blocked, after which each poller logs its
// exit. With cycle set, a blocked poll calls Lane.Cycle. The entry that
// makes the log stopAt long calls Stop, so a Stop comes from a callback
// or, when the poll is cycled, from keep.
type pollRig struct {
	s       *Simulator
	lane    *Lane
	cycle   bool
	blocked bool
	log     []string
	stopAt  int // log length at which to call Stop; 0 = never
	cycled  int // polls Cycle dispatched in place
	pollFn  func(any)
	keepFn  func(any) bool
}

func newPollRig(cycle bool, n int, unblockAt time.Duration) *pollRig {
	r := &pollRig{s: New(7), cycle: cycle, blocked: true}
	r.s.MaxSteps = rigMaxSteps
	r.lane = r.s.NewLane()
	r.keepFn = func(a any) bool {
		r.cycled++
		return r.look(a.(int))
	}
	r.pollFn = func(a any) {
		if !r.look(a.(int)) {
			return
		}
		r.lane.AfterArg(pollEvery, r.pollFn, a)
		if r.cycle {
			r.lane.Cycle(pollEvery, r.keepFn)
		}
	}
	for i := 0; i < n; i++ {
		r.lane.AfterArg(time.Duration(i)*time.Millisecond, r.pollFn, i)
	}
	r.s.After(unblockAt, func() {
		r.blocked = false
		r.note(fmt.Sprintf("unblock@%v", r.s.Now()))
	})
	return r
}

// look is one poll of poller id: it logs the poll and reports whether
// the poller re-polls.
func (r *pollRig) look(id int) bool {
	if !r.blocked {
		r.note(fmt.Sprintf("%d done@%v", id, r.s.Now()))
		return false
	}
	r.note(fmt.Sprintf("%d@%v r%d", id, r.s.Now(), r.s.Rand().Int63n(1000)))
	return true
}

// note logs entry and calls Stop if the log has reached stopAt.
func (r *pollRig) note(entry string) {
	r.log = append(r.log, entry)
	if len(r.log) == r.stopAt {
		r.s.Stop()
	}
}

// state renders everything cycling must leave as stepwise dispatch
// does, except the rand state, which finish compares.
func (r *pollRig) state() string {
	return fmt.Sprintf("now=%v steps=%d counts=%+v lane=%d log=%s",
		r.s.Now(), r.s.Steps(), r.s.EventCounts(), r.lane.n, strings.Join(r.log, ","))
}

// finish drains both rigs with RunUntil, which ignores a Stop, and
// compares their final states and rand streams; the cycling rig must
// have cycled some polls.
func finish(t *testing.T, label string, cyc, step *pollRig) {
	t.Helper()
	cyc.s.RunUntil(math.MaxInt64)
	step.s.RunUntil(math.MaxInt64)
	if c, s := cyc.state(), step.state(); c != s {
		t.Errorf("%s: after the drain, cycling %s\nstepwise %s", label, c, s)
	}
	if c, s := cyc.s.Rand().Int63(), step.s.Rand().Int63(); c != s {
		t.Errorf("%s: rand streams diverge: next draw %d cycling, %d stepwise", label, c, s)
	}
	if cyc.cycled == 0 {
		t.Errorf("%s: nothing was cycled", label)
	}
}

func TestCycleMatchesStepwise(t *testing.T) {
	cyc, step := newPollRig(true, 3, time.Second), newPollRig(false, 3, time.Second)
	cyc.s.Run(math.MaxInt64)
	step.s.Run(math.MaxInt64)
	finish(t, "Run", cyc, step)
	if want := uint64(3*100 + 3 + 1); cyc.s.Steps() != want {
		t.Errorf("steps = %d, want %d", cyc.s.Steps(), want)
	}
}

// TestCycleStopsWhereRunStops calls Stop at each number of logged
// polls in turn. The first poll's Cycle runs every poll up to the
// unblock event, so most Stops come from keep inside a cycle, which
// must stop on the same event as the loop. It then puts Run's clock
// limit between polls, on a poll's time and on the next nanosecond: a
// cycle must dispatch every poll before the limit and the first one at
// or past it, as the loop does, and no other.
func TestCycleStopsWhereRunStops(t *testing.T) {
	for stopAt := 1; stopAt <= 40; stopAt++ {
		cyc, step := newPollRig(true, 3, time.Second), newPollRig(false, 3, time.Second)
		cyc.stopAt, step.stopAt = stopAt, stopAt
		cyc.s.Run(math.MaxInt64)
		step.s.Run(math.MaxInt64)
		label := fmt.Sprintf("Stop at %d polls", stopAt)
		if c, s := cyc.state(), step.state(); c != s {
			t.Fatalf("%s: cycling %s\nstepwise %s", label, c, s)
		}
		if cyc.s.Steps() != uint64(stopAt) {
			t.Fatalf("%s: stopped after %d steps", label, cyc.s.Steps())
		}
		finish(t, label, cyc, step)
	}
	for _, limit := range []time.Duration{0, time.Millisecond, 95 * time.Millisecond,
		100 * time.Millisecond, 100*time.Millisecond + 1, 102 * time.Millisecond} {
		cyc, step := newPollRig(true, 3, time.Second), newPollRig(false, 3, time.Second)
		cyc.s.Run(limit)
		step.s.Run(limit)
		label := fmt.Sprintf("Run(%v)", limit)
		if c, s := cyc.state(), step.state(); c != s {
			t.Fatalf("%s: cycling %s\nstepwise %s", label, c, s)
		}
		if now := cyc.s.Now(); now < limit && cyc.lane.n > 0 {
			t.Fatalf("%s: stopped at %v with polls pending", label, now)
		}
		finish(t, label, cyc, step)
	}
}

// TestCycleStopsAtRunUntilBound puts RunUntil's bound between polls,
// on a poll's time and on the next nanosecond: a cycle must dispatch
// every poll at or before the bound and none after it.
func TestCycleStopsAtRunUntilBound(t *testing.T) {
	for _, bound := range []time.Duration{0, time.Millisecond, 95 * time.Millisecond,
		100 * time.Millisecond, 100*time.Millisecond + 1, 102 * time.Millisecond} {
		cyc, step := newPollRig(true, 3, time.Second), newPollRig(false, 3, time.Second)
		cyc.s.RunUntil(bound)
		step.s.RunUntil(bound)
		label := fmt.Sprintf("RunUntil(%v)", bound)
		if c, s := cyc.state(), step.state(); c != s {
			t.Fatalf("%s: cycling %s\nstepwise %s", label, c, s)
		}
		finish(t, label, cyc, step)
	}
}

// TestCycleMaxStepsPanicsAsStepwise sets MaxSteps inside a cycle and
// at its edges: cycling must panic on the same step, at the same time
// and with the same message as stepwise dispatch. Step 301 is the
// unblock event; losing it to the panic would leave the pollers
// polling forever.
func TestCycleMaxStepsPanicsAsStepwise(t *testing.T) {
	run := func(r *pollRig) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		r.s.Run(math.MaxInt64)
		return "no panic"
	}
	for _, limit := range []uint64{1, 2, 3, 4, 17, 299, 301, 303} {
		cyc, step := newPollRig(true, 3, time.Second), newPollRig(false, 3, time.Second)
		cyc.s.MaxSteps, step.s.MaxSteps = limit, limit
		label := fmt.Sprintf("MaxSteps %d", limit)
		c, s := run(cyc), run(step)
		if c != s || !strings.Contains(c, fmt.Sprintf("exceeded %d steps", limit)) {
			t.Fatalf("%s: cycling panicked %q, stepwise %q", label, c, s)
		}
		if c, s := cyc.state(), step.state(); c != s {
			t.Fatalf("%s: cycling %s\nstepwise %s", label, c, s)
		}
		cyc.s.MaxSteps, step.s.MaxSteps = rigMaxSteps, rigMaxSteps
		finish(t, label, cyc, step)
	}
}

// TestCycleKeepMustNotSchedule: a keep that schedules would move the
// bound Cycle computed once, so Cycle refuses it.
func TestCycleKeepMustNotSchedule(t *testing.T) {
	r := newPollRig(true, 2, time.Second)
	r.keepFn = func(any) bool {
		r.s.After(time.Millisecond, func() {})
		return true
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "keep scheduled") {
			t.Errorf("panic = %q, want one about keep scheduling", msg)
		}
	}()
	r.s.Run(math.MaxInt64)
}

// TestCycleOutsideLoop: no loop is running, so there is no next event
// to dispatch and Cycle leaves the lane alone.
func TestCycleOutsideLoop(t *testing.T) {
	r := newPollRig(true, 3, time.Second)
	r.lane.Cycle(pollEvery, r.keepFn)
	if r.lane.n != 3 || r.s.Steps() != 0 || r.cycled != 0 {
		t.Fatalf("Cycle outside a loop: lane %d, steps %d, cycled %d", r.lane.n, r.s.Steps(), r.cycled)
	}
}
