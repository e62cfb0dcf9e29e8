package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// Lane.Cycle must be invisible: a run that cycles blocked polls in
// place, running no code for them and taking their draws in one batch
// afterwards, must leave the same clock, Steps, EventCounts, seq
// counter, pending lane entries, rand state and log as one that sends
// every poll through the dispatch loop, however the loop stops.
// pollRig builds the two runs from one model of the h2sim server's
// blocked workers.

const pollEvery = 10 * time.Millisecond

// rigMaxSteps bounds every rig's run, so that a Cycle that overran the
// unblock event fails with a panic instead of polling forever.
const rigMaxSteps = 100_000

// pollLimit is the rejection limit of a poll's discarded draw.
var pollLimit = Int63nLimit(1000)

// pollRig runs n pollers on one lane, poller i first due at i ms. While
// blocked holds, a poll takes one discarded draw and re-polls pollEvery
// later; an event at unblockAt clears blocked, after which each poller
// logs its exit. With cycle set, a blocked poll calls Lane.Cycle after
// its re-queue and takes one draw per poll Cycle re-queued, so the
// polls Cycle pops run no code. Ticks are further plain events, which
// log the clock and a draw. Each plain event, the unblock included,
// counts in events: the stopAt-th calls Stop, and the dropAt-th cancels
// poller dropID, which the cycling rig drops from the lane and the
// stepwise rig's handler ignores from then on, as a cancelled server
// worker's step did.
type pollRig struct {
	s       *Simulator
	lane    *Lane
	cycle   bool
	blocked bool
	log     []string
	events  int   // plain events run
	stopAt  int   // plain event that calls Stop; 0 = never
	dropAt  int   // plain event that cancels dropID; 0 = never
	dropID  int   // the poller to cancel
	dropped bool  // dropID is cancelled
	passes  []int // each Cycle call's re-queued polls
}

func newPollRig(cycle bool, n int, unblockAt time.Duration, ticks ...time.Duration) *pollRig {
	r := &pollRig{s: New(7), cycle: cycle, blocked: true}
	r.s.MaxSteps = rigMaxSteps
	r.lane = r.s.NewLane(r.poll)
	for i := 0; i < n; i++ {
		r.lane.AfterArg(time.Duration(i)*time.Millisecond, i)
	}
	r.s.After(unblockAt, func() {
		r.blocked = false
		r.plain(fmt.Sprintf("unblock@%v", r.s.Now()))
	})
	for _, at := range ticks {
		r.s.After(at, func() {
			r.plain(fmt.Sprintf("tick@%v r%d", r.s.Now(), r.s.Rand().Int63n(1000)))
		})
	}
	return r
}

// poll is the lane's handler: one look of poller a.
func (r *pollRig) poll(a any) {
	id := a.(int)
	if !r.cycle && r.dropped && id == r.dropID {
		return
	}
	if !r.blocked {
		r.log = append(r.log, fmt.Sprintf("%d done@%v", id, r.s.Now()))
		return
	}
	r.s.Rand().Int63Below(pollLimit)
	r.lane.AfterArg(pollEvery, a)
	if r.cycle {
		k := r.lane.Cycle(pollEvery)
		r.s.Rand().SkipBelow(k, pollLimit)
		r.passes = append(r.passes, k)
	}
}

// plain logs entry for a plain event, then cancels a poller or calls
// Stop if this event is the one chosen for it.
func (r *pollRig) plain(entry string) {
	r.log = append(r.log, entry)
	r.events++
	if r.events == r.dropAt {
		r.dropped = true
		if r.cycle {
			r.lane.Drop(r.dropID)
		}
	}
	if r.events == r.stopAt {
		r.s.Stop()
	}
}

// cycled is the number of polls Cycle re-queued.
func (r *pollRig) cycled() int {
	n := 0
	for _, k := range r.passes {
		n += k
	}
	return n
}

// state renders everything cycling must leave as stepwise dispatch
// does, except the rand state, which same compares. Pending lane
// entries are listed in (at, seq) order; a cancelled poller's entry
// reads "dead" in both rigs.
func (r *pollRig) state() string {
	var pending []string
	for i := 0; i < r.lane.n; i++ {
		e := r.lane.ring[(r.lane.head+i)&(len(r.lane.ring)-1)]
		arg := fmt.Sprint(e.arg)
		if e.arg == nil || r.dropped && e.arg == r.dropID {
			arg = "dead"
		}
		pending = append(pending, fmt.Sprintf("%v/%d/%s", e.at, e.seq, arg))
	}
	return fmt.Sprintf("now=%v steps=%d counts=%+v seq=%d lane=%v log=%s",
		r.s.Now(), r.s.Steps(), r.s.EventCounts(), r.s.seq, pending, strings.Join(r.log, ","))
}

// same fails the test unless the two rigs' states and rand states are
// equal.
func same(t *testing.T, label string, cyc, step *pollRig) {
	t.Helper()
	if c, s := cyc.state(), step.state(); c != s {
		t.Fatalf("%s: cycling %s\nstepwise %s", label, c, s)
	}
	if *cyc.s.Rand() != *step.s.Rand() {
		t.Fatalf("%s: rand states differ", label)
	}
}

// finish drains both rigs with RunUntil, which ignores a Stop, and
// compares their final states and rand states; the cycling rig must
// have cycled some polls.
func finish(t *testing.T, label string, cyc, step *pollRig) {
	t.Helper()
	cyc.s.RunUntil(math.MaxInt64)
	step.s.RunUntil(math.MaxInt64)
	same(t, label+", after the drain", cyc, step)
	if cyc.cycled() == 0 {
		t.Errorf("%s: nothing was cycled", label)
	}
}

func TestCycleMatchesStepwise(t *testing.T) {
	cyc, step := newPollRig(true, 3, time.Second), newPollRig(false, 3, time.Second)
	cyc.s.Run(math.MaxInt64)
	step.s.Run(math.MaxInt64)
	same(t, "Run", cyc, step)
	if want := uint64(3*100 + 3 + 1); cyc.s.Steps() != want {
		t.Errorf("steps = %d, want %d", cyc.s.Steps(), want)
	}
	// The first poll's pass runs every poll before the unblock event.
	if want := 3*100 - 1; len(cyc.passes) != 1 || cyc.passes[0] != want {
		t.Errorf("passes = %v, want one of %d", cyc.passes, want)
	}
	finish(t, "Run", cyc, step)
}

// TestCycleStopsWhereRunStops calls Stop from each plain event in turn:
// ticks every 7 ms between the polls, which end the passes, and the
// unblock event. Run must return right after that event with the same
// state in both rigs. It then puts Run's clock limit between polls, on
// a poll's time and on the next nanosecond, with no ticks, so that the
// limit falls inside the first poll's pass: a pass must dispatch every
// poll before the limit and the first one at or past it, as the loop
// does, and no other.
func TestCycleStopsWhereRunStops(t *testing.T) {
	var ticks []time.Duration
	for at := 3500 * time.Microsecond; at < 200*time.Millisecond; at += 7 * time.Millisecond {
		ticks = append(ticks, at)
	}
	for stopAt := 1; stopAt <= len(ticks)+1; stopAt++ {
		cyc, step := newPollRig(true, 3, 150*time.Millisecond, ticks...), newPollRig(false, 3, 150*time.Millisecond, ticks...)
		cyc.stopAt, step.stopAt = stopAt, stopAt
		cyc.s.Run(math.MaxInt64)
		step.s.Run(math.MaxInt64)
		label := fmt.Sprintf("Stop at plain event %d", stopAt)
		same(t, label, cyc, step)
		if cyc.events != stopAt {
			t.Fatalf("%s: stopped after %d plain events", label, cyc.events)
		}
		finish(t, label, cyc, step)
	}
	for _, limit := range []time.Duration{0, time.Millisecond, 95 * time.Millisecond,
		100 * time.Millisecond, 100*time.Millisecond + 1, 102 * time.Millisecond} {
		cyc, step := newPollRig(true, 3, time.Second), newPollRig(false, 3, time.Second)
		cyc.s.Run(limit)
		step.s.Run(limit)
		label := fmt.Sprintf("Run(%v)", limit)
		same(t, label, cyc, step)
		if now := cyc.s.Now(); now < limit && cyc.lane.n > 0 {
			t.Fatalf("%s: stopped at %v with polls pending", label, now)
		}
		finish(t, label, cyc, step)
	}
}

// TestCycleStopsAtRunUntilBound puts RunUntil's bound between polls,
// on a poll's time and on the next nanosecond: a pass must dispatch
// every poll at or before the bound and none after it.
func TestCycleStopsAtRunUntilBound(t *testing.T) {
	for _, bound := range []time.Duration{0, time.Millisecond, 95 * time.Millisecond,
		100 * time.Millisecond, 100*time.Millisecond + 1, 102 * time.Millisecond} {
		cyc, step := newPollRig(true, 3, time.Second), newPollRig(false, 3, time.Second)
		cyc.s.RunUntil(bound)
		step.s.RunUntil(bound)
		label := fmt.Sprintf("RunUntil(%v)", bound)
		same(t, label, cyc, step)
		finish(t, label, cyc, step)
	}
}

// TestCycleMaxStepsPanicsAsStepwise sets MaxSteps inside the first
// poll's pass and at its edges: a pass stops before the pop that
// would exceed it, so cycling must panic with the same value (the
// same step count and time) as stepwise dispatch, leaving the same
// state and the same rand state, since the caller takes the pass's
// draws before the dispatch loop pops the entry and panics. Step 301
// is the unblock event; losing it to the panic would leave the pollers
// polling forever.
func TestCycleMaxStepsPanicsAsStepwise(t *testing.T) {
	run := func(r *pollRig) (v any) {
		defer func() { v = recover() }()
		r.s.Run(math.MaxInt64)
		return nil
	}
	for _, limit := range []uint64{1, 2, 3, 4, 17, 298, 299, 301, 303} {
		cyc, step := newPollRig(true, 3, time.Second), newPollRig(false, 3, time.Second)
		cyc.s.MaxSteps, step.s.MaxSteps = limit, limit
		label := fmt.Sprintf("MaxSteps %d", limit)
		c, s := run(cyc), run(step)
		if p, ok := c.(stepLimit); !ok || p.max != limit || c != s {
			t.Fatalf("%s: cycling panicked %v, stepwise %v", label, c, s)
		}
		same(t, label, cyc, step)
		cyc.s.MaxSteps, step.s.MaxSteps = rigMaxSteps, rigMaxSteps
		finish(t, label, cyc, step)
	}
}

// TestCycleDroppedEntries cancels each of four pollers (first due at
// 0–3 ms) from a tick at 5 ms. The tick ends the first pass, and a
// second tick at 13.5 ms bounds the next: poller 0's poll at 10 ms is
// dispatched by the loop and its pass pops pollers 1, 2 and 3 at 11,
// 12 and 13 ms. So the dropped entry is the loop's (poller 0) or the
// pass's head (1), middle (2) or tail (3). A dead entry is dispatched
// and counted but neither drawn for nor re-queued, as the stepwise
// rig's handler that returns at once for it does.
func TestCycleDroppedEntries(t *testing.T) {
	ticks := []time.Duration{5 * time.Millisecond, 13500 * time.Microsecond}
	for id := 0; id < 4; id++ {
		cyc, step := newPollRig(true, 4, time.Second, ticks...), newPollRig(false, 4, time.Second, ticks...)
		cyc.dropAt, step.dropAt = 1, 1
		cyc.dropID, step.dropID = id, id
		label := fmt.Sprintf("drop poller %d", id)
		cyc.s.RunUntil(20 * time.Millisecond)
		step.s.RunUntil(20 * time.Millisecond)
		same(t, label, cyc, step)
		if len(cyc.passes) < 2 || cyc.passes[0] != 3 || cyc.passes[1] != 2 {
			t.Fatalf("%s: passes %v, want 3 then 2 re-queued", label, cyc.passes)
		}
		cyc.s.Run(math.MaxInt64)
		step.s.Run(math.MaxInt64)
		same(t, label+", after Run", cyc, step)
		if want := uint64(3*100 + 1 + 4 + 3); cyc.s.Steps() != want {
			t.Errorf("%s: steps = %d, want %d", label, cyc.s.Steps(), want)
		}
		finish(t, label, cyc, step)
	}
}

// TestCycleOutsideLoop: no loop is running, so there is no next event
// to dispatch and Cycle leaves the lane alone; after a Stop inside Run,
// the loop dispatches nothing more, and neither does Cycle.
func TestCycleOutsideLoop(t *testing.T) {
	r := newPollRig(true, 3, time.Second)
	if k := r.lane.Cycle(pollEvery); k != 0 || r.lane.n != 3 || r.s.Steps() != 0 {
		t.Fatalf("Cycle outside a loop: re-queued %d, lane %d, steps %d", k, r.lane.n, r.s.Steps())
	}
	r.s.After(0, func() {
		r.s.Stop()
		n, steps := r.lane.n, r.s.Steps()
		if k := r.lane.Cycle(pollEvery); k != 0 || r.lane.n != n || r.s.Steps() != steps {
			t.Errorf("Cycle after Stop: re-queued %d, lane %d → %d, steps %d → %d", k, n, r.lane.n, steps, r.s.Steps())
		}
	})
	r.s.Run(math.MaxInt64)
}
