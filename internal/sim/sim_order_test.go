package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// Order-equivalence oracle: refSim reimplements the Simulator's public
// scheduling semantics on a plain slice-backed binary heap of events,
// with no pool and no lanes, and its timers push a key on every Reset.
// Both engines are driven through an identical deterministic workload
// (same schedule calls, same in-callback decisions, same timer races)
// and must dispatch in the identical order and count the same events,
// apart from the superseded timer keys the Simulator never pushes —
// this is the invariant that keeps every simulation result
// byte-for-byte unchanged by the queue's layout.
//
// The pollers' delay is always positive. A zero-delay blocked poller
// would poll forever at one instant, and Lane.Cycle, which runs no code
// per poll, has no way to stop it, so zero-delay cycling is outside
// Cycle's contract and these tests no longer cover same-instant
// re-queues of a cycled poll.

type refEvent struct {
	at    time.Duration
	seq   uint64
	fn    func()
	pfn   func(any)
	parg  any
	timer *refTimer
	gen   uint64
}

func (e *refEvent) before(o *refEvent) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

type refSim struct {
	now     time.Duration
	seq     uint64
	events  []refEvent
	rng     *rand.Rand
	stopped bool
	counts  EventCounts
}

func (r *refSim) push(e refEvent) {
	r.events = append(r.events, e)
	i := len(r.events) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !r.events[i].before(&r.events[p]) {
			break
		}
		r.events[i], r.events[p] = r.events[p], r.events[i]
		i = p
	}
}

func (r *refSim) pop() refEvent {
	min := r.events[0]
	n := len(r.events) - 1
	r.events[0] = r.events[n]
	r.events = r.events[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := l
		if rc := l + 1; rc < n && r.events[rc].before(&r.events[l]) {
			small = rc
		}
		if !r.events[small].before(&r.events[i]) {
			break
		}
		r.events[i], r.events[small] = r.events[small], r.events[i]
		i = small
	}
	return min
}

func (r *refSim) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	r.seq++
	r.push(refEvent{at: r.now + d, seq: r.seq, fn: fn})
}

func (r *refSim) AfterArg(d time.Duration, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	r.seq++
	r.push(refEvent{at: r.now + d, seq: r.seq, pfn: fn, parg: arg})
}

func (r *refSim) step() bool {
	if len(r.events) == 0 {
		return false
	}
	e := r.pop()
	r.now = e.at
	if e.timer != nil {
		t := e.timer
		if t.gen == e.gen && t.set {
			r.counts.TimerLive++
			t.set = false
			t.fn()
		} else {
			r.counts.TimerStale++
		}
		return true
	}
	if e.pfn != nil {
		r.counts.Arg++
		e.pfn(e.parg)
		return true
	}
	r.counts.Func++
	e.fn()
	return true
}

func (r *refSim) Stop() { r.stopped = true }

func (r *refSim) Run(limit time.Duration) {
	for !r.stopped && r.now < limit && r.step() {
	}
}

func (r *refSim) RunUntil(t time.Duration) {
	for len(r.events) > 0 && r.events[0].at <= t {
		r.step()
	}
	if r.now < t {
		r.now = t
	}
}

type refTimer struct {
	r   *refSim
	fn  func()
	gen uint64
	set bool
}

func (t *refTimer) Reset(d time.Duration) {
	t.gen++
	t.set = true
	at := t.r.now + d
	if at < t.r.now {
		at = t.r.now
	}
	t.r.seq++
	t.r.push(refEvent{at: at, seq: t.r.seq, timer: t, gen: t.gen})
}

func (t *refTimer) Stop() {
	t.gen++
	t.set = false
}

// splitmix64 gives both engines the same pseudo-random decision stream
// without touching either simulator's rand.Rand.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// engine abstracts the two schedulers so one workload drives both.
// The lane hook schedules arg for lane i's handler on lane i of the
// Simulator (numLanes of them); the reference heap has no lanes, so it
// maps it to its plain AfterArg with that handler, which is exactly
// what a lane must equal. cycle runs Lane.Cycle on the poll lane and
// takes one discarded poll draw per re-queued poll, and drop drops a
// poller's pending entries; the reference heap maps both to nothing,
// so there every re-poll goes through its dispatch loop and draws from
// its own math/rand generator, and a stopped poller's poll returns at
// once, which is exactly what cycling, dead entries (and the
// Simulator's Rand) must equal.
type engine struct {
	now          func() time.Duration
	rand         func() drawer
	argCount     func() uint64 // AfterArg events dispatched
	after        func(time.Duration, func())
	afterArg     func(time.Duration, func(any), any)
	laneAfterArg func(i int, d time.Duration, arg any)
	cycle        func(d time.Duration)
	drop         func(arg any)
	stop         func()
	run          func(limit time.Duration)
	runUntil     func(time.Duration)
	timerSet     func(i int, d time.Duration)
	timerCut     func(i int)
	// onTimer is what timer i's callback calls and onLane[i] is lane
	// i's handler; the workload sets them.
	onTimer *func(i int)
	onLane  *[numLanes]func(any)
}

// drawer is the part of a generator the workload draws from: the
// Simulator's Rand or the reference's math/rand.Rand.
type drawer interface {
	Int63() int64
	Int63n(n int64) int64
}

// The workload's lanes: fifoLane is fed one constant delay per
// workload, so its pushes never go back in time, the way a blocked
// worker's re-polls do; mixedLane is fed workloadDelay clamped to its
// newest entry, the way a link clamps each arrival to the previous
// one, so its pushes tie and spread; pollLane carries pollers that
// re-poll at one constant positive delay while a shared flag stays
// blocked and cycle in place, the way a server's blocked workers do.
const (
	fifoLane  = 0
	mixedLane = 1
	pollLane  = 2
	numLanes  = 3
)

// pollDrawLimit is the rejection limit of a poll's Int63n(1000) draw.
var pollDrawLimit = Int63nLimit(1000)

// simEngine drives s; cycled counts the polls Lane.Cycle re-queued in
// place. When a Run returns, every armed timer's deadline must be on
// the heap, as it is in the eager reference; a line in log marks each
// one that is not.
func simEngine(s *Simulator, timers []*Timer, lanes []*Lane, onTimer *func(int), onLane *[numLanes]func(any), cycled *int, log *[]string) engine {
	return engine{
		now:          s.Now,
		rand:         func() drawer { return s.Rand() },
		argCount:     func() uint64 { return s.counts.Arg },
		after:        s.After,
		afterArg:     s.AfterArg,
		laneAfterArg: func(i int, d time.Duration, arg any) { lanes[i].AfterArg(d, arg) },
		cycle: func(d time.Duration) {
			k := lanes[pollLane].Cycle(d)
			s.Rand().SkipBelow(k, pollDrawLimit)
			*cycled += k
		},
		drop: lanes[pollLane].Drop,
		stop: s.Stop,
		run: func(limit time.Duration) {
			s.Run(limit)
			for i, t := range timers {
				if t.Armed() && !deadlineQueued(s, t) {
					*log = append(*log, fmt.Sprintf("T%d's deadline is off the heap", i))
				}
			}
		},
		runUntil: s.RunUntil,
		timerSet: func(i int, d time.Duration) { timers[i].Reset(d) },
		timerCut: func(i int) { timers[i].Stop() },
		onTimer:  onTimer,
		onLane:   onLane,
	}
}

// deadlineQueued reports whether the heap holds t's deadline key.
func deadlineQueued(s *Simulator, t *Timer) bool {
	for _, k := range s.heap {
		if k.seq == t.seq && k.at == t.at && s.pool[k.idx].timer == t {
			return true
		}
	}
	return false
}

func refEngine(r *refSim, timers []*refTimer, onTimer *func(int), onLane *[numLanes]func(any)) engine {
	var handlers [numLanes]func(any)
	for i := range handlers {
		handlers[i] = func(a any) { onLane[i](a) }
	}
	return engine{
		now:          func() time.Duration { return r.now },
		rand:         func() drawer { return r.rng },
		argCount:     func() uint64 { return r.counts.Arg },
		after:        r.After,
		afterArg:     r.AfterArg,
		laneAfterArg: func(i int, d time.Duration, arg any) { r.AfterArg(d, handlers[i], arg) },
		cycle:        func(time.Duration) {},
		drop:         func(any) {},
		stop:         r.Stop,
		run:          r.Run,
		runUntil:     r.RunUntil,
		timerSet:     func(i int, d time.Duration) { timers[i].Reset(d) },
		timerCut:     func(i int) { timers[i].Stop() },
		onTimer:      onTimer,
		onLane:       onLane,
	}
}

// runWindow is the limit of the workload's Run window.
const runWindow = 100 * time.Millisecond

// workloadDelay maps a decision word to a delay from the spread the
// simulation schedules: same-time bursts, sub-µs chains, ms-scale
// steps, about 2.1 s, several seconds out, and negative delays.
func workloadDelay(w uint64) time.Duration {
	switch w % 8 {
	case 0:
		return 0 // same-time burst: FIFO via seq
	case 1:
		return time.Duration(w % 1000) // sub-µs
	case 2:
		return time.Duration(w%64) * 512 * time.Microsecond // ms-scale
	case 3:
		return 2147 * time.Millisecond // about 2.1 s
	case 4:
		return 2148*time.Millisecond + time.Duration(w%977)*512*time.Microsecond // several seconds
	case 5:
		return -time.Duration(w % 100) // negative: clamps to "now"
	case 6:
		return time.Duration(w % uint64(2*time.Millisecond)) // up to 2 ms
	default:
		return time.Duration(w % uint64(3*time.Second)) // wide spread
	}
}

// timerDelay maps a decision word to a timer delay: three in four
// inside the Run window, where a re-arm can leave its deadline off the
// heap, the rest from workloadDelay's spread.
func timerDelay(w uint64) time.Duration {
	if w%4 == 0 {
		return workloadDelay(w >> 2)
	}
	return time.Duration(w % uint64(runWindow/4))
}

// driveWorkload runs one deterministic scripted scenario on an engine
// and returns the dispatch log. Every callback appends its identity
// and may schedule follow-ups or race the timer set, with all choices
// keyed off splitmix64 so the Simulator and the reference heap see the
// same decisions at the same points.
func driveWorkload(e engine, key uint64, nSeed, nTimers int, log *[]string) {
	// The FIFO lane's delay ranges over the same queue regions from
	// workload to workload; zero makes same-time ties likely. The poll
	// lane's is a positive multiple of 512µs, which ties with the
	// ms-scale events: a blocked poller at zero delay would poll
	// forever at one instant, in any engine.
	fifoDelay := max(0, workloadDelay(splitmix64(key^0x1a2e)))
	pollDelay := time.Duration(1+splitmix64(key^0x9011)%64) * 512 * time.Microsecond
	// The entry that makes the log stopAt long, or any after it, calls
	// Stop: a fired event, a timer or a poller's exit. A blocked poll
	// logs nothing, since the polls Cycle re-queues run no code.
	stopAt := len(*log) + 1 + int(splitmix64(key^0x5e)%200)
	note := func(entry string) {
		*log = append(*log, entry)
		if len(*log) >= stopAt {
			e.stop()
		}
	}
	lanes := laneFeed{fifoDelay: fifoDelay}

	// The workload tracks each timer's deadline as it set it, so that a
	// re-arm can aim later or earlier than the pending one, or at the
	// Run window's limit. A firing timer re-arms itself at times, within
	// a budget so that the workload ends.
	deadline := make([]time.Duration, nTimers)
	arm := func(i int, d time.Duration) {
		e.timerSet(i, d)
		deadline[i] = e.now() + max(d, 0)
	}
	rearmBudget := 200
	*e.onTimer = func(i int) {
		note(fmt.Sprintf("T%d@%d a%d", i, e.now(), e.argCount()))
		if w := splitmix64(key ^ uint64(i)<<40 ^ uint64(e.now())); w%3 == 0 && rearmBudget > 0 {
			rearmBudget--
			arm(i, timerDelay(splitmix64(w)))
		}
	}
	var fire func(id uint64)
	// fireArg is built once, as AfterArg's callers do: the id rides
	// through the queue as the payload.
	fireArg := func(a any) { fire(a.(uint64)) }

	// Pollers model blocked server workers. While blocked holds, a
	// poll draws from the simulator's rand, logs nothing and re-polls
	// pollDelay later; a stopped poller's entries are dropped (the
	// reference's poll returns at once), and an unblocked one logs its
	// exit and goes on as an ordinary event. Only the other events flip
	// blocked or stop a poller, so every poll Cycle re-queues in place
	// finds the state its caller found. An event at twice the Run window
	// releases the pollers for good, so that a workload whose flag never
	// clears still ends; every fired event and timer logs the AfterArg
	// count and fired events a draw, so a poll dispatched, drawn or
	// re-queued differently shows at the next one.
	blocked := splitmix64(key^0x77)&1 == 1
	released := false
	stopped := map[uint64]bool{}
	stopPoller := func(id uint64) {
		stopped[id] = true
		e.drop(id)
	}
	*e.onLane = [numLanes]func(any){fireArg, fireArg, func(a any) {
		id := a.(uint64)
		if stopped[id] {
			return
		}
		if blocked && !released {
			e.rand().Int63n(1000)
			e.laneAfterArg(pollLane, pollDelay, a)
			e.cycle(pollDelay)
			return
		}
		note(fmt.Sprintf("p%d@%d", id, e.now()))
		stopPoller(id)
		fire(id)
	}}
	startPoller := func(id uint64) {
		e.laneAfterArg(pollLane, pollDelay, id)
		if stopped[id] {
			e.drop(id)
		}
	}
	e.after(2*runWindow, func() {
		released = true
		note(fmt.Sprintf("release@%d", e.now()))
	})

	fire = func(id uint64) {
		note(fmt.Sprintf("%d@%d a%d r%d", id, e.now(), e.argCount(), e.rand().Int63n(1000)))
		w := splitmix64(key ^ id)
		switch w % 10 {
		case 0: // chain a follow-up event
			child := id*2 + 1
			if child < uint64(nSeed)*8 {
				e.after(workloadDelay(splitmix64(w)), func() { fire(child) })
			}
		case 1: // timer race: re-arm over a pending deadline
			arm(int(w%uint64(nTimers)), timerDelay(splitmix64(w+1)))
		case 2: // timer race: cancel whatever is pending
			e.timerCut(int((w >> 8) % uint64(nTimers)))
		case 3: // a schedule possibly in the past (negative delays clamp)
			child := id*2 + 2
			if child < uint64(nSeed)*8 {
				e.after(workloadDelay(splitmix64(w+2))-time.Millisecond, func() { fire(child) })
			}
		case 4: // payload-carrying schedule
			child := id*2 + 1
			if child < uint64(nSeed)*8 {
				e.afterArg(workloadDelay(splitmix64(w+3)), fireArg, child)
			}
		case 5: // lane schedule
			child := id*2 + 2
			if child < uint64(nSeed)*8 {
				lanes.push(e, splitmix64(w+4), child)
			}
		case 6: // start a poller
			child := id*2 + 1
			if child < uint64(nSeed)*8 {
				startPoller(child)
			}
		case 7: // flip the pollers' shared state
			blocked = !blocked
		case 8: // stop a poller, which may be pending or not yet born
			stopPoller(id*2 + 1 + (w>>8)%4)
		case 9: // re-arm a timer against its deadline or the window
			i := int((w >> 16) % uint64(nTimers))
			switch (w >> 24) % 4 {
			case 0: // later than (or at) its deadline
				arm(i, max(deadline[i]-e.now(), 0)+max(timerDelay(splitmix64(w+5)), 0))
			case 1: // earlier than its deadline
				arm(i, (deadline[i]-e.now())/2)
			case 2: // at or past the Run window's limit
				arm(i, runWindow-e.now()+time.Duration(w>>32%3)*time.Millisecond)
			case 3: // stop, then re-arm
				e.timerCut(i)
				arm(i, timerDelay(splitmix64(w+6)))
			}
		}
	}
	for i := 0; i < nSeed; i++ {
		w := splitmix64(key + uint64(i)*0x51ed2701)
		id := uint64(i)
		switch {
		case w>>60 < 4:
			e.afterArg(workloadDelay(w), fireArg, id)
		case w>>60 < 8:
			lanes.push(e, w, id)
		case w>>60 < 11:
			startPoller(id)
		default:
			e.after(workloadDelay(w), func() { fire(id) })
		}
	}
	for i := 0; i < nTimers; i++ {
		arm(i, timerDelay(splitmix64(key+uint64(i)*0xabcd)))
	}
	// Mix a Run window that a Stop (possibly inside a cycle) or its
	// clock limit ends and RunUntil windows (peek path: clock advances
	// without dispatch), which ignore the stop flag, with a final
	// drain, also a RunUntil. The clock where Run returns is logged,
	// so a loop or a cycle that stops elsewhere diverges. Timers re-arm
	// in all of them.
	e.run(runWindow)
	*log = append(*log, fmt.Sprintf("run returned@%d", e.now()))
	e.runUntil(150 * time.Millisecond)
	e.runUntil(150 * time.Millisecond) // idempotent re-run at same time
	e.runUntil(2600 * time.Millisecond)
	e.runUntil(math.MaxInt64)
	// The rand streams must also end in the same state.
	*log = append(*log, fmt.Sprintf("end r%d", e.rand().Int63()))
}

// laneFeed feeds the FIFO and mixed lanes. mixedLast is the time of
// the mixed lane's newest push, to which each later push is clamped.
type laneFeed struct {
	fifoDelay time.Duration
	mixedLast time.Duration
}

// push schedules id, chosen by the decision word w, on the FIFO lane
// at fifoDelay or on the mixed lane at workloadDelay clamped to the
// lane's newest push; both lanes' handler fires it.
func (f *laneFeed) push(e engine, w uint64, id uint64) {
	if w>>40&1 == 0 {
		e.laneAfterArg(fifoLane, f.fifoDelay, id)
		return
	}
	d := max(workloadDelay(w), 0, f.mixedLast-e.now())
	f.mixedLast = e.now() + d
	e.laneAfterArg(mixedLane, d, id)
}

// outcome is what one engine's run of a workload shows: its dispatch
// log and its event counts.
type outcome struct {
	log    []string
	counts EventCounts
}

// runBoth executes the identical workload on a Simulator seeded with
// seed and on the reference heap, and returns both outcomes and the
// number of polls the Simulator cycled in place. The Simulator s may
// be a freshly-constructed or a Reset one — the outcome must not
// differ. Its first numLanes lanes are made here if s has fewer, and
// their handlers are bound to this workload's.
func runBoth(s *Simulator, seed int64, key uint64, nSeed, nTimers int) (got, ref outcome, cycled int) {
	var onSim, onRef func(int)
	var laneSim, laneRef [numLanes]func(any)
	wt := make([]*Timer, nTimers)
	for i := range wt {
		i := i
		wt[i] = s.NewTimer(func() { onSim(i) })
	}
	for len(s.lanes) < numLanes {
		s.NewLane(nil)
	}
	for i := 0; i < numLanes; i++ {
		s.lanes[i].fn = func(a any) { laneSim[i](a) }
	}
	driveWorkload(simEngine(s, wt, s.lanes, &onSim, &laneSim, &cycled, &got.log), key, nSeed, nTimers, &got.log)
	got.counts = s.EventCounts()

	r := &refSim{rng: rand.New(rand.NewSource(seed))}
	rt := make([]*refTimer, nTimers)
	for i := range rt {
		i := i
		rt[i] = &refTimer{r: r, fn: func() { onRef(i) }}
	}
	driveWorkload(refEngine(r, rt, &onRef, &laneRef), key, nSeed, nTimers, &ref.log)
	ref.counts = r.counts
	return got, ref, cycled
}

// compareRuns fails the test unless the two outcomes have the same
// log and the same event counts, except that the Simulator may pop
// fewer stale timer keys than the reference, which pushes one on every
// Reset.
func compareRuns(t *testing.T, label string, got, ref outcome) {
	t.Helper()
	diffLogs(t, label, got.log, ref.log)
	g, r := got.counts, ref.counts
	if g.TimerLive != r.TimerLive || g.Arg != r.Arg || g.Func != r.Func || g.TimerStale > r.TimerStale {
		t.Fatalf("%s: event counts %+v, reference %+v", label, g, r)
	}
}

func diffLogs(t *testing.T, label string, got, ref []string) {
	t.Helper()
	n := len(got)
	if len(ref) < n {
		n = len(ref)
	}
	for i := 0; i < n; i++ {
		if got[i] != ref[i] {
			t.Fatalf("%s: dispatch %d diverges: got=%s ref=%s", label, i, got[i], ref[i])
		}
	}
	if len(got) != len(ref) {
		t.Fatalf("%s: dispatch count diverges: got=%d ref=%d", label, len(got), len(ref))
	}
}

// TestQueueMatchesReferenceHeap is the main order-equivalence
// property: across many randomized workloads — events seconds out,
// same-time bursts, Timer Reset/Stop races over pending deadlines,
// re-arms later, earlier, at the Run window's limit, after a Stop and
// inside the timer's own callback, negative-delay clamping, Run
// windows ended by a Stop or the clock limit, RunUntil windows, FIFO
// lane pushes constant and clamped, pollers cycled in place — the key
// heap and its lanes dispatch in exactly the reference heap's
// (at, seq) order, return from Run at the same clock, count the same
// events and draw the same rand values.
func TestQueueMatchesReferenceHeap(t *testing.T) {
	total, unpushed := 0, uint64(0)
	for trial := 0; trial < 60; trial++ {
		key := splitmix64(uint64(trial) * 0x2545f4914f6cdd1d)
		s := New(int64(trial))
		got, ref, cycled := runBoth(s, int64(trial), key, 40, 4)
		if len(got.log) == 0 {
			t.Fatalf("trial %d: empty dispatch log", trial)
		}
		compareRuns(t, fmt.Sprintf("trial %d", trial), got, ref)
		total += cycled
		unpushed += ref.counts.TimerStale - got.counts.TimerStale
	}
	if total == 0 {
		t.Fatal("no workload cycled a poll in place")
	}
	if unpushed == 0 {
		t.Fatal("no workload left a superseded deadline off the heap")
	}
}

// TestQueueMatchesReferenceAfterReset re-runs fresh workloads on a
// Reset simulator: the recycled queue (pool freelist, heap, lane
// rings) must behave exactly like a new one against a fresh reference.
func TestQueueMatchesReferenceAfterReset(t *testing.T) {
	s := New(1)
	for round := 0; round < 8; round++ {
		key := splitmix64(0xfeed + uint64(round))
		if round > 0 {
			s.Reset(int64(round))
		}
		seed := int64(1)
		if round > 0 {
			seed = int64(round)
		}
		got, ref, _ := runBoth(s, seed, key, 30, 3)
		compareRuns(t, fmt.Sprintf("round %d", round), got, ref)
	}
}

// FuzzQueueOrder lets the fuzzer hunt for workload keys whose dispatch
// order diverges between the Simulator and the reference heap. Run as
// a plain test it checks the seed corpus; `go test -fuzz=FuzzQueueOrder`
// explores further.
func FuzzQueueOrder(f *testing.F) {
	f.Add(uint64(0), uint8(10))
	f.Add(uint64(0xdeadbeef), uint8(60))
	f.Add(^uint64(0), uint8(33))
	f.Fuzz(func(t *testing.T, key uint64, n uint8) {
		nSeed := int(n%64) + 1
		s := New(int64(key))
		got, ref, _ := runBoth(s, int64(key), key, nSeed, 3)
		compareRuns(t, "fuzz", got, ref)
	})
}
