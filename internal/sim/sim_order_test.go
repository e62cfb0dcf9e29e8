package sim

import (
	"fmt"
	"testing"
	"time"
)

// Order-equivalence oracle: refSim reimplements the Simulator's public
// scheduling semantics on the slice-backed binary heap the calendar
// queue replaced. Both engines are driven through an identical
// deterministic workload (same schedule calls, same in-callback
// decisions, same timer races) and must dispatch in the identical
// order — this is the invariant that keeps every simulation result
// byte-for-byte unchanged by the scheduler swap.

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
	now    time.Duration
	seq    uint64
	events []refEvent
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

func (r *refSim) At(t time.Duration, fn func()) {
	if t < r.now {
		t = r.now
	}
	r.seq++
	r.push(refEvent{at: t, seq: r.seq, fn: fn})
}

func (r *refSim) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	r.At(r.now+d, fn)
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
			t.set = false
			t.fn()
		}
		return true
	}
	if e.pfn != nil {
		e.pfn(e.parg)
		return true
	}
	e.fn()
	return true
}

func (r *refSim) Run() {
	for r.step() {
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
// The lane hooks schedule on lane i of the wheel Simulator (numLanes
// of them); the reference heap has no lanes, so it maps them to its
// plain After and AfterArg, which is exactly what a lane must equal.
type engine struct {
	now          func() time.Duration
	after        func(time.Duration, func())
	at           func(time.Duration, func())
	afterArg     func(time.Duration, func(any), any)
	laneAfter    func(i int, d time.Duration, fn func())
	laneAfterArg func(i int, d time.Duration, fn func(any), arg any)
	runUntil     func(time.Duration)
	run          func()
	timerSet     func(i int, d time.Duration)
	timerCut     func(i int)
}

// The workload's lanes: fifoLane is fed one constant delay per
// workload, so its pushes never go back in time and all stay in its
// ring, the way a link's deliveries and a server's blocked polls do;
// mixedLane is fed workloadDelay, so many of its pushes are earlier
// than its tail and take the fallback to the main queue.
const (
	fifoLane  = 0
	mixedLane = 1
	numLanes  = 2
)

func wheelEngine(s *Simulator, timers []*Timer, lanes []*Lane) engine {
	return engine{
		now:          s.Now,
		after:        s.After,
		at:           s.At,
		afterArg:     s.AfterArg,
		laneAfter:    func(i int, d time.Duration, fn func()) { lanes[i].After(d, fn) },
		laneAfterArg: func(i int, d time.Duration, fn func(any), arg any) { lanes[i].AfterArg(d, fn, arg) },
		runUntil:     s.RunUntil,
		run:          s.Run,
		timerSet:     func(i int, d time.Duration) { timers[i].Reset(d) },
		timerCut:     func(i int) { timers[i].Stop() },
	}
}

func refEngine(r *refSim, timers []*refTimer) engine {
	return engine{
		now:          func() time.Duration { return r.now },
		after:        r.After,
		at:           r.At,
		afterArg:     r.AfterArg,
		laneAfter:    func(_ int, d time.Duration, fn func()) { r.After(d, fn) },
		laneAfterArg: func(_ int, d time.Duration, fn func(any), arg any) { r.AfterArg(d, fn, arg) },
		runUntil:     r.RunUntil,
		run:          r.Run,
		timerSet:     func(i int, d time.Duration) { timers[i].Reset(d) },
		timerCut:     func(i int) { timers[i].Stop() },
	}
}

// workloadDelay maps a decision word to a delay that exercises every
// queue region: same-tick bursts (zero and sub-tick), in-wheel ticks,
// the exact wheel-horizon edge, and far-future overflow events.
func workloadDelay(w uint64) time.Duration {
	switch w % 8 {
	case 0:
		return 0 // same-time burst: FIFO via seq
	case 1:
		return time.Duration(w % 1000) // sub-tick
	case 2:
		return time.Duration(w%64) << tickBits // nearby ticks
	case 3:
		return wheelSize << tickBits // horizon edge (d == wheelSize)
	case 4:
		return (wheelSize + 1 + time.Duration(w%977)) << tickBits // far heap
	case 5:
		return -time.Duration(w % 100) // negative: clamps to "now"
	case 6:
		return time.Duration(w % (4 << tickBits)) // tick straddles
	default:
		return time.Duration(w % uint64(3*time.Second)) // wide spread
	}
}

// driveWorkload runs one deterministic scripted scenario on an engine
// and returns the dispatch log. Every callback appends its identity
// and may schedule follow-ups or race the timer set, with all choices
// keyed off splitmix64 so the wheel and the reference heap see the
// same decisions at the same points.
func driveWorkload(e engine, key uint64, nSeed, nTimers int, log *[]string) {
	// The FIFO lane's one delay ranges over the same queue regions
	// from workload to workload; zero makes same-time ties likely.
	fifoDelay := max(0, workloadDelay(splitmix64(key^0x1a2e)))
	var fire func(id uint64)
	// fireArg is built once, as AfterArg's callers do: the id rides
	// through the queue as the payload.
	fireArg := func(a any) { fire(a.(uint64)) }
	fire = func(id uint64) {
		*log = append(*log, fmt.Sprintf("%d@%d", id, e.now()))
		w := splitmix64(key ^ id)
		switch w % 6 {
		case 0: // chain a follow-up event
			child := id*2 + 1
			if child < uint64(nSeed)*8 {
				e.after(workloadDelay(splitmix64(w)), func() { fire(child) })
			}
		case 1: // timer race: re-arm over a pending generation
			e.timerSet(int(w%uint64(nTimers)), workloadDelay(splitmix64(w+1)))
		case 2: // timer race: cancel whatever is pending
			e.timerCut(int((w >> 8) % uint64(nTimers)))
		case 3: // absolute-time schedule, possibly in the past (clamps)
			child := id*2 + 2
			if child < uint64(nSeed)*8 {
				at := e.now() + workloadDelay(splitmix64(w+2)) - time.Millisecond
				e.at(at, func() { fire(child) })
			}
		case 4: // payload-carrying schedule
			child := id*2 + 1
			if child < uint64(nSeed)*8 {
				e.afterArg(workloadDelay(splitmix64(w+3)), fireArg, child)
			}
		case 5: // lane schedule, plain or payload-carrying
			child := id*2 + 2
			if child < uint64(nSeed)*8 {
				laneSchedule(e, splitmix64(w+4), fifoDelay, fireArg, func() { fire(child) }, child)
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
			laneSchedule(e, w, fifoDelay, fireArg, func() { fire(id) }, id)
		default:
			e.after(workloadDelay(w), func() { fire(id) })
		}
	}
	for i := 0; i < nTimers; i++ {
		e.timerSet(i, workloadDelay(splitmix64(key+uint64(i)*0xabcd)))
	}
	// Mix RunUntil windows (peek path: clock advances without
	// dispatch) with a final drain.
	e.runUntil(150 * time.Millisecond)
	e.runUntil(150 * time.Millisecond) // idempotent re-run at same time
	e.runUntil(2600 * time.Millisecond)
	e.run()
}

// laneSchedule pushes one event, chosen by the decision word w, onto
// the FIFO lane at fifoDelay or onto the mixed lane at workloadDelay,
// as a plain (fn) or a payload-carrying (fireArg, id) callback.
func laneSchedule(e engine, w uint64, fifoDelay time.Duration, fireArg func(any), fn func(), id uint64) {
	i, d := fifoLane, fifoDelay
	if w>>40&1 == 1 {
		i, d = mixedLane, workloadDelay(w)
	}
	if w>>41&1 == 1 {
		e.laneAfterArg(i, d, fireArg, id)
	} else {
		e.laneAfter(i, d, fn)
	}
}

// runBoth executes the identical workload on a wheel Simulator and the
// reference heap and returns both logs. The Simulator s may be a
// freshly-constructed or a Reset one — the log must not differ. Its
// first numLanes lanes are made here if s has fewer.
func runBoth(s *Simulator, key uint64, nSeed, nTimers int) (wheel, ref []string) {
	wt := make([]*Timer, nTimers)
	for i := range wt {
		i := i
		wt[i] = s.NewTimer(func() { wheel = append(wheel, fmt.Sprintf("T%d@%d", i, s.Now())) })
	}
	for len(s.lanes) < numLanes {
		s.NewLane()
	}
	driveWorkload(wheelEngine(s, wt, s.lanes), key, nSeed, nTimers, &wheel)

	r := &refSim{}
	rt := make([]*refTimer, nTimers)
	for i := range rt {
		i := i
		rt[i] = &refTimer{r: r, fn: func() { ref = append(ref, fmt.Sprintf("T%d@%d", i, r.now)) }}
	}
	driveWorkload(refEngine(r, rt), key, nSeed, nTimers, &ref)
	return wheel, ref
}

func diffLogs(t *testing.T, label string, wheel, ref []string) {
	t.Helper()
	n := len(wheel)
	if len(ref) < n {
		n = len(ref)
	}
	for i := 0; i < n; i++ {
		if wheel[i] != ref[i] {
			t.Fatalf("%s: dispatch %d diverges: wheel=%s ref=%s", label, i, wheel[i], ref[i])
		}
	}
	if len(wheel) != len(ref) {
		t.Fatalf("%s: dispatch count diverges: wheel=%d ref=%d", label, len(wheel), len(ref))
	}
}

// TestWheelMatchesReferenceHeap is the main order-equivalence
// property: across many randomized workloads — far-future events,
// same-tick bursts, Timer Reset/Stop races over pending generations,
// negative-delay clamping, RunUntil windows, FIFO lane pushes and
// out-of-order ones that fall back — the calendar queue and its lanes
// dispatch in exactly the reference heap's (at, seq) order.
func TestWheelMatchesReferenceHeap(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		key := splitmix64(uint64(trial) * 0x2545f4914f6cdd1d)
		s := New(int64(trial))
		wheel, ref := runBoth(s, key, 40, 4)
		if len(wheel) == 0 {
			t.Fatalf("trial %d: empty dispatch log", trial)
		}
		diffLogs(t, fmt.Sprintf("trial %d", trial), wheel, ref)
	}
}

// TestWheelMatchesReferenceAfterReset re-runs fresh workloads on a
// Reset simulator: the recycled wheel (buckets, pool freelist, cur/far
// heaps, lane rings) must behave exactly like a new one against a
// fresh reference.
func TestWheelMatchesReferenceAfterReset(t *testing.T) {
	s := New(1)
	for round := 0; round < 8; round++ {
		key := splitmix64(0xfeed + uint64(round))
		if round > 0 {
			s.Reset(int64(round))
		}
		wheel, ref := runBoth(s, key, 30, 3)
		diffLogs(t, fmt.Sprintf("round %d", round), wheel, ref)
	}
}

// FuzzWheelOrder lets the fuzzer hunt for workload keys whose dispatch
// order diverges between the wheel and the reference heap. Run as a
// plain test it checks the seed corpus; `go test -fuzz=FuzzWheelOrder`
// explores further.
func FuzzWheelOrder(f *testing.F) {
	f.Add(uint64(0), uint8(10))
	f.Add(uint64(0xdeadbeef), uint8(60))
	f.Add(^uint64(0), uint8(33))
	f.Fuzz(func(t *testing.T, key uint64, n uint8) {
		nSeed := int(n%64) + 1
		s := New(int64(key))
		wheel, ref := runBoth(s, key, nSeed, 3)
		nn := len(wheel)
		if len(ref) < nn {
			nn = len(ref)
		}
		for i := 0; i < nn; i++ {
			if wheel[i] != ref[i] {
				t.Fatalf("dispatch %d diverges: wheel=%s ref=%s", i, wheel[i], ref[i])
			}
		}
		if len(wheel) != len(ref) {
			t.Fatalf("dispatch count diverges: wheel=%d ref=%d", len(wheel), len(ref))
		}
	})
}
