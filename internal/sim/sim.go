// Package sim provides a deterministic discrete-event simulator: a
// virtual clock, an event queue, restartable timers, and a seeded
// random generator.
//
// All of the network, transport, and HTTP/2 simulation layers in this
// repository are event-driven callbacks scheduled on one Simulator, so
// a whole attack trial — hundreds of packets, retransmission timers,
// jitter distributions — runs deterministically from a single seed and
// completes in microseconds of real time.
//
// # Scheduler internals
//
// Each pending event lives in one slot of a shared pool and does not
// move until it is dispatched; a freelist recycles the slots, so the
// pool grows only to the max-pending high-water mark. What the queue
// orders is a 24-byte, pointer-free key (at, seq, slot index), in one
// 4-ary min-heap. Dispatch pops the minimal key, copies the callback
// out of its slot and frees the slot before running it.
//
// A heap sift moves keys that hold no pointers, so it pays neither a
// large copy nor a GC write barrier; the callbacks and payloads stay
// put in the pool. The heap is small: lanes (below) carry link
// deliveries and blocked-worker polls, nearly nine in ten events, so
// the main queue holds only timer keys (about one per armed timer, see
// "Timers"), worker steps and middlebox delays. Four children per node
// keep the heap half as deep as a binary one, for the same code. Dispatch follows the exact
// (at, seq) total order, which the property tests in
// sim_order_test.go pin down against a reference binary heap, so the
// queue's layout cannot move a result. EventCounts splits the
// dispatched events by kind, and a test in internal/experiment pins
// them for fixed seeds, so a queue change is shown to move only the
// cost per event.
//
// # Timers
//
// A timer is re-armed far more often than it fires: a stream's stall
// timer on every DATA frame, TCP's RTO timer on every ACK. Each Reset
// takes the next seq and stores the deadline (at, seq) in the Timer; a
// popped key of the timer is live if the timer is set and the key's
// seq is the deadline's, and is counted stale otherwise. A Reset
// pushes a key for its deadline unless a Run loop (not the RunUntil
// drain) is running, the deadline is before that loop's limit and the
// timer's newest pushed key is still queued and fires no later. Then
// it pushes nothing: when that key pops, stale, it pushes the deadline
// with its stored (at, seq), and when Run returns it pushes every
// deadline still off the heap.
//
// So every queued key is one an eager queue (a push per Reset) also
// holds, with the same (at, seq), and comes up no later than the
// deadlines it covers: the dispatch order, Lane.Cycle's bound and
// RunUntil's peek are the eager queue's. The keys never pushed are
// superseded deadlines before the running limit. An eager queue pops
// them as stale, within that Run unless Stop ends it (then in the
// drain), and the next event or the drain's end overwrites their clock
// reading. The one other trace they leave is where Run returns when
// the queue runs dry, so Run then moves the clock to the latest of
// them. Only EventCounts.TimerStale and Steps see the difference.
//
// # Lanes
//
// Most events need no priority queue at all. A link delivers in the
// order it sends (arrivals are clamped to the previous one), and a
// blocked server worker re-polls a fixed interval later, so in both
// sources the event times never decrease in scheduling order. Such a
// source schedules through a Lane (Simulator.NewLane): a FIFO ring
// beside the main queue whose entries all run the one handler the lane
// was made with, so an entry is just its argument and its key (events
// by owner: a link's deliveries, a server's polls). Each lane entry takes the (at, seq) key
// AfterArg would have given it, from the same seq counter, and
// dispatch takes the global (at, seq) minimum over the main
// queue's head and every lane's head. A lane is sorted because its
// pushes are, so the dispatch order is exactly the one the main queue
// alone would produce. A push earlier than the lane's newest entry
// would break that, so it panics, naming the lane and both times; the
// two sources cannot make one (Link.Send clamps each arrival to the
// previous one, and every poll re-queues blockedPoll after its own
// time). Lane events never touch the pool or the heap.
//
// # Stopping
//
// Run(limit) dispatches while Stop has not been called, the clock is
// before limit and events remain. It checks before each event, the
// first one included, so the first event at or past the limit still
// runs. Reset clears the flag; RunUntil, the drain, ignores it. The
// model calls Stop at the one point where a page load ends (the last
// scheduled object completes, the connection breaks), so the loop
// tests a flag and the clock instead of re-deriving that state before
// every event.
//
// # Cycling
//
// Some lane events are polls that find nothing changed: a blocked
// server worker that finds its socket buffer still full only draws and
// re-queues itself blockedPoll later. Until some other event runs, the
// state it looked at cannot change, so every poll due before the next
// other event would do the same. Lane.Cycle runs those polls as one
// pass that calls nothing per poll: it pops the lane's head while the
// head precedes the earliest pending event outside the lane (computed
// once per call) and the running loop's stop rule still allows it
// (Run's stop flag and clock limit, RunUntil's bound on event times),
// and re-queues each popped live entry d later with the next seq, as
// AfterArg from its handler would, straight into the ring's tail slot.
// Only the order check stays per re-queue (the panic AfterArg gives).
// The pass keeps head, count, seq and clock in locals and writes them
// back once, with its pops added to Steps and EventCounts.Arg. Cycle
// returns the number of entries it re-queued, and the caller then
// takes that many discarded draws in one loop (Rand.SkipBelow): nothing
// else draws in between, so the stream is the stepwise one.
//
// A dead entry (Lane.Drop, a cancelled worker's poll) still takes its
// turn: the pass or the loop dispatches and counts it, then removes it
// with no draw and no call, as a handler that returned at once would.
// MaxSteps is a budget: the pass stops before the pop that would
// exceed it, which the dispatch loop then pops and panics on, with the
// same time and, since the caller has taken its draws, the same
// generator state as stepwise dispatch. The dispatch order, every
// clock reading and every rand draw are therefore the ones stepwise
// dispatch would produce.
//
// The queue stays off the garbage collector's books: there is no
// per-event allocation and no container/heap interface boxing, timers
// schedule themselves without closures, and AfterArg carries a payload
// pointer through the queue so packet delivery needs no per-packet
// closure either. In steady state — once the pool, the heap and the
// lane rings have grown to the simulation's high-water mark — After,
// AfterArg, Timer.Reset, Lane.AfterArg and Lane.Cycle allocate zero
// bytes (see sim_alloc_test.go).
//
// # Randomness
//
// Every draw of a trial comes from one Rand per Simulator, seeded by
// New and Reset. Rand is math/rand's additive lagged Fibonacci source
// with the methods the model calls, as one concrete type: a draw is a
// direct, mostly inlined call instead of an interface dispatch, and
// its stream equals rand.New(rand.NewSource(seed))'s for every seed
// (rand_test.go pins it), so determinism rests on this package, not on
// the toolchain's math/rand.
//
// Key types: Simulator (clock + event queue + seeded generator), Rand
// (the generator), Timer (a restartable scheduled callback) and Lane
// (a FIFO side queue for a source whose event times never decrease).
// The package replaces the paper's physical testbed (section V): one
// Simulator hosts one page load, and every sweep trial owns a private
// Simulator, which is what lets internal/pipeline execute trials
// concurrently without sharing.
package sim

import (
	"fmt"
	"math"
	"time"
)

// event is one scheduled callback, held in a pool slot that does not
// move while the event is pending. Exactly one of the three dispatch
// forms is used: fn (an After closure), pfn+parg (a closure-free
// callback with argument), or timer (a Timer key, live only if its
// seq is still the timer's deadline's when it pops).
type event struct {
	fn    func()
	pfn   func(any)
	parg  any
	timer *Timer
	next  int32 // pool index of the next free slot, -1 = end
}

// key is what the heap orders: an event's (at, seq) and the pool slot
// holding the rest of it. It holds no pointers, so a sift moves 24
// bytes and pays no write barrier.
type key struct {
	at  time.Duration
	seq uint64 // tie-breaker: FIFO among same-time events
	idx int32
}

// before orders keys by (at, seq) — the same total order the original
// binary heap used, so dispatch order (and therefore every simulation
// result) is unchanged by the queue layout.
func (k *key) before(o *key) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// Simulator is a single-threaded discrete-event scheduler. It is not
// safe for concurrent use; all callbacks run on the caller's
// goroutine inside Run.
type Simulator struct {
	now time.Duration
	seq uint64
	rng Rand

	// The main queue: heap is a 4-ary (at, seq) min-heap of the keys of
	// the events pending in pool, whose slots stay put until dispatch;
	// free heads the list of unused slots.
	heap []key
	pool []event
	free int32 // -1 = none

	// lanes are the FIFO side queues made by NewLane; they persist
	// across Reset, which empties them.
	lanes []*Lane

	// Steps counts executed events, to bound runaway simulations;
	// counts splits them by dispatch kind.
	steps  uint64
	counts EventCounts

	// stopped is set by Stop and cleared by Reset; Run dispatches
	// nothing once it is set.
	stopped bool

	// rule is the stop rule of the dispatch loop that is running, which
	// Lane.Cycle obeys; the zero rule means no loop is running.
	rule stopRule

	// unpushed lists the timers whose deadline a Reset left off the
	// heap during the running Run, which pushes what is left of them
	// when it returns. lost is the latest superseded deadline that was
	// never pushed (see "Timers" in the package doc).
	unpushed []*Timer
	lost     time.Duration

	// MaxSteps aborts Run with a panic after this many events; zero
	// means no limit. Used to catch livelocks in tests.
	MaxSteps uint64
}

// New returns a simulator whose randomness derives entirely from seed.
func New(seed int64) *Simulator {
	s := &Simulator{free: -1}
	s.rng.Seed(seed)
	return s
}

// Reset rewinds the simulator to the state New(seed) would produce,
// keeping every queue's backing storage so a reused simulator
// schedules allocation-free from the first event. Pending events are
// discarded and timers disarmed; callers that pooled objects riding the queue (AfterArg
// payloads) should reclaim them with ForEachPendingArg first.
// Re-seeding the generator in place yields the identical stream a
// fresh one would, so trial results do not depend on whether the
// simulator was reused.
func (s *Simulator) Reset(seed int64) {
	s.heap = s.heap[:0]
	// Rebuild the pool freelist over every slot, zeroing the events so
	// dead closures and payloads are unpinned. Freelist order only
	// selects storage slots, never dispatch order, so this cannot
	// perturb results.
	// A timer with a key in the pool is disarmed: its keys and any
	// deadline they cover are discarded with the queue.
	for i := range s.pool {
		if t := s.pool[i].timer; t != nil {
			t.set, t.qseq = false, 0
		}
		s.pool[i] = event{next: int32(i) - 1}
	}
	s.free = int32(len(s.pool)) - 1
	s.clearUnpushed()
	s.lost = 0
	for _, l := range s.lanes {
		l.reset()
	}
	s.now = 0
	s.seq = 0
	s.steps = 0
	s.counts = EventCounts{}
	s.stopped = false
	s.rule = stopRule{}
	s.MaxSteps = 0
	s.rng.Seed(seed)
}

// ForEachPendingArg visits the payload of every pending AfterArg
// event, lanes included, in unspecified order. It exists so object
// pools can recover in-flight payloads (e.g. netem packets still "on
// the wire") before Reset discards the queue. Dispatch zeroes a slot,
// so every slot with a payload holds a pending event.
func (s *Simulator) ForEachPendingArg(f func(any)) {
	for i := range s.pool {
		if s.pool[i].parg != nil {
			f(s.pool[i].parg)
		}
	}
	for _, l := range s.lanes {
		for i := 0; i < l.n; i++ {
			if e := &l.ring[(l.head+i)&(len(l.ring)-1)]; e.arg != nil {
				f(e.arg)
			}
		}
	}
}

// Now returns the current virtual time (elapsed since simulation
// start).
func (s *Simulator) Now() time.Duration { return s.now }

// Rand returns the simulator's deterministic random generator.
func (s *Simulator) Rand() *Rand { return &s.rng }

// Steps reports how many events have executed.
func (s *Simulator) Steps() uint64 { return s.steps }

// EventCounts splits the executed events by dispatch kind. The four
// counts sum to Steps. They depend only on the seed and the model, not
// on the host or the queue layout, so tests pin them exactly.
type EventCounts struct {
	TimerLive  uint64 // Timer firings that ran the timer's callback
	TimerStale uint64 // Timer keys that popped superseded by a later Reset or Stop
	Arg        uint64 // AfterArg callbacks
	Func       uint64 // After callbacks
}

// EventCounts reports the executed events by dispatch kind.
func (s *Simulator) EventCounts() EventCounts { return s.counts }

// schedule takes the next seq and pushes an event at time at.
func (s *Simulator) schedule(at time.Duration) *event {
	s.seq++
	return s.push(at, s.seq)
}

// push takes a pool slot for an event keyed (at, seq), pushes its key
// onto the heap (sift-up) and returns the slot for the caller to fill
// in before anything else is scheduled. It is the one heap-insert
// path. The only allocations are the amortized growth of the pool and
// the heap, which stops once they reach their high-water marks.
func (s *Simulator) push(at time.Duration, seq uint64) *event {
	idx := s.free
	if idx >= 0 {
		s.free = s.pool[idx].next
	} else {
		s.pool = append(s.pool, event{})
		idx = int32(len(s.pool)) - 1
	}
	k := key{at: at, seq: seq, idx: idx}
	h := append(s.heap, k)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !k.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
	s.heap = h
	return &s.pool[idx]
}

// popHead removes the heap's minimum key: the last key fills the hole
// at the root and sifts down past the least of each node's children.
func (s *Simulator) popHead() {
	n := len(s.heap) - 1
	h, k := s.heap[:n], s.heap[n]
	s.heap = h
	if n == 0 {
		return
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m, end := c, min(c+4, n)
		for j := c + 1; j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&k) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = k
}

// peekAt returns the virtual time of the next pending event, lanes
// included, without dispatching it.
func (s *Simulator) peekAt() (time.Duration, bool) {
	var min time.Duration
	ok := len(s.heap) > 0
	if ok {
		min = s.heap[0].at
	}
	for _, l := range s.lanes {
		if l.n > 0 {
			if at := l.ring[l.head].at; !ok || at < min {
				min, ok = at, true
			}
		}
	}
	return min, ok
}

// After schedules fn d from now. Negative d behaves like zero: fn
// runs now, after the events already queued for now.
func (s *Simulator) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.schedule(s.now + d).fn = fn
}

// AfterArg schedules fn(arg) d from now. Unlike After with a closure
// over arg, AfterArg allocates nothing per call when fn is a reused
// func value (typically built once at construction time) and arg is a
// pointer: the argument rides through the event queue instead of a
// fresh closure. This is the per-packet scheduling path of
// internal/netem.
func (s *Simulator) AfterArg(d time.Duration, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	e := s.schedule(s.now + d)
	e.pfn, e.parg = fn, arg
}

// step executes the earliest pending event — the (at, seq) minimum
// over the main queue's head and every lane's head — and returns
// false when nothing is pending.
func (s *Simulator) step() bool {
	var lane *Lane
	var lk *laneEntry
	for _, l := range s.lanes {
		if l.n > 0 {
			if e := &l.ring[l.head]; lk == nil || e.before(lk.at, lk.seq) {
				lane, lk = l, e
			}
		}
	}
	var (
		at    time.Duration
		seq   uint64
		fn    func()
		pfn   func(any)
		parg  any
		timer *Timer
	)
	if k := s.mainFirst(lk); k != nil {
		// Free the slot before dispatch, so the callback's own
		// scheduling can reuse it and the pool does not pin dead
		// closures.
		idx := k.idx
		at, seq = k.at, k.seq
		s.popHead()
		e := &s.pool[idx]
		fn, pfn, parg, timer = e.fn, e.pfn, e.parg, e.timer
		*e = event{next: s.free}
		s.free = idx
	} else if lane != nil {
		at, arg := lk.at, lk.arg
		*lk = laneEntry{}
		lane.head = (lane.head + 1) & (len(lane.ring) - 1)
		lane.n--
		s.dispatch(at, &s.counts.Arg)
		if arg != nil {
			lane.fn(arg)
		}
		return true
	} else {
		return false
	}
	switch {
	case timer != nil:
		if seq == timer.qseq {
			timer.qseq = 0
		}
		if timer.set && timer.seq == seq {
			s.dispatch(at, &s.counts.TimerLive)
			timer.set = false
			timer.fn()
		} else {
			s.dispatch(at, &s.counts.TimerStale)
			if timer.set && timer.qseq == 0 {
				// The deadline a Reset left off the heap behind this
				// key: queue it now, before it can come up.
				timer.push()
			}
		}
	case pfn != nil:
		s.dispatch(at, &s.counts.Arg)
		pfn(parg)
	default:
		s.dispatch(at, &s.counts.Func)
		fn()
	}
	return true
}

// dispatch accounts one popped event before its callback runs: the
// clock moves to its time at, Steps and the kind's count rise, and
// exceeding MaxSteps panics. step and Lane.Cycle both go through it.
func (s *Simulator) dispatch(at time.Duration, kind *uint64) {
	s.now = at
	s.steps++
	if s.MaxSteps != 0 && s.steps > s.MaxSteps {
		panic(stepLimit{s.MaxSteps, at})
	}
	*kind++
}

// stepLimit is the MaxSteps panic value. Its message is formatted only
// when printed, which keeps dispatch small enough to inline.
type stepLimit struct {
	max uint64
	at  time.Duration
}

func (e stepLimit) Error() string {
	return fmt.Sprintf("sim: exceeded %d steps at t=%v", e.max, e.at)
}

// mainFirst returns the main queue's head key when it precedes the
// lane head lk (nil: no lane event pending), or nil when the main
// queue is empty or the lane head comes first.
func (s *Simulator) mainFirst(lk *laneEntry) *key {
	if len(s.heap) == 0 {
		return nil
	}
	k := &s.heap[0]
	if lk != nil && lk.before(k.at, k.seq) {
		return nil
	}
	return k
}

// stopRule is what ends the running dispatch loop, recorded so that
// Lane.Cycle stops where the loop would: Run's stop flag and clock
// limit, checked before each event, or RunUntil's bound on event
// times.
type stopRule struct {
	running bool          // a Run or RunUntil loop is dispatching
	drain   bool          // RunUntil is running: the stop flag is ignored
	limit   time.Duration // Run: the clock limit; RunUntil: the latest event time
}

// runAs records rule as the running loop's for the rest of the caller,
// and returns the rule it replaces for the caller to restore: a loop
// run from inside a callback hands the outer loop's rule back.
func (s *Simulator) runAs(rule stopRule) stopRule {
	prev := s.rule
	s.rule = rule
	return prev
}

// Stop makes Run return before its next event. The flag stays set
// until Reset; RunUntil ignores it.
func (s *Simulator) Stop() { s.stopped = true }

// Run executes events while Stop has not been called, the clock is
// before limit and events remain. It checks before each event, the
// first one included, so the first event at or past limit runs and
// then Run returns.
func (s *Simulator) Run(limit time.Duration) {
	defer s.endRun(s.runAs(stopRule{running: true, limit: limit}))
	for !s.stopped && s.now < limit && s.step() {
	}
	if !s.stopped && s.now < limit {
		// The queue ran dry. The superseded deadlines that were never
		// pushed would have popped too, the latest one last.
		s.now = max(s.now, s.lost)
	}
}

// endRun pushes every deadline the returning Run left off the heap, so
// that no later loop sees a different queue, and restores the rule
// prev.
func (s *Simulator) endRun(prev stopRule) {
	for _, t := range s.unpushed {
		if t.set && t.seq != t.qseq {
			t.push()
		}
	}
	s.clearUnpushed()
	s.rule = prev
}

// clearUnpushed empties the unpushed list, keeping its capacity.
func (s *Simulator) clearUnpushed() {
	for i, t := range s.unpushed {
		t.listed = false
		s.unpushed[i] = nil
	}
	s.unpushed = s.unpushed[:0]
}

// RunUntil executes events with time <= t, then advances the clock to
// exactly t. It ignores the stop flag.
func (s *Simulator) RunUntil(t time.Duration) {
	defer s.runAs(s.runAs(stopRule{running: true, drain: true, limit: t}))
	for {
		at, ok := s.peekAt()
		if !ok || at > t {
			break
		}
		s.step()
	}
	if s.now < t {
		s.now = t
	}
}

// Timer is a restartable one-shot timer bound to a Simulator. The
// zero value is not usable; construct with NewTimer.
//
// A Timer schedules itself directly into the event queue, without a
// closure: each Reset takes a seq and stores the deadline (at, seq),
// and a key carrying the timer pointer fires fn only if its seq is
// still the deadline's when it pops. A Reset inside Run whose deadline
// comes no earlier than the timer's newest queued key pushes nothing;
// that key re-pushes the deadline when it pops (see "Timers" in the
// package doc). Reset and Stop allocate nothing in steady state.
type Timer struct {
	s      *Simulator
	fn     func()
	at     time.Duration // the deadline, while set
	seq    uint64        // the deadline's seq: the one key that fires fn
	qat    time.Duration // the time of the newest key pushed for the timer
	qseq   uint64        // its seq while it is queued, else 0
	set    bool
	listed bool // in the simulator's unpushed list
}

// NewTimer returns a stopped timer that runs fn when it fires.
func (s *Simulator) NewTimer(fn func()) *Timer {
	return &Timer{s: s, fn: fn}
}

// Reset (re)arms the timer to fire d from now, cancelling any earlier
// deadline. Negative d fires "now", like After.
func (t *Timer) Reset(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s := t.s
	t.supersede()
	s.seq++
	t.at, t.seq, t.set = s.now+d, s.seq, true
	// Inside Run, before its limit, behind a queued key that fires no
	// later: push nothing, as that key's pop or Run's return will.
	// Outside Run the rule's limit is zero, which no deadline precedes.
	if t.qseq != 0 && t.qat <= t.at && !s.rule.drain && t.at < s.rule.limit {
		if !t.listed {
			t.listed = true
			s.unpushed = append(s.unpushed, t)
		}
		return
	}
	t.push()
}

// push queues a key for the timer's deadline.
func (t *Timer) push() {
	t.s.push(t.at, t.seq).timer = t
	t.qat, t.qseq = t.at, t.seq
}

// supersede records a deadline that is about to be replaced or
// cancelled while it was never pushed: it is lost to the queue.
func (t *Timer) supersede() {
	if t.set && t.seq != t.qseq {
		t.s.lost = max(t.s.lost, t.at)
	}
}

// Stop disarms the timer. It is safe to stop a stopped timer.
func (t *Timer) Stop() {
	t.supersede()
	t.set = false
}

// Armed reports whether the timer has a pending deadline.
func (t *Timer) Armed() bool { return t.set }

// Deadline returns the pending fire time; valid only while Armed.
func (t *Timer) Deadline() time.Duration { return t.at }

// Lane is a FIFO side queue of a Simulator for a source whose event
// times never decrease in scheduling order (see "Lanes" in the package
// doc). Every entry runs the lane's one handler, and AfterArg behaves
// exactly as the Simulator's own with that handler: the same (at, seq)
// key, the same dispatch order, the same EventCounts kind. A push
// earlier than the lane's newest pending entry panics. Like the
// Simulator, a Lane is not safe for concurrent use.
type Lane struct {
	s    *Simulator
	fn   func(any)   // the handler every live entry runs
	id   int         // index among the simulator's lanes, for the order panic
	ring []laneEntry // len is zero or a power of two
	head int         // ring index of the earliest pending entry
	n    int         // pending entries
}

// laneEntry is one pending lane event: the handler's argument with its
// (at, seq) key. A nil arg marks a dead entry (see Lane.Drop).
type laneEntry struct {
	at  time.Duration
	seq uint64
	arg any
}

// before orders a lane entry against the key (at, seq) in the main
// queue's total order.
func (e *laneEntry) before(at time.Duration, seq uint64) bool {
	return e.at < at || (e.at == at && e.seq < seq)
}

// NewLane returns an empty lane dispatched by s, whose entries run
// fn(arg). The lane lives as long as s: Reset empties it but keeps its
// ring's capacity, so a reused simulator's lanes schedule
// allocation-free.
func (s *Simulator) NewLane(fn func(any)) *Lane {
	l := &Lane{s: s, fn: fn, id: len(s.lanes)}
	s.lanes = append(s.lanes, l)
	return l
}

// AfterArg schedules the lane's handler on arg d from now, exactly as
// Simulator.AfterArg does, doubling the ring when it is full. The
// event time must not precede the lane's newest pending entry;
// AfterArg panics if it does.
func (l *Lane) AfterArg(d time.Duration, arg any) {
	if d < 0 {
		d = 0
	}
	at := l.s.now + d
	if l.n > 0 {
		if tail := l.ring[(l.head+l.n-1)&(len(l.ring)-1)].at; at < tail {
			panic(laneOrder{l.id, at, tail})
		}
	}
	if l.n == len(l.ring) {
		ring := make([]laneEntry, max(8, 2*len(l.ring)))
		for i := 0; i < l.n; i++ {
			ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
		}
		l.ring, l.head = ring, 0
	}
	l.s.seq++
	e := &l.ring[(l.head+l.n)&(len(l.ring)-1)]
	l.n++
	// Field by field: a composite literal is built on the stack and
	// copied with 16-byte loads that straddle its 8-byte stores.
	e.at, e.seq, e.arg = at, l.s.seq, arg
}

// laneOrder is the panic value of a lane push earlier than the lane's
// newest pending entry.
type laneOrder struct {
	lane     int
	at, tail time.Duration
}

func (e laneOrder) Error() string {
	return fmt.Sprintf("sim: lane %d: push at %v precedes its newest entry at %v", e.lane, e.at, e.tail)
}

// Drop marks every pending entry whose arg is arg dead: it keeps its
// place and is still dispatched and counted, but runs nothing, and
// Cycle does not re-queue it. That is what the entry would do if the
// handler returned at once for arg, so a source drops a cancelled
// entry rather than have the handler (or Cycle) ask about it. Drop
// scans the lane's pending entries; arg's dynamic type must be
// comparable.
func (l *Lane) Drop(arg any) {
	mask := len(l.ring) - 1
	for i := 0; i < l.n; i++ {
		if e := &l.ring[(l.head+i)&mask]; e.arg == arg {
			e.arg = nil
		}
	}
}

// Cycle dispatches the lane's entries in place, without returning to
// the dispatch loop and without running the handler, for as long as
// the lane's head is the event the running loop would dispatch next
// and MaxSteps allows it (see "Cycling" in the package doc). Each live
// entry it pops is re-queued d later, in the lane's tail slot, as
// AfterArg(d, arg) from inside the handler would do; a dead one is
// removed. It returns the number of entries re-queued.
//
// Call it at the end of a handler, and only when, until some other
// event runs, the handler would do for each live entry nothing but
// re-queue it d later and take the draws the caller then takes for
// each re-queued entry: since nothing else runs in between, taking
// them after Cycle returns keeps the random stream unchanged. Outside
// a Run or RunUntil loop, Cycle does nothing and returns 0.
func (l *Lane) Cycle(d time.Duration) int {
	s := l.s
	if !s.rule.running || l.n == 0 || !s.rule.drain && s.stopped {
		return 0
	}
	// The earliest pending (at, seq) key outside this lane. Nothing but
	// this lane changes while Cycle runs, so it stays the bound; with
	// nothing outside the lane, no entry reaches the largest key.
	bound := key{at: math.MaxInt64, seq: math.MaxUint64}
	if len(s.heap) > 0 {
		bound = s.heap[0]
	}
	for _, o := range s.lanes {
		if o != l && o.n > 0 {
			if e := &o.ring[o.head]; e.before(bound.at, bound.seq) {
				bound.at, bound.seq = e.at, e.seq
			}
		}
	}
	// The pops MaxSteps leaves: the pass stops before the one that
	// would exceed it, which the dispatch loop then pops and panics on.
	budget := uint64(math.MaxUint64)
	if s.MaxSteps != 0 {
		budget = s.MaxSteps - min(s.steps, s.MaxSteps)
	}
	drain, limit := s.rule.drain, s.rule.limit
	d = max(d, 0)
	ring, mask := l.ring, len(l.ring)-1
	head, n, seq, now := l.head, l.n, s.seq, s.now
	// The newest pending entry's time, for the order check. Once the
	// entry it was read from is popped the lane is empty, and every
	// re-queue is at or after it.
	tail := ring[(head+n-1)&mask].at
	var popped uint64
	kept := 0
	for ; n > 0 && popped < budget; popped++ {
		e := &ring[head&mask]
		if !e.before(bound.at, bound.seq) || drain && e.at > limit || !drain && now >= limit {
			break
		}
		now = e.at
		arg := e.arg
		head = (head + 1) & mask
		n--
		if arg == nil {
			continue
		}
		// Re-queue the entry d later, as AfterArg would: the popped
		// slot is free, so the tail slot needs no growth check, only
		// the order check. The old slot is left as it is; it is
		// outside the pending window and the next push overwrites it.
		at := now + d
		if at < tail {
			l.settle(head, n, seq, now, popped+1)
			panic(laneOrder{l.id, at, tail})
		}
		tail = at
		seq++
		t := &ring[(head+n)&mask]
		n++
		t.at, t.seq, t.arg = at, seq, arg
		kept++
	}
	l.settle(head, n, seq, now, popped)
	return kept
}

// settle writes a Cycle pass's state back: the lane's head and count,
// the seq counter and the clock, and its popped dispatches, each an
// AfterArg event, into Steps and EventCounts.
func (l *Lane) settle(head, n int, seq uint64, now time.Duration, popped uint64) {
	s := l.s
	l.head, l.n = head, n
	s.seq, s.now = seq, now
	s.steps += popped
	s.counts.Arg += popped
}

// reset discards the pending entries and keeps the ring. It zeroes the
// whole ring, since Cycle leaves stale copies of re-queued entries in
// free slots, so no payload stays pinned.
func (l *Lane) reset() {
	clear(l.ring)
	l.head, l.n = 0, 0
}
