// Package netem emulates the network path between the client and the
// server on a discrete-event simulator: rate-limited links with
// propagation delay, random jitter, loss, and bounded queues, joined
// by a middlebox vantage point where the adversary observes and
// manipulates traffic.
//
// Topology (one Path):
//
//	client ──linkC2M──▶ ┌───────────┐ ──linkM2S──▶ server
//	client ◀──linkM2C── │ middlebox │ ◀──linkS2M── server
//	                    └───────────┘
//
// The middlebox sees every packet, can drop or delay individual
// packets (the paper's jitter and targeted-drop knobs), and can change
// the rate of its outgoing links (the paper's bandwidth-throttling
// knob).
//
// A packet's payload is a wire.Bytes view of the sender's TCP send
// queue: the segment's literal bytes (record and frame headers) and
// zero runs (DATA payloads, TLS nonce and tag placeholders). Nothing
// here copies it: the links forward the view, and the Reassembler
// holds and delivers views of it. The forwarding plane is
// allocation-free in steady state: packets are recycled through a
// per-Path PacketPool, each link schedules its deliveries on its own
// sim.Lane (a FIFO ring beside the simulator's main event heap) with
// AfterArg instead of per-packet closures, and the Reassembler holds
// out-of-order segments in a sorted slice rather than a map.
//
// Key types: Link (rate/delay/jitter/loss/queue), Path (the four-link
// topology above), Middlebox (per-direction Interceptor and ByteTap
// hooks), Reassembler (the one TCP byte-stream reassembler, shared by
// the middlebox tap and the tcpsim receiver), Packet, and PacketPool.
// This is the paper's threat model (section III): a compromised
// gateway — their OpenWrt router — on the client's path.
package netem

import (
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// HeaderOverhead is the per-packet TCP/IP header cost in bytes added
// to the payload when computing wire size.
const HeaderOverhead = 40

// Packet is one TCP segment on the simulated wire.
type Packet struct {
	Dir trace.Direction

	// Seq is the TCP sequence number of the first payload byte.
	Seq uint32
	// Ack is the cumulative acknowledgement number.
	Ack uint32

	// Payload is the segment's bytes: a view of the sender's stream.
	// A TCP sender drops its bytes once they are acked, so a receiver
	// reads it only from its next expected byte on.
	Payload wire.Bytes
}

// WireLen is the packet's size on the wire including header overhead.
func (p *Packet) WireLen() int { return p.Payload.Len() + HeaderOverhead }

// PacketPool recycles Packets within one
// simulated connection. Like everything else on the hot path it
// belongs to a single Simulator and is not safe for concurrent use.
// A nil pool is valid: Get falls back to plain allocation and Put
// becomes a no-op, so standalone links and tests work unchanged.
type PacketPool struct {
	free []*Packet
}

// Get returns a zeroed packet, reusing a previously Put one when
// available.
func (pp *PacketPool) Get() *Packet {
	if pp != nil {
		if n := len(pp.free); n > 0 {
			p := pp.free[n-1]
			pp.free[n-1] = nil
			pp.free = pp.free[:n-1]
			return p
		}
	}
	return &Packet{}
}

// Len reports how many recycled packets the pool currently holds.
func (pp *PacketPool) Len() int {
	if pp == nil {
		return 0
	}
	return len(pp.free)
}

// Put recycles p with every field cleared. The caller must not touch p
// afterwards.
func (pp *PacketPool) Put(p *Packet) {
	if pp == nil || p == nil {
		return
	}
	*p = Packet{}
	pp.free = append(pp.free, p)
}

// Handler consumes delivered packets.
type Handler func(p *Packet)

// LinkConfig describes one unidirectional link.
type LinkConfig struct {
	// RateBitsPerSec is the serialization rate; zero means infinite.
	RateBitsPerSec int64

	// PropDelay is the fixed propagation delay.
	PropDelay time.Duration

	// Jitter, when non-nil, returns a per-packet extra delay. The link
	// stays FIFO: jitter varies delay but preserves order, as real
	// queues do. (On-path adversarial reordering comes from middlebox
	// Delay decisions, which bypass this.)
	Jitter func(rng *sim.Rand) time.Duration

	// Loss is the probability in [0,1] that a packet is dropped.
	Loss float64

	// MaxQueueDelay bounds the transmit backlog: a packet that would
	// wait longer than this for serialization is tail-dropped. Zero
	// means DefaultMaxQueueDelay.
	MaxQueueDelay time.Duration
}

// DefaultMaxQueueDelay is LinkConfig.MaxQueueDelay's default: the
// backlog of a large router buffer.
const DefaultMaxQueueDelay = 500 * time.Millisecond

func (c LinkConfig) withDefaults() LinkConfig {
	if c.MaxQueueDelay == 0 {
		c.MaxQueueDelay = DefaultMaxQueueDelay
	}
	return c
}

// LinkStats counts link activity.
type LinkStats struct {
	Sent         int
	DroppedLoss  int
	DroppedQueue int
	Bytes        int64
}

// Link is one unidirectional rate-limited link. Not safe for
// concurrent use; everything runs on the simulator goroutine.
type Link struct {
	sim         *sim.Simulator
	cfg         LinkConfig
	dst         Handler
	deliveries  *sim.Lane // arrivals never decrease, so they queue FIFO; its handler is dst(p)
	pool        *PacketPool
	nextFree    time.Duration
	lastArrival time.Duration

	// Stats accumulates per-link counters.
	Stats LinkStats

	// Obs receives metric increments and flight events; the zero Sink
	// discards them.
	Obs obs.Sink
}

// NewLink returns a link delivering packets to dst.
func NewLink(s *sim.Simulator, cfg LinkConfig, dst Handler) *Link {
	l := &Link{sim: s, cfg: cfg.withDefaults(), dst: dst}
	l.deliveries = s.NewLane(func(x any) { l.dst(x.(*Packet)) })
	return l
}

// SetPool attaches a packet pool so the link can recycle the packets
// it drops (loss or queue overflow). Delivered packets are the
// receiver's to release.
func (l *Link) SetPool(pp *PacketPool) { l.pool = pp }

// Reset returns the link to the state NewLink(s, cfg, dst) would
// produce, keeping the destination handler, the delivery callback,
// and the attached pool. Used by reusable trial worlds to reconfigure
// a link between trials without rebuilding it.
func (l *Link) Reset(cfg LinkConfig) {
	l.cfg = cfg.withDefaults()
	l.nextFree = 0
	l.lastArrival = 0
	l.Stats = LinkStats{}
	l.Obs = obs.Sink{}
}

// SetRate changes the serialization rate (bits per second; zero means
// infinite). Takes effect for subsequently sent packets.
func (l *Link) SetRate(bps int64) { l.cfg.RateBitsPerSec = bps }

// Rate returns the current serialization rate.
func (l *Link) Rate() int64 { return l.cfg.RateBitsPerSec }

// SetLoss changes the random loss probability.
func (l *Link) SetLoss(p float64) { l.cfg.Loss = p }

// txTime returns the serialization time of n wire bytes.
func (l *Link) txTime(n int) time.Duration {
	if l.cfg.RateBitsPerSec <= 0 {
		return 0
	}
	bits := int64(n) * 8
	return time.Duration(bits * int64(time.Second) / l.cfg.RateBitsPerSec)
}

// Send queues p for transmission. The packet is delivered to the
// link's destination handler after queueing, serialization,
// propagation, and jitter; or silently dropped by loss or a full
// queue (dropped packets return to the pool, if one is attached).
func (l *Link) Send(p *Packet) {
	now := l.sim.Now()
	if l.cfg.Loss > 0 && l.sim.Rand().Float64() < l.cfg.Loss {
		l.Stats.DroppedLoss++
		l.Obs.Inc(obs.CNetemDropLoss)
		l.Obs.Event(now, obs.EvNetemDrop, 0, int64(p.Payload.Len()))
		l.pool.Put(p)
		return
	}
	start := now
	if l.nextFree > start {
		start = l.nextFree
	}
	if start-now > l.cfg.MaxQueueDelay {
		l.Stats.DroppedQueue++
		l.Obs.Inc(obs.CNetemDropQueue)
		l.Obs.Event(now, obs.EvNetemDrop, 1, int64(p.Payload.Len()))
		l.pool.Put(p)
		return
	}
	l.Obs.ObserveDuration(obs.HNetemQueueWait, start-now)
	tx := l.txTime(p.WireLen())
	l.nextFree = start + tx
	delay := l.nextFree - now + l.cfg.PropDelay
	if l.cfg.Jitter != nil {
		j := l.cfg.Jitter(l.sim.Rand())
		l.Obs.ObserveDuration(obs.HNetemJitter, j)
		delay += j
	}
	arrival := now + delay
	if arrival < l.lastArrival {
		arrival = l.lastArrival
		delay = arrival - now
	}
	l.lastArrival = arrival
	l.Stats.Sent++
	l.Stats.Bytes += int64(p.WireLen())
	l.Obs.Inc(obs.CNetemLinkSend)
	l.deliveries.AfterArg(delay, p)
}

// UniformJitter returns a jitter function drawing uniformly from
// [0, max]: rng.Int63n(max+1), with Int63n's rejection limit computed
// here once rather than on every packet.
func UniformJitter(max time.Duration) func(*sim.Rand) time.Duration {
	if max <= 0 {
		return nil
	}
	n := int64(max) + 1
	limit := sim.Int63nLimit(n)
	return func(rng *sim.Rand) time.Duration {
		return time.Duration(rng.Int63Below(limit) % n)
	}
}

// Action is the middlebox interceptor's verdict for a packet. The
// enum starts at 1 so the zero value is invalid.
type Action uint8

const (
	// ActPass forwards the packet immediately.
	ActPass Action = iota + 1
	// ActDrop discards the packet.
	ActDrop
	// ActDelay holds the packet for Decision.Delay before forwarding.
	ActDelay
)

// Decision is what the interceptor wants done with a packet.
type Decision struct {
	Action Action
	Delay  time.Duration
}

// Pass is the identity decision.
func Pass() Decision { return Decision{Action: ActPass} }

// Drop discards the packet.
func Drop() Decision { return Decision{Action: ActDrop} }

// Delay holds the packet for d before forwarding.
func Delay(d time.Duration) Decision { return Decision{Action: ActDelay, Delay: d} }

// Interceptor inspects each packet transiting the middlebox and
// decides its fate. It runs on the simulator goroutine and must not
// retain the packet beyond the call.
type Interceptor func(dir trace.Direction, p *Packet) Decision

// ByteTap receives the reassembled in-order TCP payload byte stream
// of one direction, as a passive observer would reconstruct it, one
// contiguous run per call. The bytes are only valid for the call:
// Append them to a wire.Bytes if they must survive.
type ByteTap func(dir trace.Direction, b wire.Bytes)

// Middlebox is the compromised on-path device: it observes every
// packet (feeding the byte-stream tap), applies the interceptor
// verdict, and forwards survivors to the outgoing link of the
// packet's direction.
type Middlebox struct {
	sim       *sim.Simulator
	forwardFn func(any) // reused AfterArg callback for delayed packets
	pool      *PacketPool

	outC2S *Link // toward the server
	outS2C *Link // toward the client

	// Interceptor may be nil (pass everything).
	Interceptor Interceptor

	// Tap receives reassembled payload bytes per direction; may be nil.
	Tap ByteTap

	// Stats counts interceptor outcomes.
	Stats struct {
		Passed, Dropped, Delayed int
	}

	// Per-direction tap state, indexed by Dir-1. A direction's stream
	// starts at the first payload packet seen after Reset, as a sniffer
	// joining mid-connection would.
	asm    [2]Reassembler
	seeded [2]bool
	tapFns [2]func(wire.Bytes) // reused Push callbacks: Tap(dir, b)
}

// NewMiddlebox wires a middlebox to its two outgoing links.
func NewMiddlebox(s *sim.Simulator, toServer, toClient *Link) *Middlebox {
	m := &Middlebox{sim: s, outC2S: toServer, outS2C: toClient}
	m.forwardFn = func(x any) {
		p := x.(*Packet)
		m.linkFor(p.Dir).Send(p)
	}
	for i := range m.tapFns {
		dir := trace.Direction(i + 1)
		m.tapFns[i] = func(b wire.Bytes) { m.Tap(dir, b) }
	}
	return m
}

// SetPool attaches a packet pool so the middlebox can recycle packets
// the interceptor drops.
func (m *Middlebox) SetPool(pp *PacketPool) { m.pool = pp }

// Reset clears the middlebox's per-trial state — hooks, stats, and
// both reassemblers — keeping the link wiring, callbacks, and pool.
func (m *Middlebox) Reset() {
	m.Interceptor = nil
	m.Tap = nil
	m.Stats.Passed, m.Stats.Dropped, m.Stats.Delayed = 0, 0, 0
	for i := range m.asm {
		m.asm[i].Reset(0)
		m.seeded[i] = false
	}
}

// linkFor returns the outgoing link for a direction.
func (m *Middlebox) linkFor(dir trace.Direction) *Link {
	if dir == trace.ServerToClient {
		return m.outS2C
	}
	return m.outC2S
}

// HandlePacket is the middlebox's link-delivery entry point.
func (m *Middlebox) HandlePacket(p *Packet) {
	if m.Tap != nil && p.Payload.Len() > 0 {
		i := p.Dir - 1
		if !m.seeded[i] {
			m.seeded[i] = true
			m.asm[i].Reset(p.Seq)
		}
		m.asm[i].Push(p.Seq, p.Payload, m.tapFns[i])
	}

	dec := Pass()
	if m.Interceptor != nil {
		dec = m.Interceptor(p.Dir, p)
	}
	switch dec.Action {
	case ActDrop:
		m.Stats.Dropped++
		m.pool.Put(p)
	case ActDelay:
		m.Stats.Delayed++
		m.sim.AfterArg(dec.Delay, m.forwardFn, p)
	default:
		m.Stats.Passed++
		m.linkFor(p.Dir).Send(p)
	}
}

// Path assembles the full client↔server topology around one
// middlebox.
type Path struct {
	Mbox *Middlebox

	// LinkC2M and LinkS2M feed the middlebox; LinkM2S and LinkM2C are
	// its outgoing links (whose rates the adversary throttles).
	LinkC2M, LinkM2S, LinkS2M, LinkM2C *Link

	// Pool recycles packets flowing through the path. Endpoints draw
	// their transmit packets from it and release inbound packets back
	// to it after processing; the links and middlebox release what
	// they drop.
	Pool *PacketPool
}

// PathConfig holds the ambient (non-adversarial) link parameters for
// each half of the path.
type PathConfig struct {
	// ClientSide configures client↔middlebox links.
	ClientSide LinkConfig
	// ServerSide configures middlebox↔server links.
	ServerSide LinkConfig
}

// NewPath builds the topology. clientRecv and serverRecv receive
// packets delivered to the endpoints.
func NewPath(s *sim.Simulator, cfg PathConfig, clientRecv, serverRecv Handler) *Path {
	pool := &PacketPool{}
	toServer := NewLink(s, cfg.ServerSide, serverRecv)
	toClient := NewLink(s, cfg.ClientSide, clientRecv)
	mbox := NewMiddlebox(s, toServer, toClient)
	p := &Path{
		Mbox:    mbox,
		LinkC2M: NewLink(s, cfg.ClientSide, mbox.HandlePacket),
		LinkS2M: NewLink(s, cfg.ServerSide, mbox.HandlePacket),
		LinkM2S: toServer,
		LinkM2C: toClient,
		Pool:    pool,
	}
	mbox.SetPool(pool)
	for _, l := range []*Link{p.LinkC2M, p.LinkS2M, p.LinkM2S, p.LinkM2C} {
		l.SetPool(pool)
	}
	return p
}

// Reset restores all four links to cfg and clears the middlebox, as
// NewPath would, keeping every allocation (links, callbacks, pool and
// its contents) so a reused path forwards allocation-free from the
// first packet of the next trial.
func (p *Path) Reset(cfg PathConfig) {
	p.LinkC2M.Reset(cfg.ClientSide)
	p.LinkM2C.Reset(cfg.ClientSide)
	p.LinkS2M.Reset(cfg.ServerSide)
	p.LinkM2S.Reset(cfg.ServerSide)
	p.Mbox.Reset()
}

// ReclaimPending returns every packet still riding the simulator's
// event queue (in flight on a link or held by the middlebox) to the
// path's pool. Call it immediately before sim.Reset discards the
// queue, so a reused world does not leak its in-flight packets to the
// garbage collector each trial.
func (p *Path) ReclaimPending(s *sim.Simulator) {
	s.ForEachPendingArg(func(a any) {
		if pkt, ok := a.(*Packet); ok {
			p.Pool.Put(pkt)
		}
	})
}

// SetObs points all four links' metric sinks at k. Call after Reset
// (which clears them), the same re-wiring pattern the session uses
// for its other cross-layer hooks.
func (p *Path) SetObs(k obs.Sink) {
	p.LinkC2M.Obs = k
	p.LinkM2S.Obs = k
	p.LinkS2M.Obs = k
	p.LinkM2C.Obs = k
}

// SendFromClient injects a client packet into the path.
func (p *Path) SendFromClient(pkt *Packet) {
	pkt.Dir = trace.ClientToServer
	p.LinkC2M.Send(pkt)
}

// SendFromServer injects a server packet into the path.
func (p *Path) SendFromServer(pkt *Packet) {
	pkt.Dir = trace.ServerToClient
	p.LinkS2M.Send(pkt)
}

// SetBandwidth throttles both middlebox outgoing links, as the
// paper's adversary does ("bandwidth limits are applied for both
// incoming and outgoing packets").
func (p *Path) SetBandwidth(bps int64) {
	p.LinkM2S.SetRate(bps)
	p.LinkM2C.SetRate(bps)
}
