// Package tcpsim implements a simplified TCP endpoint on the
// discrete-event simulator: MSS segmentation, cumulative ACKs,
// duplicate-ACK fast retransmit, retransmission timeouts with
// exponential backoff, slow-start/AIMD congestion control, and
// in-order delivery with receive-side reassembly.
//
// These are exactly the transport mechanisms the reproduced attack
// manipulates: jitter-induced reordering triggers dup-ACKs and
// spurious fast retransmits (Table I's retransmission column);
// bandwidth throttling shrinks the effective window via the
// congestion response (Figure 5); sustained targeted loss exhausts
// the retry budget and (one layer up) drives the HTTP/2 client to
// reset its streams (section IV-D).
//
// Bytes travel as wire.Bytes, literal bytes plus zero runs, so the
// data path copies no payload: the HTTP/2 endpoints seal records
// straight into the send queue (SendQueue, then Flush), each segment
// is a view of it carried by a pooled netem.Packet, and inbound
// segments go through netem.Reassembler, the same reassembler the
// middlebox's sniffer tap uses. The send queue drops bytes once they
// are acked and reclaims their storage as it does, so it stays within
// about twice its live bytes. That is safe for the views
// in flight: a reassembler reads a segment only from its next expected
// byte on, and the sender drops only bytes the receiver has acked,
// which the receiver, and the tap on the path before it, have already
// passed. In steady state the data path allocates nothing.
//
// Key types: Endpoint (one side's send/receive state machine, with
// retransmit and break callbacks) and Conn (a client/server Endpoint
// pair wired through a netem.Path).
package tcpsim

import (
	"errors"
	"time"

	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wire"
)

// ErrConnectionBroken is reported via OnBreak when the retransmission
// retry budget is exhausted (the paper's "broken connection").
var ErrConnectionBroken = errors.New("tcpsim: connection broken: retransmission retries exhausted")

// The transport's calibration: the paper's testbed (section V) runs
// one fixed Linux TCP, so these are constants, not knobs.
const (
	// MSS is the maximum segment payload size.
	MSS = 1460

	// initialCwnd is the initial congestion window in segments
	// (RFC 6928).
	initialCwnd = 10

	// rtoInit is the initial retransmission timeout.
	rtoInit = time.Second

	// rtoMin floors the adaptive RTO.
	rtoMin = 200 * time.Millisecond

	// rtoMax caps the backed-off RTO.
	rtoMax = 60 * time.Second

	// dupAckThreshold triggers fast retransmit.
	dupAckThreshold = 3
)

// Config tunes an endpoint. The zero value means defaults.
type Config struct {
	// MaxRetries is the number of consecutive RTO expiries tolerated
	// before the connection is declared broken. Zero means
	// DefaultMaxRetries.
	MaxRetries int
}

// DefaultMaxRetries is Config.MaxRetries's default.
const DefaultMaxRetries = 6

func (c Config) withDefaults() Config {
	if c.MaxRetries == 0 {
		c.MaxRetries = DefaultMaxRetries
	}
	return c
}

// Stats counts transport events on one endpoint.
type Stats struct {
	SegmentsSent       int
	Retransmits        int // all retransmitted segments
	FastRetransmits    int
	TimeoutRetransmits int
	DupAcksSent        int
	AcksSent           int
}

// sentStamp is one Karn RTT bookkeeping entry: the end sequence of a
// first-transmission segment and when it left.
type sentStamp struct {
	end uint32
	at  time.Duration
}

// Endpoint is one side of a simulated TCP connection. Not safe for
// concurrent use; it runs entirely on the simulator goroutine.
type Endpoint struct {
	s    *sim.Simulator
	cfg  Config
	out  func(*netem.Packet) // inject into the network
	app  func(wire.Bytes)    // ordered delivery upward
	pool *netem.PacketPool   // recycled transmit packets; nil => allocate

	// Send state. sendBuf holds bytes [sndUna, sndUna+len); acked
	// bytes are dropped from its front, and segments in flight are
	// views of it.
	sndUna, sndNxt uint32
	sendBuf        wire.Bytes
	cwnd           float64 // bytes
	ssthresh       float64
	dupAcks        int
	retries        int
	rtoTimer       *sim.Timer
	rto            time.Duration
	srtt, rttvar   time.Duration
	broken         bool

	// sentQ[sentOff:] records (end-seq, first-send time) per
	// first-transmission segment for Karn-filtered RTT sampling. sndNxt
	// only grows, so the queue is sorted in send order and cumulative
	// ACKs drain it from the front — replacing the end-seq map whose
	// per-ACK iteration sat on the hot path. Cleared wholesale on
	// retransmission (Karn: no samples from a retransmit window).
	sentQ   []sentStamp
	sentOff int

	// Receive state: rcv.Next is the next expected inbound byte.
	rcv netem.Reassembler

	// OnBreak is called once when the connection breaks. May be nil.
	OnBreak func(error)

	// OnRetransmit, when non-nil, is called with the sequence range of
	// every retransmitted segment (fast retransmit or timeout). The
	// HTTP/2 client layer uses it to mirror the paper's observed
	// browser behaviour of re-issuing requests whose segments were
	// retransmitted.
	OnRetransmit func(seqStart, seqEnd uint32)

	// Stats accumulates counters.
	Stats Stats

	// Obs receives metric increments and flight events; the zero Sink
	// discards them.
	Obs obs.Sink
}

// New creates an endpoint. out injects packets toward the peer; app
// receives the ordered inbound byte stream (the bytes are only valid
// for the duration of the callback); it may be nil.
func New(s *sim.Simulator, cfg Config, out func(*netem.Packet), app func(wire.Bytes)) *Endpoint {
	if app == nil {
		app = func(wire.Bytes) {}
	}
	e := &Endpoint{
		s:   s,
		cfg: cfg.withDefaults(),
		out: out,
		app: app,
	}
	e.cwnd = float64(initialCwnd * MSS)
	e.ssthresh = 1 << 30
	e.rto = rtoInit
	e.rtoTimer = s.NewTimer(e.onRTO)
	return e
}

// SetPool attaches a packet pool that emit draws transmit packets
// from. The pool's owner (normally Conn's delivery handlers) releases
// packets after the receiving endpoint has processed them.
func (e *Endpoint) SetPool(pp *netem.PacketPool) { e.pool = pp }

// Reset returns the endpoint to the state New would produce with cfg,
// keeping the simulator wiring, pool, timer object, and every buffer's
// capacity (send buffer, reassembler, the RTT queue). The
// OnBreak and OnRetransmit callbacks are cleared, matching a freshly
// constructed endpoint; rewire them after Reset. Must be called after
// the owning simulator has been Reset, which discards the RTO timer's
// queued key.
func (e *Endpoint) Reset(cfg Config) {
	e.cfg = cfg.withDefaults()
	e.sndUna, e.sndNxt = 0, 0
	e.sendBuf.Reset()
	e.cwnd = float64(initialCwnd * MSS)
	e.ssthresh = 1 << 30
	e.dupAcks = 0
	e.retries = 0
	e.rtoTimer.Stop()
	e.rto = rtoInit
	e.srtt, e.rttvar = 0, 0
	e.sentQ = e.sentQ[:0]
	e.sentOff = 0
	e.broken = false
	e.rcv.Reset(0)
	e.OnBreak = nil
	e.OnRetransmit = nil
	e.Stats = Stats{}
	e.Obs = obs.Sink{}
}

// Cwnd returns the current congestion window in bytes.
func (e *Endpoint) Cwnd() int { return int(e.cwnd) }

// Broken reports whether the connection has failed.
func (e *Endpoint) Broken() bool { return e.broken }

// Outstanding returns the number of sent-but-unacked bytes.
func (e *Endpoint) Outstanding() int { return int(e.sndNxt - e.sndUna) }

// BufferedSend returns bytes queued (sent or not) above sndUna.
func (e *Endpoint) BufferedSend() int { return e.sendBuf.Len() }

// SendQueue returns the send queue for the caller to append the bytes
// to transmit to, in place; Flush then sends them. Bytes queued on a
// broken endpoint are never sent.
func (e *Endpoint) SendQueue() *wire.Bytes { return &e.sendBuf }

// Flush sends as much of the queued bytes as the congestion window
// allows; the rest goes out as ACKs open the window.
func (e *Endpoint) Flush() { e.trySend() }

// trySend emits new segments within the congestion window.
func (e *Endpoint) trySend() {
	if e.broken {
		return
	}
	for {
		inFlight := int(e.sndNxt - e.sndUna)
		avail := e.sendBuf.Len() - inFlight
		if avail <= 0 {
			break
		}
		win := int(e.cwnd) - inFlight
		if win <= 0 {
			break
		}
		n := MSS
		if n > avail {
			n = avail
		}
		if n > win {
			// Send a short segment only if nothing is in flight
			// (avoid silly-window behaviour but never deadlock).
			if inFlight > 0 {
				break
			}
			n = win
		}
		e.emit(e.sndNxt, e.sendBuf.Slice(inFlight, inFlight+n), false)
		e.sentQ = append(e.sentQ, sentStamp{end: e.sndNxt + uint32(n), at: e.s.Now()})
		e.sndNxt += uint32(n)
	}
	if e.Outstanding() > 0 && !e.rtoTimer.Armed() {
		e.rtoTimer.Reset(e.rto)
	}
}

// emit sends one segment (or pure ACK when payload is empty). The
// payload is a view of the send queue, so the packet carries it
// without a copy.
func (e *Endpoint) emit(seq uint32, payload wire.Bytes, retransmit bool) {
	p := e.pool.Get()
	p.Seq = seq
	p.Ack = e.rcv.Next
	p.Payload = payload
	if payload.Len() > 0 {
		e.Stats.SegmentsSent++
		e.Obs.Inc(obs.CTCPSegSent)
		if retransmit {
			e.Stats.Retransmits++
			e.Obs.Inc(obs.CTCPRetransmit)
		}
	} else {
		e.Stats.AcksSent++
	}
	e.out(p)
}

// retransmitHead resends the segment starting at sndUna.
func (e *Endpoint) retransmitHead() {
	n := min(MSS, e.sendBuf.Len())
	if n == 0 {
		return
	}
	// Karn's algorithm: no RTT samples from a window containing a
	// retransmission — a cumulative ACK triggered by the retransmitted
	// head would otherwise be matched against the first-transmission
	// timestamp of a later segment, poisoning SRTT with the whole
	// stall duration.
	e.sentQ = e.sentQ[:0]
	e.sentOff = 0
	e.emit(e.sndUna, e.sendBuf.Slice(0, n), true)
	if e.OnRetransmit != nil {
		e.OnRetransmit(e.sndUna, e.sndUna+uint32(n))
	}
}

// onRTO handles a retransmission timeout.
func (e *Endpoint) onRTO() {
	if e.broken || e.Outstanding() == 0 {
		return
	}
	e.retries++
	if e.retries > e.cfg.MaxRetries {
		e.breakConn()
		return
	}
	e.Stats.TimeoutRetransmits++
	e.Obs.Inc(obs.CTCPTimeoutRetx)
	e.Obs.Event(e.s.Now(), obs.EvTCPTimeoutRetx, int64(e.sndUna), int64(e.retries))
	flight := float64(e.Outstanding())
	e.ssthresh = max(flight/2, float64(2*MSS))
	e.cwnd = float64(MSS)
	e.dupAcks = 0
	e.rto *= 2
	if e.rto > rtoMax {
		e.rto = rtoMax
	}
	e.retransmitHead()
	e.rtoTimer.Reset(e.rto)
}

func (e *Endpoint) breakConn() {
	if e.broken {
		return
	}
	e.broken = true
	e.rtoTimer.Stop()
	e.Obs.Inc(obs.CTCPBroken)
	e.Obs.Event(e.s.Now(), obs.EvTCPBroken, int64(e.sndUna), 0)
	if e.OnBreak != nil {
		e.OnBreak(ErrConnectionBroken)
	}
}

// HandlePacket ingests a packet from the network (wire it as the
// netem Path's delivery handler for this endpoint). The endpoint does
// not retain the packet or its payload past the call, so the caller
// may recycle it afterwards.
func (e *Endpoint) HandlePacket(p *netem.Packet) {
	if e.broken {
		return
	}
	e.handleAck(p.Ack, p.Payload.Len() == 0)
	if p.Payload.Len() > 0 {
		// Acknowledge every data segment; one held out of order gets
		// a duplicate ACK, since rcv.Next has not moved.
		if e.rcv.Push(p.Seq, p.Payload, e.app) {
			e.Stats.DupAcksSent++
		}
		e.emit(e.sndNxt, wire.Bytes{}, false)
	}
}

// handleAck processes the cumulative acknowledgement field. pureAck
// reports that the packet carried no payload: per RFC 5681 only such
// segments may count as duplicate ACKs.
func (e *Endpoint) handleAck(ack uint32, pureAck bool) {
	if seqLess(e.sndUna, ack) && seqLEQ(ack, e.sndNxt) {
		acked := ack - e.sndUna
		// Drain fully-acked entries from the RTT queue front (it is in
		// ascending end-seq order), sampling on an exact match — the
		// ACK for a whole segment's first transmission (Karn-filtered).
		for e.sentOff < len(e.sentQ) && seqLEQ(e.sentQ[e.sentOff].end, ack) {
			if e.sentQ[e.sentOff].end == ack {
				e.updateRTT(e.s.Now() - e.sentQ[e.sentOff].at)
			}
			e.sentOff++
		}
		if e.sentOff == len(e.sentQ) {
			e.sentQ = e.sentQ[:0]
			e.sentOff = 0
		} else if e.sentOff > 64 && e.sentOff*2 >= len(e.sentQ) {
			// Compact so the backing array stays bounded by the
			// in-flight window instead of sliding forever.
			n := copy(e.sentQ, e.sentQ[e.sentOff:])
			e.sentQ = e.sentQ[:n]
			e.sentOff = 0
		}
		e.sendBuf.Advance(int(acked))
		e.sndUna = ack
		e.dupAcks = 0
		e.retries = 0
		// Forward progress ends any timeout backoff: recompute the RTO
		// from the smoothed estimators (RFC 6298 section 5.7) instead
		// of staying at the backed-off value, which would otherwise
		// make every later loss cost a full backed-off timeout.
		e.rto = e.clampRTO(e.computeRTO())
		// Congestion window growth.
		if e.cwnd < e.ssthresh {
			e.cwnd += float64(min(int(acked), MSS)) // slow start
		} else {
			e.cwnd += float64(MSS) * float64(MSS) / e.cwnd // AIMD
		}
		e.Obs.Observe(obs.HTCPCwnd, int64(e.cwnd))
		if e.Outstanding() == 0 {
			e.rtoTimer.Stop()
			e.rto = e.clampRTO(e.computeRTO())
		} else {
			e.rtoTimer.Reset(e.rto)
		}
		e.trySend()
		return
	}
	if pureAck && ack == e.sndUna && e.Outstanding() > 0 {
		e.dupAcks++
		e.Obs.Inc(obs.CTCPDupAckRecvd)
		if e.dupAcks == dupAckThreshold {
			// Fast retransmit + fast recovery entry.
			e.Stats.FastRetransmits++
			flight := float64(e.Outstanding())
			e.ssthresh = max(flight/2, float64(2*MSS))
			e.cwnd = e.ssthresh + float64(dupAckThreshold*MSS)
			e.Obs.Inc(obs.CTCPFastRetx)
			e.Obs.Event(e.s.Now(), obs.EvTCPFastRetx, int64(e.sndUna), int64(e.cwnd))
			e.retransmitHead()
			e.rtoTimer.Reset(e.rto)
		}
	}
}

// updateRTT folds one sample into SRTT/RTTVAR (RFC 6298).
func (e *Endpoint) updateRTT(sample time.Duration) {
	if sample <= 0 {
		return
	}
	if e.srtt == 0 {
		e.srtt = sample
		e.rttvar = sample / 2
	} else {
		diff := e.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		e.rttvar = (3*e.rttvar + diff) / 4
		e.srtt = (7*e.srtt + sample) / 8
	}
	e.rto = e.clampRTO(e.computeRTO())
}

func (e *Endpoint) computeRTO() time.Duration {
	if e.srtt == 0 {
		return rtoInit
	}
	return e.srtt + 4*e.rttvar
}

func (e *Endpoint) clampRTO(d time.Duration) time.Duration {
	if d < rtoMin {
		return rtoMin
	}
	if d > rtoMax {
		return rtoMax
	}
	return d
}

// SRTT returns the smoothed RTT estimate (zero before any sample).
func (e *Endpoint) SRTT() time.Duration { return e.srtt }

// RTO returns the current retransmission timeout.
func (e *Endpoint) RTO() time.Duration { return e.rto }

// BackoffRTO multiplies the RTO, modelling the client stack raising
// its timeout after an HTTP/2 stream reset on a lossy channel
// (paper section IV-D).
func (e *Endpoint) BackoffRTO(factor int) {
	if factor < 1 {
		return
	}
	e.rto = e.clampRTO(e.rto * time.Duration(factor))
}

func seqLess(a, b uint32) bool { return int32(a-b) < 0 }
func seqLEQ(a, b uint32) bool  { return int32(a-b) <= 0 }

// Conn couples two endpoints across a netem.Path.
type Conn struct {
	Client *Endpoint
	Server *Endpoint
	Path   *netem.Path
}

// NewConn builds a client and server endpoint joined by a path with
// the given ambient configuration. clientApp and serverApp receive
// each side's ordered inbound bytes. Both endpoints draw transmit
// packets from the path's pool, and the delivery handlers release
// each packet back to it once the endpoint has consumed it.
func NewConn(s *sim.Simulator, pathCfg netem.PathConfig, tcpCfg Config, clientApp, serverApp func(wire.Bytes)) *Conn {
	c := &Conn{}
	var path *netem.Path
	path = netem.NewPath(s, pathCfg,
		func(p *netem.Packet) {
			c.Client.HandlePacket(p)
			path.Pool.Put(p)
		},
		func(p *netem.Packet) {
			c.Server.HandlePacket(p)
			path.Pool.Put(p)
		},
	)
	c.Path = path
	c.Client = New(s, tcpCfg, path.SendFromClient, clientApp)
	c.Server = New(s, tcpCfg, path.SendFromServer, serverApp)
	c.Client.SetPool(path.Pool)
	c.Server.SetPool(path.Pool)
	return c
}

// Reset restores the path and both endpoints to their just-built
// configuration, reusing every allocation. Call after the simulator
// has been Reset (and after Path.ReclaimPending, if in-flight packets
// should return to the pool).
func (c *Conn) Reset(pathCfg netem.PathConfig, tcpCfg Config) {
	c.Path.Reset(pathCfg)
	c.Client.Reset(tcpCfg)
	c.Server.Reset(tcpCfg)
}

// SetObs points both endpoints' and the path's metric sinks at k.
// Call after Reset (which clears them).
func (c *Conn) SetObs(k obs.Sink) {
	c.Client.Obs = k
	c.Server.Obs = k
	c.Path.SetObs(k)
}

// Broken reports whether either side has declared the connection
// broken.
func (c *Conn) Broken() bool { return c.Client.Broken() || c.Server.Broken() }
