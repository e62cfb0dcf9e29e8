// Package h2sim provides event-driven HTTP/2 endpoints over the
// simulated TCP/TLS stack: a multi-threaded server model whose
// concurrent per-request workers interleave object segments on the
// shared transmit queue (the multiplexing the paper studies), and a
// browser-like client that issues a scheduled request sequence,
// re-requests stalled objects (the paper's "TCP fast-retransmit"
// behaviour at the application layer), and resets all streams on a
// persistently lossy channel (the paper's RST_STREAM lever).
//
// The bytes on the simulated wire are genuine RFC 7540 frames with
// genuine HPACK header blocks, sealed into TLS records and segmented
// by the TCP simulation — so the adversary observes exactly what a
// real on-path device would.
//
// Key types: Session (one page load: site + path + endpoints + ground
// truth, the unit every experiment trial runs), Server and Client
// (the endpoint models), and their ServerConfig/ClientConfig knobs
// (ablation levers; see DESIGN.md section 5). The package models the
// paper's Apache origin and Chrome client (section V testbed).
package h2sim

import (
	"time"

	"repro/internal/h2"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/tlsrec"
	"repro/internal/trace"
	"repro/internal/website"
	"repro/internal/wire"
)

// The server's calibration: the paper's testbed (section V) is one
// fixed Apache origin, so these are constants, not knobs.
const (
	// ChunkPlain is the DATA payload per frame/record, sized so one
	// full record fits one TCP segment (checked below).
	ChunkPlain = 1400

	// serviceTime is the per-chunk processing time of a worker thread
	// (disk read + TLS sealing). Concurrency of workers over this
	// interval is what interleaves objects.
	serviceTime = 500 * time.Microsecond

	// serviceJitter adds uniform [0, serviceJitter) noise per chunk.
	serviceJitter = 200 * time.Microsecond

	// headerDelay is the request-processing latency before the
	// response HEADERS frame.
	headerDelay = 300 * time.Microsecond

	// blockedPoll is how long a worker blocked on a full socket buffer
	// waits before it looks again, so a stalled transport (e.g. during
	// the attack's drop phase) does not turn blocked workers into an
	// event storm. Each look also draws one service interval and
	// discards it (see worker.step).
	blockedPoll = 10 * time.Millisecond
)

// jitterMax is sim.Int63nLimit(serviceJitter), the largest Int63 value
// that Int63n(serviceJitter) keeps rather than draws again: the top of
// the last whole multiple of serviceJitter below 2^63. As a constant it
// spares every draw Int63n's run-time 64-bit division, and the
// reduction modulo the constant serviceJitter compiles to a
// multiplication.
const jitterMax = int64(1<<63 - 1 - (1<<63)%uint64(serviceJitter))

// Every service interval is shorter than blockedPoll, so a blocked
// re-poll always waits exactly blockedPoll and the server's poll lane
// stays FIFO; the constant conversion fails to compile otherwise.
const _ = uint(blockedPoll - (serviceTime + serviceJitter))

// A full record (header, AEAD overhead, frame header, ChunkPlain
// payload) must fit one MSS-sized TCP segment; the constant
// conversion fails to compile if it does not.
const _ = uint(tcpsim.MSS - (tlsrec.HeaderLen + tlsrec.Overhead + h2.FrameHeaderLen + ChunkPlain))

// serverSettings is the SETTINGS frame the server announces, and
// settingsAck acknowledges the peer's. Read-only.
var (
	serverSettings = h2.SettingsFrame{Settings: []h2.Setting{
		{ID: h2.SettingInitialWindowSize, Val: 1 << 30},
		{ID: h2.SettingMaxConcurrentStreams, Val: 256},
	}}
	settingsAck = h2.SettingsFrame{Ack: true}
)

// ServerConfig tunes the server model.
type ServerConfig struct {
	// SendBufLimit is the socket-buffer backpressure threshold: a
	// worker pauses while the TCP send buffer holds at least this many
	// bytes, so the enqueue (interleaving) order tracks the wire pace.
	// This is what lets slow-start over a long-RTT path stretch early
	// object transmissions across later requests — the baseline
	// multiplexing source. Zero means DefaultSendBufLimit.
	SendBufLimit int

	// DisableDuplicates suppresses the paper-observed behaviour of
	// serving every copy of a retransmitted request (ablation 2 in
	// DESIGN.md). Default false: duplicates are served.
	DisableDuplicates bool

	// DisableBackpressure makes workers enqueue at pure service rate
	// regardless of the socket buffer (ablation 1: wire-driven-only
	// multiplexing collapses).
	DisableBackpressure bool

	// Push maps a request path to resource paths the server pushes
	// (PUSH_PROMISE) when that path is requested — the paper's
	// section VII proposal of using server push for privacy: pushed
	// resources are sent in the server's fixed order, so the request
	// sequence carries no secret.
	Push map[string][]string
}

// DefaultSendBufLimit is ServerConfig.SendBufLimit's default, 56 KiB.
const DefaultSendBufLimit = 56 << 10

func (c ServerConfig) withDefaults() ServerConfig {
	if c.SendBufLimit == 0 {
		c.SendBufLimit = DefaultSendBufLimit
	}
	return c
}

// ServerStats counts server-side events.
type ServerStats struct {
	Requests   int // request HEADERS received (including duplicates)
	Duplicates int // requests beyond the first for the same object
	Resets     int // RST_STREAM frames received
	DataFrames int
	BytesData  int64
}

// Server is the simulated multi-threaded HTTP/2 origin.
type Server struct {
	s    *sim.Simulator
	cfg  ServerConfig
	site *website.Site
	tcp  *tcpsim.Endpoint

	opener  tlsrec.Opener
	scanner h2.FrameScanner
	hdec    *h2.HpackDecoder
	henc    *h2.HpackEncoder

	// GroundTruth receives FrameEvents attributing wire bytes to
	// object copies; may be nil.
	GroundTruth *trace.Trace

	offset int64 // bytes written to the TCP stream so far

	// Dense worker/copy tables, indexed by raw stream ID and object ID
	// (see the Client's tables for the indexing rationale).
	workers       []*worker // by stream ID; nil = no worker on that stream
	copies        []int     // by object ID: copies spawned
	nextPushID    uint32    // next server-initiated (even) stream id
	pushedAlready map[string]bool

	// Worker recycling. wfree holds workers ready for reuse; parked
	// holds cancelled workers whose already-scheduled step event has
	// not fired yet (reusing one early would let the stale event drive
	// the wrong stream), reclaimed wholesale at the next Reset.
	wfree  []*worker
	parked []*worker

	// polls queues the blocked workers' re-polls, each a step of its
	// worker: each waits exactly blockedPoll, so their times never
	// decrease and they run FIFO.
	polls *sim.Lane

	// Per-chunk scratch, hoisted so the steady-state transmit path
	// (worker.step → writeRecord) allocates nothing: the header-block
	// build buffer, a reusable DATA frame value, and the Opener.Feed and
	// FeedInto callbacks built once.
	blockBuf []byte
	hdrFrame h2.HeadersFrame // scratch: a stack literal would escape through writeRecord
	dataF    h2.DataFrame
	frameCb  func(h2.Frame) error
	recordCb func(tlsrec.Record)

	// Stats accumulates counters.
	Stats ServerStats

	// Obs receives metric increments and flight events; the zero Sink
	// discards them.
	Obs obs.Sink
}

// NewServer builds the server for a site. Call Attach before running.
// Construction is skeleton allocation plus Reset, so a freshly built
// server and a reused one start every trial in identical state by
// construction.
func NewServer(s *sim.Simulator, cfg ServerConfig, site *website.Site) *Server {
	sv := &Server{
		s:             s,
		hdec:          h2.NewHpackDecoder(4096),
		henc:          h2.NewHpackEncoder(4096),
		pushedAlready: make(map[string]bool),
		polls:         s.NewLane(pollWorker),
	}
	sv.frameCb = func(f h2.Frame) error {
		sv.handleFrame(f)
		return nil
	}
	sv.recordCb = func(r tlsrec.Record) {
		if r.ContentType == tlsrec.TypeAppData {
			_ = sv.scanner.FeedInto(r.Body, sv.frameCb)
		}
	}
	sv.Reset(cfg, site)
	return sv
}

// Reset returns the server to its just-constructed state for a new
// trial: configuration and site swapped in, protocol state (HPACK
// tables, stream scanners, stream-id counters, worker set) rewound,
// stats zeroed. All scratch capacity and recycled workers are kept.
// Call after the simulator has been Reset, then Attach.
func (sv *Server) Reset(cfg ServerConfig, site *website.Site) {
	sv.cfg = cfg.withDefaults()
	sv.site = site
	sv.tcp = nil
	sv.opener.Reset()
	sv.scanner.Reset()
	sv.hdec.Reset(4096)
	sv.henc.Reset(4096)
	sv.GroundTruth = nil
	sv.offset = 0
	// Recycle leftover workers: with the event queue already cleared,
	// no stale step event can reference them. Recycled workers are
	// interchangeable once zeroed, so reclaim order does not matter.
	for id, w := range sv.workers {
		if w != nil {
			sv.wfree = append(sv.wfree, w)
			sv.workers[id] = nil
		}
	}
	for i, w := range sv.parked {
		sv.wfree = append(sv.wfree, w)
		sv.parked[i] = nil
	}
	sv.parked = sv.parked[:0]
	for i := range sv.copies {
		sv.copies[i] = 0
	}
	sv.nextPushID = 2
	clear(sv.pushedAlready)
	sv.Stats = ServerStats{}
	sv.Obs = obs.Sink{}
}

// worker looks up the worker serving a stream; nil if none.
func (sv *Server) worker(streamID uint32) *worker {
	if int(streamID) >= len(sv.workers) {
		return nil
	}
	return sv.workers[streamID]
}

// putWorker registers a worker in the dense table.
func (sv *Server) putWorker(streamID uint32, w *worker) {
	if int(streamID) >= len(sv.workers) {
		sv.workers = growTable(sv.workers, int(streamID)+1)
	}
	sv.workers[streamID] = w
}

// delWorker removes a stream's worker. The stream must be present.
func (sv *Server) delWorker(streamID uint32) {
	sv.workers[streamID] = nil
}

// nextCopy returns and advances the object's spawned-copy counter.
func (sv *Server) nextCopy(objectID int) int {
	if objectID >= len(sv.copies) {
		sv.copies = growTable(sv.copies, objectID+1)
	}
	n := sv.copies[objectID]
	sv.copies[objectID]++
	return n
}

// getWorker returns a recycled worker reinitialized for a stream, or
// a fresh one with its step callback prebuilt.
func (sv *Server) getWorker(streamID uint32, obj website.Object, copyID int) *worker {
	if n := len(sv.wfree); n > 0 {
		w := sv.wfree[n-1]
		sv.wfree[n-1] = nil
		sv.wfree = sv.wfree[:n-1]
		*w = worker{sv: sv, streamID: streamID, obj: obj, copyID: copyID,
			stepFn: w.stepFn, sendFn: w.sendFn}
		return w
	}
	w := &worker{sv: sv, streamID: streamID, obj: obj, copyID: copyID}
	w.stepFn = w.step
	w.sendFn = w.sendHeaders
	return w
}

// Attach wires the server to its TCP endpoint and announces SETTINGS.
func (sv *Server) Attach(tcp *tcpsim.Endpoint) {
	sv.tcp = tcp
	sv.writeRecord(&serverSettings)
}

// writeRecord seals f into one application-data record straight into
// the TCP send queue and sends what the window allows, returning the
// record's wire offset and length. A DATA payload goes in as a zero
// run, so nothing is copied and nothing allocated.
func (sv *Server) writeRecord(f h2.Frame) (int64, int) {
	plain := f.Header().WireLen()
	q := sv.tcp.SendQueue()
	tlsrec.SealHeader(q, tlsrec.TypeAppData, plain)
	h2.AppendFrame(q, f)
	tlsrec.SealTrailer(q)
	sv.tcp.Flush()
	off, n := sv.offset, tlsrec.HeaderLen+plain+tlsrec.Overhead
	sv.offset += int64(n)
	return off, n
}

// OnBytes is the TCP delivery callback (ordered inbound byte stream).
// The record and frame parse paths run on recycled scratch
// (Opener.Feed, FrameScanner.FeedInto), which is safe because
// handleFrame never retains frame memory past the call. A corrupt
// stream, which the TCP simulation never produces, stops the parse.
func (sv *Server) OnBytes(b wire.Bytes) {
	_ = sv.opener.Feed(b, sv.recordCb)
}

func (sv *Server) handleFrame(f h2.Frame) {
	switch fv := f.(type) {
	case *h2.HeadersFrame:
		sv.handleRequest(fv)
	case *h2.RSTStreamFrame:
		sv.Stats.Resets++
		sv.Obs.Inc(obs.CH2SrvRSTRecv)
		if w := sv.worker(fv.StreamID); w != nil {
			// Flush the stream: the worker stops enqueueing segments
			// (paper section IV-D: "the server closes the stream and
			// flushes the corresponding object segments from its
			// queue"). A pending re-poll is dropped from the poll lane;
			// any other pending step event still references it, so
			// park it for recycling at the next Reset rather than
			// reusing it immediately.
			w.cancelled = true
			sv.polls.Drop(w)
			sv.delWorker(fv.StreamID)
			sv.parked = append(sv.parked, w)
		}
	case *h2.SettingsFrame:
		if !fv.Ack {
			sv.writeRecord(&settingsAck)
		}
	default:
		// The client sends no DATA or PUSH_PROMISE.
	}
}

// handleRequest spawns a worker thread for the requested object.
// Every received request copy gets its own worker, including
// duplicates from client re-requests — the multi-threaded behaviour
// the paper observed causing intensified multiplexing.
func (sv *Server) handleRequest(f *h2.HeadersFrame) {
	fields, err := sv.hdec.DecodeFull(f.BlockFragment)
	if err != nil {
		return
	}
	var path string
	for _, hf := range fields {
		if hf.Name == ":path" {
			path = hf.Value
		}
	}
	obj, ok := sv.site.ObjectByPath(path)
	if !ok {
		sv.respondNotFound(f.StreamID)
		return
	}
	sv.Stats.Requests++
	copyID := sv.nextCopy(obj.ID)
	if copyID > 0 {
		sv.Stats.Duplicates++
		sv.Obs.Inc(obs.CH2SrvDupCopy)
		sv.Obs.Event(sv.s.Now(), obs.EvH2SrvDupCopy, int64(obj.ID), int64(copyID))
		if sv.cfg.DisableDuplicates {
			// Ablation: a deduplicating server answers duplicates with
			// an empty 200 instead of re-serving the body.
			sv.respondEmpty(f.StreamID)
			return
		}
	}
	w := sv.getWorker(f.StreamID, obj, copyID)
	sv.putWorker(f.StreamID, w)
	sv.Obs.Inc(obs.CH2SrvWorker)
	sv.s.After(headerDelay, w.sendFn)
	sv.pushFor(obj.Path, f.StreamID)
}

// pushFor initiates any configured server pushes for the requested
// path: a PUSH_PROMISE on the requesting stream, then the pushed
// response on a server-initiated (even) stream.
func (sv *Server) pushFor(path string, parentStream uint32) {
	for _, pushPath := range sv.cfg.Push[path] {
		if sv.pushedAlready[pushPath] {
			continue
		}
		obj, ok := sv.site.ObjectByPath(pushPath)
		if !ok {
			continue
		}
		sv.pushedAlready[pushPath] = true
		promiseID := sv.nextPushID
		sv.nextPushID += 2
		sv.blockBuf = sv.henc.AppendHeaderBlock(sv.blockBuf[:0], []h2.HeaderField{
			{Name: ":method", Value: "GET"},
			{Name: ":scheme", Value: "https"},
			{Name: ":path", Value: pushPath},
		})
		sv.writeRecord(&h2.PushPromiseFrame{
			StreamID:      parentStream,
			PromiseID:     promiseID,
			BlockFragment: sv.blockBuf,
			EndHeaders:    true,
		})
		w := sv.getWorker(promiseID, obj, sv.nextCopy(obj.ID))
		sv.putWorker(promiseID, w)
		sv.Obs.Inc(obs.CH2SrvPush)
		sv.Obs.Inc(obs.CH2SrvWorker)
		sv.s.After(headerDelay, w.sendFn)
	}
}

func (sv *Server) respondNotFound(streamID uint32) {
	sv.respondBodyless(streamID, "404")
}

func (sv *Server) respondEmpty(streamID uint32) {
	sv.respondBodyless(streamID, "200")
}

// respondBodyless sends a HEADERS-only response through the recycled
// build buffers.
func (sv *Server) respondBodyless(streamID uint32, status string) {
	sv.blockBuf = sv.henc.AppendHeaderBlock(sv.blockBuf[:0], []h2.HeaderField{{Name: ":status", Value: status}})
	sv.writeRecord(&h2.HeadersFrame{
		StreamID: streamID, BlockFragment: sv.blockBuf, EndHeaders: true, EndStream: true,
	})
}

// serviceInterval draws one per-chunk service time.
func (sv *Server) serviceInterval() time.Duration {
	return serviceTime + time.Duration(jitterDraw(sv.s.Rand())%int64(serviceJitter))
}

// jitterDraw draws the value that r.Int63n(serviceJitter) reduces
// modulo serviceJitter, through the same rejection loop, so it consumes
// exactly the source values Int63n would.
func jitterDraw(r *sim.Rand) int64 { return r.Int63Below(jitterMax) }

// pollWorker is the poll lane's handler: a blocked worker's re-poll.
func pollWorker(a any) { a.(*worker).step() }

// worker is one server "thread" streaming one object copy. Workers
// are recycled through Server.wfree (see getWorker); the stepFn
// method value is created once per worker object and survives reuse.
type worker struct {
	sv        *Server
	streamID  uint32
	obj       website.Object
	copyID    int
	sent      int
	cancelled bool
	stepFn    func() // w.step, created once: rescheduling allocates no method value
	sendFn    func() // w.sendHeaders, created once, same reason
}

// sendHeaders emits the response HEADERS record and schedules the
// first data chunk.
func (w *worker) sendHeaders() {
	if w.cancelled {
		return
	}
	sv := w.sv
	sv.blockBuf = sv.henc.AppendHeaderBlock(sv.blockBuf[:0], []h2.HeaderField{
		{Name: ":status", Value: "200"},
		{Name: "content-type", Value: "application/octet-stream"},
	})
	sv.hdrFrame = h2.HeadersFrame{
		StreamID:      w.streamID,
		BlockFragment: sv.blockBuf,
		EndHeaders:    true,
	}
	off, n := sv.writeRecord(&sv.hdrFrame)
	if sv.GroundTruth != nil {
		sv.GroundTruth.AddFrame(trace.FrameEvent{
			Time:     sv.s.Now(),
			StreamID: w.streamID,
			ObjectID: w.obj.ID,
			CopyID:   w.copyID,
			Len:      0, // HEADERS marker
			Offset:   off,
			WireLen:  n,
		})
	}
	sv.s.After(sv.serviceInterval(), w.stepFn)
}

// step enqueues one data chunk and reschedules until the object is
// fully transmitted.
func (w *worker) step() {
	if w.cancelled {
		return
	}
	sv := w.sv
	if !sv.cfg.DisableBackpressure && sv.tcp.BufferedSend() >= sv.cfg.SendBufLimit {
		// Socket buffer full: wait blockedPoll for the wire to drain
		// before producing the next chunk. The discarded draw (no
		// modulo needed) only keeps the rand stream, and so every
		// output byte, as it was; it can go when blocked workers wake
		// on ACK instead, which rebases the golden output anyway.
		r := sv.s.Rand()
		jitterDraw(r)
		sv.polls.AfterArg(blockedPoll, w)
		// Only another event can drain the buffer, so every re-poll
		// due before the next one finds it full too and does just
		// this: draw and re-queue (a cancelled worker's poll is
		// dropped, see handleFrame). Cycle re-queues those polls in
		// place, and their draws follow in one batch, since nothing
		// else draws in between.
		r.SkipBelow(sv.polls.Cycle(blockedPoll), jitterMax)
		return
	}
	n := ChunkPlain
	if rem := w.obj.Size - w.sent; n > rem {
		n = rem
	}
	end := w.sent+n == w.obj.Size
	// The body is a zero run: content is irrelevant, size is the
	// side-channel.
	sv.dataF = h2.DataFrame{StreamID: w.streamID, Len: n, EndStream: end}
	off, wlen := sv.writeRecord(&sv.dataF)
	w.sent += n
	sv.Stats.DataFrames++
	sv.Stats.BytesData += int64(n)
	if sv.GroundTruth != nil {
		sv.GroundTruth.AddFrame(trace.FrameEvent{
			Time:     sv.s.Now(),
			StreamID: w.streamID,
			ObjectID: w.obj.ID,
			CopyID:   w.copyID,
			Len:      n,
			Offset:   off,
			WireLen:  wlen,
			End:      end,
		})
	}
	if end {
		// The completed worker has no pending events left (this firing
		// was its only one), so it can be reused immediately.
		sv.delWorker(w.streamID)
		sv.wfree = append(sv.wfree, w)
		return
	}
	sv.s.After(sv.serviceInterval(), w.stepFn)
}
