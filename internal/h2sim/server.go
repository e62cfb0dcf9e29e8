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
)

// ServerConfig tunes the server model.
type ServerConfig struct {
	// ChunkPlain is the DATA payload per frame/record; sized so one
	// record fits one TCP segment. Default 1400.
	ChunkPlain int

	// ServiceTime is the per-chunk processing time of a worker thread
	// (disk read + TLS sealing). Concurrency of workers over this
	// interval is what interleaves objects. Default 500µs.
	ServiceTime time.Duration

	// ServiceJitter adds uniform [0, ServiceJitter) noise per chunk.
	// Default 200µs.
	ServiceJitter time.Duration

	// HeaderDelay is the request-processing latency before the
	// response HEADERS frame. Default 300µs.
	HeaderDelay time.Duration

	// SendBufLimit is the socket-buffer backpressure threshold: a
	// worker pauses while the TCP send buffer holds at least this many
	// bytes, so the enqueue (interleaving) order tracks the wire pace.
	// This is what lets slow-start over a long-RTT path stretch early
	// object transmissions across later requests — the baseline
	// multiplexing source. Default 24 KiB.
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

func (c ServerConfig) withDefaults() ServerConfig {
	if c.ChunkPlain == 0 {
		c.ChunkPlain = 1400
	}
	if c.ServiceTime == 0 {
		c.ServiceTime = 500 * time.Microsecond
	}
	if c.ServiceJitter == 0 {
		c.ServiceJitter = 200 * time.Microsecond
	}
	if c.HeaderDelay == 0 {
		c.HeaderDelay = 300 * time.Microsecond
	}
	if c.SendBufLimit == 0 {
		c.SendBufLimit = 56 << 10
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
	sealer  tlsrec.Sealer
	scanner h2.FrameScanner
	hdec    *h2.HpackDecoder
	henc    *h2.HpackEncoder

	// GroundTruth receives FrameEvents attributing wire bytes to
	// object copies; may be nil.
	GroundTruth *trace.Trace

	offset int64 // bytes written to the TCP stream so far

	// Dense worker/copy tables, indexed by raw stream ID and object ID
	// (see the Client's tables for the indexing rationale); active
	// counts the non-nil workers so ActiveWorkers is O(1).
	workers       []*worker // by stream ID; nil = no worker on that stream
	copies        []int     // by object ID: copies spawned
	active        int
	nextPushID    uint32 // next server-initiated (even) stream id
	pushedAlready map[string]bool

	// Worker recycling. wfree holds workers ready for reuse; parked
	// holds cancelled workers whose already-scheduled step event has
	// not fired yet (reusing one early would let the stale event drive
	// the wrong stream), reclaimed wholesale at the next Reset.
	wfree  []*worker
	parked []*worker

	// Per-chunk scratch, hoisted so the steady-state transmit path
	// (worker.step → writeRecord) allocates nothing: record/frame/
	// header-block build buffers, the synthetic body (content never
	// varies, only size), a reusable DATA frame value, and the FeedInto
	// callback built once.
	recBuf   []byte
	frameBuf []byte
	blockBuf []byte
	hdrFrame h2.HeadersFrame // scratch: a stack literal would escape through AppendFrame
	zeroBody []byte
	dataF    h2.DataFrame
	frameCb  func(h2.Frame) error

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
	}
	sv.frameCb = func(f h2.Frame) error {
		sv.handleFrame(f)
		return nil
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
	sv.active = 0
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
	if cap(sv.zeroBody) < sv.cfg.ChunkPlain {
		sv.zeroBody = make([]byte, sv.cfg.ChunkPlain)
	} else {
		sv.zeroBody = sv.zeroBody[:sv.cfg.ChunkPlain]
	}
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
	sv.active++
}

// delWorker removes a stream's worker. The stream must be present.
func (sv *Server) delWorker(streamID uint32) {
	sv.workers[streamID] = nil
	sv.active--
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
	settings := h2.MarshalFrame(&h2.SettingsFrame{Settings: []h2.Setting{
		{ID: h2.SettingInitialWindowSize, Val: 1 << 30},
		{ID: h2.SettingMaxConcurrentStreams, Val: 256},
	}})
	sv.writeRecord(tlsrec.TypeAppData, settings)
}

// writeRecord seals plaintext into one record and writes it to TCP,
// returning the record's wire offset and length. The sealed bytes go
// through a recycled buffer (tcp.Write copies them into its send
// buffer), so sealing allocates nothing in steady state.
func (sv *Server) writeRecord(contentType uint8, plaintext []byte) (int64, int) {
	sv.recBuf = sv.sealer.Seal(sv.recBuf[:0], contentType, plaintext)
	off := sv.offset
	sv.offset += int64(len(sv.recBuf))
	sv.tcp.Write(sv.recBuf)
	return off, len(sv.recBuf)
}

// OnBytes is the TCP delivery callback (ordered inbound byte stream).
// The record and frame parse paths run on recycled scratch
// (Opener.Feed, FrameScanner.FeedInto), which is safe because
// handleFrame never retains frame memory past the call.
func (sv *Server) OnBytes(b []byte) {
	recs, err := sv.opener.Feed(b)
	if err != nil {
		return // corrupted stream: drop silently, TCP sim shouldn't produce this
	}
	for _, r := range recs {
		if r.ContentType != tlsrec.TypeAppData {
			continue
		}
		_ = sv.scanner.FeedInto(r.Body, sv.frameCb)
	}
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
			// queue"). Its pending step event still references it, so
			// park it for recycling at the next Reset rather than
			// reusing it immediately.
			w.cancelled = true
			sv.delWorker(fv.StreamID)
			sv.parked = append(sv.parked, w)
		}
	case *h2.SettingsFrame:
		if !fv.Ack {
			sv.writeRecord(tlsrec.TypeAppData, h2.MarshalFrame(&h2.SettingsFrame{Ack: true}))
		}
	default:
		// PING/WINDOW_UPDATE/PRIORITY are irrelevant to the model.
	}
}

// handleRequest spawns a worker thread for the requested object.
// Every received request copy gets its own worker, including
// duplicates from client re-requests — the multi-threaded behaviour
// the paper observed causing intensified multiplexing.
func (sv *Server) handleRequest(f *h2.HeadersFrame) {
	fields, err := sv.hdec.DecodeFullReuse(f.BlockFragment)
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
	sv.s.After(sv.cfg.HeaderDelay, w.sendFn)
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
		sv.frameBuf = h2.AppendFrame(sv.frameBuf[:0], &h2.PushPromiseFrame{
			StreamID:      parentStream,
			PromiseID:     promiseID,
			BlockFragment: sv.blockBuf,
			EndHeaders:    true,
		})
		sv.writeRecord(tlsrec.TypeAppData, sv.frameBuf)
		w := sv.getWorker(promiseID, obj, sv.nextCopy(obj.ID))
		sv.putWorker(promiseID, w)
		sv.Obs.Inc(obs.CH2SrvPush)
		sv.Obs.Inc(obs.CH2SrvWorker)
		sv.s.After(sv.cfg.HeaderDelay, w.sendFn)
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
	sv.frameBuf = h2.AppendFrame(sv.frameBuf[:0], &h2.HeadersFrame{
		StreamID: streamID, BlockFragment: sv.blockBuf, EndHeaders: true, EndStream: true,
	})
	sv.writeRecord(tlsrec.TypeAppData, sv.frameBuf)
}

// serviceInterval draws one per-chunk service time.
func (sv *Server) serviceInterval() time.Duration {
	d := sv.cfg.ServiceTime
	if sv.cfg.ServiceJitter > 0 {
		d += time.Duration(sv.s.Rand().Int63n(int64(sv.cfg.ServiceJitter)))
	}
	return d
}

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
	sv.frameBuf = h2.AppendFrame(sv.frameBuf[:0], &sv.hdrFrame)
	off, n := sv.writeRecord(tlsrec.TypeAppData, sv.frameBuf)
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
		// Socket buffer full: wait for the wire to drain before
		// producing the next chunk. Poll no faster than 10ms so a
		// stalled transport (e.g. during the attack's drop phase) does
		// not turn blocked workers into an event storm.
		retry := sv.serviceInterval()
		if retry < 10*time.Millisecond {
			retry = 10 * time.Millisecond
		}
		sv.s.After(retry, w.stepFn)
		return
	}
	n := sv.cfg.ChunkPlain
	if rem := w.obj.Size - w.sent; n > rem {
		n = rem
	}
	end := w.sent+n == w.obj.Size
	// Synthetic body bytes; content is irrelevant, size is the
	// side-channel.
	sv.dataF = h2.DataFrame{
		StreamID:  w.streamID,
		Data:      sv.zeroBody[:n],
		EndStream: end,
	}
	sv.frameBuf = h2.AppendFrame(sv.frameBuf[:0], &sv.dataF)
	off, wlen := sv.writeRecord(tlsrec.TypeAppData, sv.frameBuf)
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

// ActiveWorkers reports how many object transmissions are in flight.
// O(1): the counter tracks dense-table inserts and removals.
func (sv *Server) ActiveWorkers() int { return sv.active }
