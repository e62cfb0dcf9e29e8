package h2sim

import (
	"time"

	"repro/internal/h2"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/tlsrec"
	"repro/internal/website"
	"repro/internal/wire"
)

// The browser's calibration: the paper's testbed (section V) is one
// fixed Chrome client, so these are constants, not knobs.
const (
	// stallRTTFactor scales the stall timeout with the transport's
	// smoothed RTT: timeout = max(StallBase, factor*SRTT) * backoff.
	// Throttled (queue-inflated) paths therefore re-request less —
	// the mechanism behind the paper's Figure 5 retransmission
	// decline.
	stallRTTFactor = 10

	// maxReRequests bounds duplicate requests per object.
	maxReRequests = 3

	// resetAfterStalls is how many post-exhaustion stalls an object
	// tolerates before the client resets every open stream (the
	// paper's RST_STREAM response to a persistently lossy channel).
	resetAfterStalls = 1

	// resetGrace is the pause between resetting and re-requesting,
	// while the transport recovers and the stale backlog drains (the
	// paper: after a reset "the client's TCP also waits for a longer
	// time").
	resetGrace = 3500 * time.Millisecond

	// maxResets caps reset rounds per page load.
	maxResets = 4
)

// ClientConfig tunes the browser model.
type ClientConfig struct {
	// StallBase is the floor of the per-stream stall timeout. Zero
	// means DefaultStallBase.
	StallBase time.Duration

	// StallsForReset triggers a reset when this many stream stalls
	// burst (within 2.5s of one another) without any object
	// completing — the "highly lossy communication channel" signal of
	// paper section IV-D. Zero means DefaultStallsForReset.
	StallsForReset int

	// RefetchWindow bounds outstanding post-reset refetches. Small
	// windows keep the recovering connection near single-threaded (the
	// paper's observation); large windows re-create the pre-reset
	// interleaving (ablation). Zero means DefaultRefetchWindow.
	RefetchWindow int

	// GapNoiseFrac randomizes schedule gaps by ±frac (client-side
	// think-time noise). Zero means DefaultGapNoiseFrac; negative
	// disables.
	GapNoiseFrac float64

	// DisableReRequest turns off duplicate requests (ablation 2).
	DisableReRequest bool

	// DisableReset turns off the reset-streams policy (ablation 3).
	DisableReset bool
}

// ClientConfig's defaults, which withDefaults fills into zero fields.
const (
	// DefaultStallBase is a browser-scale response deadline; baseline
	// loads must not trip it.
	DefaultStallBase = 2 * time.Second

	// DefaultStallsForReset is the stall burst that triggers a reset.
	DefaultStallsForReset = 6

	// DefaultRefetchWindow bounds outstanding post-reset refetches.
	DefaultRefetchWindow = 2

	// DefaultGapNoiseFrac is the ± fraction of schedule-gap noise.
	DefaultGapNoiseFrac = 0.15
)

func (c ClientConfig) withDefaults() ClientConfig {
	if c.StallBase == 0 {
		c.StallBase = DefaultStallBase
	}
	if c.StallsForReset == 0 {
		c.StallsForReset = DefaultStallsForReset
	}
	if c.RefetchWindow == 0 {
		c.RefetchWindow = DefaultRefetchWindow
	}
	if c.GapNoiseFrac == 0 {
		c.GapNoiseFrac = DefaultGapNoiseFrac
	}
	return c
}

// ClientStats counts client-side events.
type ClientStats struct {
	Requests   int // all request HEADERS sent, including re-requests
	ReRequests int // stall-triggered duplicates (the paper's
	// "retransmission requests")
	Resets    int // reset-all rounds
	Completed int // distinct objects fully received
}

// RequestLog records one issued request for evaluation.
type RequestLog struct {
	Time     time.Duration
	ObjectID int
	CopyID   int
	StreamID uint32
	ReIssue  bool
}

type clientStream struct {
	id       uint32
	objectID int
	copyID   int
	received int
	done     bool
	closed   bool // locally reset
	stall    *sim.Timer
	rearms   int

	// reqStart/reqEnd bound the request record's bytes in the client's
	// outbound TCP stream; reRequested marks that a transport
	// retransmission of those bytes already triggered a duplicate.
	reqStart, reqEnd uint32
	reRequested      bool

	// prevSib/nextSib link the open streams of one object (its
	// copies), headed by objState.openCopies.
	prevSib, nextSib *clientStream
}

type objState struct {
	obj             website.Object
	requested       bool
	scheduled       bool // appears in the site schedule (counted by scheduledLeft)
	complete        bool
	completedAt     time.Duration
	reRequests      int
	exhaustedStalls int
	pushed          bool // a server push for this object is in flight or done

	// openCopies heads the list of this object's open streams, so
	// completing the object stops its siblings' stall timers without
	// walking the whole stream table.
	openCopies *clientStream
}

// Client is the simulated browser: it issues the site's request
// schedule, re-requests stalled objects, and resets streams on a
// persistently failing channel.
type Client struct {
	s    *sim.Simulator
	cfg  ClientConfig
	site *website.Site
	tcp  *tcpsim.Endpoint

	opener  tlsrec.Opener
	scanner h2.FrameScanner
	hdec    *h2.HpackDecoder
	henc    *h2.HpackEncoder

	// Dense state tables, indexed by raw stream ID and object ID (both
	// are small and sequential in this simulation: client streams are
	// odd 1,3,5,… and pushed streams even 2,4,…, object IDs top out at
	// ~108). They replace the map[uint32]/map[int] tables that
	// dominated the hot path with mapaccess calls; lookups are now a
	// bounds check and an index.
	streams []*clientStream // by stream ID; nil = no such open stream
	objects []*objState     // by object ID; nil = unknown object
	copies  []int           // by object ID: next copy sequence number

	// O(1) trial-completion state: open counts the non-nil entries of
	// streams; scheduledLeft counts distinct scheduled objects not yet
	// complete (an unknown scheduled ID counts forever, matching the
	// old per-event scan that could never find it complete).
	open          int
	scheduledLeft int

	nextStreamID uint32
	stallMult    time.Duration
	bytesOut     uint32        // bytes written to the transport so far
	dryStalls    int           // stalls since the last completion, within a burst
	lastStall    time.Duration // time of the most recent stall
	refetchQ     []int         // post-reset refetch queue (object IDs)
	refetchBack  []int         // refetchQ's backing array (refetchQ is sliced forward)
	docsScratch  []int         // resetAll priority-partition scratch
	restScratch  []int
	refetchOut   int // outstanding refetches from the queue

	// Per-request scratch, hoisted so issuing requests and parsing
	// responses allocate only per-stream state, not per-byte-chunk:
	// the header-block build buffer, the streamsByID snapshot, and the
	// Opener.Feed and FeedInto callbacks built once.
	blockBuf []byte
	hdrFrame h2.HeadersFrame   // scratch: a stack literal would escape through writeRecord
	rstFrame h2.RSTStreamFrame // scratch: same escape-avoidance for reset rounds
	sbuf     []*clientStream
	frameCb  func(h2.Frame) error
	recordCb func(tlsrec.Record)
	issueFn  func(any) // AfterArg callback for scheduled issues

	// Recycled per-stream and per-object state. A pooled clientStream
	// keeps its stall Timer (a queued key fires only the deadline of
	// its latest Reset, so a stale one is a no-op), so steady-state
	// request issuance allocates nothing.
	sfree []*clientStream
	ofree []*objState

	// Stats accumulates counters; Requests lists every issued request.
	Stats    ClientStats
	Requests []RequestLog

	// OnComplete, when non-nil, fires once per completed object.
	OnComplete func(objectID int)

	// OnAllComplete, when non-nil, fires once every scheduled object
	// is complete: at the completion of the last one, or from Start
	// when nothing is scheduled.
	OnAllComplete func()

	// Obs receives metric increments and flight events; the zero Sink
	// discards them.
	Obs obs.Sink
}

// NewClient builds the client for a site. Call Attach then Start.
// Construction is skeleton allocation plus Reset, so a freshly built
// client and a reused one start every trial in identical state by
// construction.
func NewClient(s *sim.Simulator, cfg ClientConfig, site *website.Site) *Client {
	c := &Client{
		s:    s,
		hdec: h2.NewHpackDecoder(4096),
		henc: h2.NewHpackEncoder(4096),
	}
	c.frameCb = func(f h2.Frame) error {
		c.handleFrame(f)
		return nil
	}
	c.recordCb = func(r tlsrec.Record) {
		if r.ContentType == tlsrec.TypeAppData {
			_ = c.scanner.FeedInto(r.Body, c.frameCb)
		}
	}
	c.issueFn = func(a any) { c.issue(a.(int), false) }
	c.Reset(cfg, site)
	return c
}

// Reset returns the client to its just-constructed state for a new
// trial: configuration and site swapped in, protocol state (HPACK
// tables, scanners, stream table, object states, counters) rewound,
// stats zeroed. Stream and object-state structs are recycled; the
// Requests log is released (not truncated) because the previous
// trial's result may still reference it. Call after the simulator has
// been Reset, then Attach and Start.
func (c *Client) Reset(cfg ClientConfig, site *website.Site) {
	c.cfg = cfg.withDefaults()
	c.site = site
	c.tcp = nil
	c.opener.Reset()
	c.scanner.Reset()
	c.hdec.Reset(4096)
	c.henc.Reset(4096)
	for id, st := range c.streams {
		if st != nil {
			st.stall.Stop()
			c.sfree = append(c.sfree, st)
			c.streams[id] = nil
		}
	}
	c.open = 0
	maxID := 0
	for _, o := range site.Objects {
		if o.ID > maxID {
			maxID = o.ID
		}
	}
	for id, os := range c.objects {
		if os != nil {
			c.ofree = append(c.ofree, os)
			c.objects[id] = nil
		}
	}
	c.objects = growTable(c.objects, maxID+1)
	c.copies = growTable(c.copies, maxID+1)
	for i := range c.copies {
		c.copies[i] = 0
	}
	for _, o := range site.Objects {
		os := c.getObjState()
		os.obj = o
		c.objects[o.ID] = os
	}
	// Seed the O(1) completion counter: one unit per distinct scheduled
	// object. A scheduled ID with no object state can never complete,
	// so it is counted permanently (AllScheduledComplete stays false),
	// exactly like the old per-call scan.
	c.scheduledLeft = 0
	for _, spec := range site.Schedule {
		if spec.ObjectID < 0 || spec.ObjectID > maxID || c.objects[spec.ObjectID] == nil {
			c.scheduledLeft++
			continue
		}
		if os := c.objects[spec.ObjectID]; !os.scheduled {
			os.scheduled = true
			c.scheduledLeft++
		}
	}
	c.nextStreamID = 1
	c.stallMult = 1
	c.bytesOut = 0
	c.dryStalls = 0
	c.lastStall = 0
	c.refetchQ = c.refetchQ[:0]
	c.refetchOut = 0
	for i := range c.sbuf {
		c.sbuf[i] = nil
	}
	c.sbuf = c.sbuf[:0]
	c.Stats = ClientStats{}
	// Requests escapes into the trial result, so it must be freshly
	// allocated (never truncated) — but sized to the schedule so the
	// log grows in one allocation instead of a doubling chain.
	c.Requests = make([]RequestLog, 0, len(site.Schedule)+8)
	c.OnComplete = nil
	c.OnAllComplete = nil
	c.Obs = obs.Sink{}
}

// stream looks up an open stream by raw ID; nil if absent.
func (c *Client) stream(id uint32) *clientStream {
	if int(id) >= len(c.streams) {
		return nil
	}
	return c.streams[id]
}

// putStream registers an open stream in the dense table and on its
// object's copy list.
func (c *Client) putStream(id uint32, st *clientStream) {
	if int(id) >= len(c.streams) {
		c.streams = growTable(c.streams, int(id)+1)
	}
	c.streams[id] = st
	c.open++
	if os := c.object(st.objectID); os != nil {
		st.nextSib = os.openCopies
		if os.openCopies != nil {
			os.openCopies.prevSib = st
		}
		os.openCopies = st
	}
}

// delStream removes an open stream from the table and from its
// object's copy list. The stream must be present.
func (c *Client) delStream(st *clientStream) {
	c.streams[st.id] = nil
	c.open--
	if st.prevSib != nil {
		st.prevSib.nextSib = st.nextSib
	} else if os := c.object(st.objectID); os != nil {
		os.openCopies = st.nextSib
	}
	if st.nextSib != nil {
		st.nextSib.prevSib = st.prevSib
	}
}

// nextCopy returns and advances the object's copy sequence number.
func (c *Client) nextCopy(objectID int) int {
	if objectID >= len(c.copies) {
		c.copies = growTable(c.copies, objectID+1)
	}
	n := c.copies[objectID]
	c.copies[objectID]++
	return n
}

// object looks up per-object state by ID; nil if unknown.
func (c *Client) object(id int) *objState {
	if id < 0 || id >= len(c.objects) {
		return nil
	}
	return c.objects[id]
}

// getStream returns a recycled stream (zeroed, keeping its prebuilt
// stall timer) or a fresh one. The timer's keys fire only the deadline
// of its latest Reset, so any stale key queued for the stream's
// previous life is a no-op.
func (c *Client) getStream() *clientStream {
	if n := len(c.sfree); n > 0 {
		st := c.sfree[n-1]
		c.sfree[n-1] = nil
		c.sfree = c.sfree[:n-1]
		*st = clientStream{stall: st.stall}
		return st
	}
	st := &clientStream{}
	st.stall = c.s.NewTimer(func() { c.onStall(st) })
	return st
}

// freeStream stops the stream's timer and recycles it. The caller
// must not touch st afterwards.
func (c *Client) freeStream(st *clientStream) {
	st.stall.Stop()
	c.sfree = append(c.sfree, st)
}

// getObjState returns a recycled (zeroed) object state or a fresh one.
func (c *Client) getObjState() *objState {
	if n := len(c.ofree); n > 0 {
		os := c.ofree[n-1]
		c.ofree[n-1] = nil
		c.ofree = c.ofree[:n-1]
		*os = objState{}
		return os
	}
	return &objState{}
}

// Attach wires the client to its TCP endpoint and announces SETTINGS.
func (c *Client) Attach(tcp *tcpsim.Endpoint) {
	c.tcp = tcp
	c.writeRecord(&clientSettings)
}

// clientSettings is the SETTINGS frame the client announces. Read-only.
var clientSettings = h2.SettingsFrame{Settings: []h2.Setting{
	{ID: h2.SettingInitialWindowSize, Val: 1 << 30},
}}

// writeRecord seals f into one application-data record straight into
// the TCP send queue and sends it, returning the record's byte range
// in the client's outbound stream.
func (c *Client) writeRecord(f h2.Frame) (start, end uint32) {
	plain := f.Header().WireLen()
	tlsrec.SealHeader(c.tcp.SendQueue(), tlsrec.TypeAppData, plain)
	h2.AppendFrame(c.tcp.SendQueue(), f)
	return c.sendRecord(plain)
}

// sendRecord closes the record of plain plaintext bytes just written
// to the TCP send queue and sends it, returning the record's byte
// range in the client's outbound stream.
func (c *Client) sendRecord(plain int) (start, end uint32) {
	tlsrec.SealTrailer(c.tcp.SendQueue())
	start = c.bytesOut
	c.bytesOut += uint32(tlsrec.HeaderLen + plain + tlsrec.Overhead)
	c.tcp.Flush()
	return start, c.bytesOut
}

// Start schedules the site's request sequence from the current
// simulation time.
func (c *Client) Start() {
	at := time.Duration(0)
	for _, spec := range c.site.Schedule {
		gap := spec.Gap
		if c.cfg.GapNoiseFrac > 0 && gap > 0 {
			f := 1 + c.cfg.GapNoiseFrac*(2*c.s.Rand().Float64()-1)
			gap = time.Duration(float64(gap) * f)
		}
		at += gap
		// AfterArg with the prebuilt callback: no per-entry closure,
		// and small ints box allocation-free (the runtime preboxes
		// values < 256, which covers every object ID).
		c.s.AfterArg(at, c.issueFn, spec.ObjectID)
	}
	if c.scheduledLeft == 0 && c.OnAllComplete != nil {
		c.OnAllComplete()
	}
}

// issue sends one GET for the object; reissue marks stall-triggered
// duplicates and post-reset retries.
func (c *Client) issue(objectID int, reissue bool) {
	if c.tcp.Broken() {
		return
	}
	os := c.object(objectID)
	if os == nil || os.complete {
		return
	}
	if os.pushed && !reissue {
		// A matching server push is in flight: the browser does not
		// re-request pushed resources.
		return
	}
	os.requested = true
	id := c.nextStreamID
	c.nextStreamID += 2
	copyID := c.nextCopy(objectID)

	c.blockBuf = c.henc.AppendHeaderBlock(c.blockBuf[:0], []h2.HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "www.isidewith.test"},
		{Name: ":path", Value: os.obj.Path},
	})
	c.hdrFrame = h2.HeadersFrame{
		StreamID:      id,
		BlockFragment: c.blockBuf,
		EndHeaders:    true,
		EndStream:     true,
	}
	reqStart, reqEnd := c.writeRecord(&c.hdrFrame)
	c.Stats.Requests++
	c.Obs.Inc(obs.CH2Request)
	c.Obs.Event(c.s.Now(), obs.EvH2Request, int64(id), int64(objectID))
	c.Requests = append(c.Requests, RequestLog{
		Time: c.s.Now(), ObjectID: objectID, CopyID: copyID, StreamID: id, ReIssue: reissue,
	})

	st := c.getStream()
	st.id, st.objectID, st.copyID = id, objectID, copyID
	st.reqStart, st.reqEnd = reqStart, reqEnd
	st.stall.Reset(c.stallTimeout())
	c.putStream(id, st)
}

// stallTimeout derives the adaptive stall deadline.
func (c *Client) stallTimeout() time.Duration {
	d := stallRTTFactor * c.tcp.SRTT()
	if d < c.cfg.StallBase {
		d = c.cfg.StallBase
	}
	return d * c.stallMult
}

// OnTCPRetransmit reacts to the transport retransmitting client
// bytes: when the retransmitted range covers a pending request, the
// client re-issues that request on a fresh stream — the browser
// behaviour the paper describes as "TCP fast-retransmits for the same
// object" that makes the server spawn duplicate workers.
func (c *Client) OnTCPRetransmit(seqStart, seqEnd uint32) {
	if c.cfg.DisableReRequest {
		return
	}
	for _, st := range c.streamsByID() {
		if st.reRequested || st.done || st.closed {
			continue
		}
		if st.reqStart >= seqEnd || st.reqEnd <= seqStart {
			continue
		}
		os := c.object(st.objectID)
		if os == nil || os.complete || os.reRequests >= maxReRequests {
			continue
		}
		st.reRequested = true
		os.reRequests++
		c.Stats.ReRequests++
		c.Obs.Inc(obs.CH2ReRequest)
		c.issue(st.objectID, true)
	}
}

// OnBytes is the TCP delivery callback. Records and frames are parsed
// on recycled scratch (Opener.Feed, FrameScanner.FeedInto);
// handleFrame never retains frame memory past the call. A corrupt
// stream, which the TCP simulation never produces, stops the parse.
func (c *Client) OnBytes(b wire.Bytes) {
	_ = c.opener.Feed(b, c.recordCb)
}

func (c *Client) handleFrame(f h2.Frame) {
	switch fv := f.(type) {
	case *h2.HeadersFrame:
		st := c.stream(fv.StreamID)
		if st == nil || st.closed {
			return
		}
		if fv.EndStream {
			// Empty response (404 or deduplicated copy): the stream
			// ends without completing the object.
			c.finishStream(st)
			return
		}
		st.stall.Reset(c.stallTimeout())
	case *h2.DataFrame:
		st := c.stream(fv.StreamID)
		if st == nil || st.closed {
			return
		}
		st.received += fv.Len
		st.stall.Reset(c.stallTimeout())
		if fv.EndStream {
			c.finishStream(st)
		}
	case *h2.SettingsFrame:
		if !fv.Ack {
			c.writeRecord(&settingsAck)
		}
	case *h2.RSTStreamFrame:
		if st := c.stream(fv.StreamID); st != nil {
			c.closeStream(st)
		}
	case *h2.PushPromiseFrame:
		c.handlePushPromise(fv)
	default:
	}
}

// handlePushPromise registers a server-initiated stream: the pushed
// response will arrive on PromiseID, and the client will not request
// the resource itself.
func (c *Client) handlePushPromise(f *h2.PushPromiseFrame) {
	fields, err := c.hdec.DecodeFull(f.BlockFragment)
	if err != nil {
		return
	}
	var path string
	for _, hf := range fields {
		if hf.Name == ":path" {
			path = hf.Value
		}
	}
	obj, ok := c.site.ObjectByPath(path)
	if !ok {
		return
	}
	os := c.object(obj.ID)
	if os == nil || os.complete {
		return
	}
	os.pushed = true
	c.Obs.Inc(obs.CH2PushPromise)
	st := c.getStream()
	st.id, st.objectID, st.copyID = f.PromiseID, obj.ID, c.nextCopy(obj.ID)
	st.stall.Reset(c.stallTimeout())
	c.putStream(f.PromiseID, st)
}

// finishStream handles END_STREAM on a live stream. The stream is
// recycled immediately (its stall timer is stopped, so any stale queued
// key is a no-op), so the body works from copied locals.
func (c *Client) finishStream(st *clientStream) {
	st.done = true
	objectID, received := st.objectID, st.received
	c.delStream(st)
	c.freeStream(st)
	os := c.object(objectID)
	if os == nil || os.complete {
		return
	}
	if received >= os.obj.Size {
		os.complete = true
		os.completedAt = c.s.Now()
		if os.scheduled {
			c.scheduledLeft--
			if c.scheduledLeft == 0 && c.OnAllComplete != nil {
				c.OnAllComplete()
			}
		}
		c.Stats.Completed++
		c.Obs.Inc(obs.CH2ObjComplete)
		c.Obs.Event(c.s.Now(), obs.EvH2ObjComplete, int64(objectID), int64(received))
		c.dryStalls = 0 // completions are the liveness signal
		if c.refetchOut > 0 {
			c.refetchOut--
			c.pumpRefetch()
		}
		// Quiesce sibling copies' timers: the object is done.
		for other := os.openCopies; other != nil; other = other.nextSib {
			other.stall.Stop()
		}
		if c.OnComplete != nil {
			c.OnComplete(objectID)
		}
	}
}

func (c *Client) closeStream(st *clientStream) {
	st.closed = true
	c.delStream(st)
	c.freeStream(st)
}

// streamsByID snapshots the open streams in ascending stream-id
// order. Every walk that has side effects (re-issuing requests,
// emitting RST_STREAM frames) must use this instead of mutating the
// table mid-walk; the dense table is already in ID order, so the
// snapshot is one linear sweep (the sort that the old map table
// needed is gone). The returned slice is scratch reused by the next
// call; no caller nests walks.
func (c *Client) streamsByID() []*clientStream {
	out := c.sbuf[:0]
	for _, st := range c.streams {
		if st != nil {
			out = append(out, st)
		}
	}
	c.sbuf = out
	return out
}

// onStall handles a stream whose response made no progress within the
// stall timeout: the client re-requests the object ("fast-retransmit"
// behaviour the paper describes), and on persistent failure resets
// every open stream.
func (c *Client) onStall(st *clientStream) {
	if st.closed || st.done || c.tcp.Broken() {
		return
	}
	st.rearms++
	if st.rearms > 12 {
		return // give up on this stream; bounds simulation work
	}
	os := c.object(st.objectID)
	if os == nil || os.complete {
		return
	}
	c.Obs.Inc(obs.CH2Stall)
	c.Obs.Event(c.s.Now(), obs.EvH2Stall, int64(c.open), 0)
	// A lossy channel shows up as a burst of stalls with nothing
	// completing; isolated stalls on a merely slow page do not count.
	if c.s.Now()-c.lastStall > 2500*time.Millisecond {
		c.dryStalls = 0
	}
	c.lastStall = c.s.Now()
	c.dryStalls++
	if !c.cfg.DisableReset && c.dryStalls >= c.cfg.StallsForReset && c.Stats.Resets < maxResets {
		c.resetAll()
		return
	}
	if !c.cfg.DisableReRequest && os.reRequests < maxReRequests {
		os.reRequests++
		c.Stats.ReRequests++
		c.Obs.Inc(obs.CH2ReRequest)
		c.issue(st.objectID, true)
		st.stall.Reset(2 * c.stallTimeout())
		return
	}
	os.exhaustedStalls++
	if !c.cfg.DisableReset && os.exhaustedStalls >= resetAfterStalls && c.Stats.Resets < maxResets {
		c.resetAll()
		return
	}
	st.stall.Reset(2 * c.stallTimeout())
}

// resetAll sends RST_STREAM for every open stream in one record,
// backs off the transport, and re-requests incomplete objects after a
// grace period — the paper's section IV-D client behaviour.
func (c *Client) resetAll() {
	c.Stats.Resets++
	streams := c.streamsByID()
	reset := len(streams)
	if reset > 0 {
		plain := reset * c.rstFrame.Header().WireLen()
		tlsrec.SealHeader(c.tcp.SendQueue(), tlsrec.TypeAppData, plain)
		for _, st := range streams {
			c.rstFrame = h2.RSTStreamFrame{StreamID: st.id, Code: h2.ErrCodeCancel}
			h2.AppendFrame(c.tcp.SendQueue(), &c.rstFrame)
			c.closeStream(st)
		}
		c.sendRecord(plain)
	}
	c.Obs.Inc(obs.CH2ResetRound)
	c.Obs.Add(obs.CH2StreamReset, uint64(reset))
	c.Obs.Event(c.s.Now(), obs.EvH2ResetRound, int64(reset), int64(c.Stats.Resets))
	// The client's TCP stack raises its retransmission timeout in
	// response to the lossy channel (paper: "The client's TCP also
	// waits for a longer time before attempting to send
	// fast-retransmission requests").
	c.tcp.BackoffRTO(2)
	c.stallMult *= 2
	c.dryStalls = 0
	// Wait out the channel: at least resetGrace, and longer on
	// long-RTT paths where the server's backed-off retransmission
	// timer takes proportionally longer to recover.
	grace := resetGrace
	if byRTT := 14 * c.tcp.SRTT(); byRTT > grace {
		grace = byRTT
	}
	c.s.After(grace, func() {
		// Re-request pending objects in priority order: documents
		// first, then the rest in schedule order (the paper: "the
		// client resends GET requests if a high priority object is
		// not yet received" — and only then the rest).
		docs, rest := c.docsScratch[:0], c.restScratch[:0]
		for _, spec := range c.site.Schedule {
			os := c.object(spec.ObjectID)
			if os == nil || !os.requested || os.complete {
				continue
			}
			if os.obj.Kind == website.KindHTML {
				docs = append(docs, spec.ObjectID)
			} else {
				rest = append(rest, spec.ObjectID)
			}
		}
		c.docsScratch, c.restScratch = docs, rest
		// Refetch conservatively: a small window of outstanding
		// refetches, paced by completions, so the recovering
		// connection serves them near-serially (the single-threaded
		// mode the paper observes after a reset).
		c.refetchQ = append(append(c.refetchBack[:0], docs...), rest...)
		c.refetchBack = c.refetchQ
		c.refetchOut = 0
		c.pumpRefetch()
	})
}

// pumpRefetch issues queued refetches up to the window.
func (c *Client) pumpRefetch() {
	for c.refetchOut < c.cfg.RefetchWindow && len(c.refetchQ) > 0 {
		id := c.refetchQ[0]
		c.refetchQ = c.refetchQ[1:]
		os := c.object(id)
		if os == nil || os.complete {
			continue
		}
		os.reRequests = 0
		os.exhaustedStalls = 0
		c.refetchOut++
		c.Obs.Inc(obs.CH2Refetch)
		c.Obs.Event(c.s.Now(), obs.EvH2Refetch, int64(id), 0)
		c.issue(id, true)
	}
}

// Complete reports whether the object has been fully received.
func (c *Client) Complete(objectID int) bool {
	os := c.object(objectID)
	return os != nil && os.complete
}

// CompletedAt returns when the object finished (zero if incomplete).
func (c *Client) CompletedAt(objectID int) time.Duration {
	os := c.object(objectID)
	if os == nil {
		return 0
	}
	return os.completedAt
}

// AllScheduledComplete reports whether every object in the schedule
// has been fully received. O(1): the scheduledLeft counter is seeded
// at Reset and decremented as scheduled objects complete.
func (c *Client) AllScheduledComplete() bool { return c.scheduledLeft == 0 }

// OpenStreams reports in-flight request count.
func (c *Client) OpenStreams() int { return c.open }
