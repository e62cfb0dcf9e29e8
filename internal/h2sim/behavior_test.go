package h2sim

import (
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/trace"
	"repro/internal/website"
)

// tinySite builds an n-object site with the given sizes, requested
// gap apart.
func tinySite(gap time.Duration, sizes ...int) *website.Site {
	s := &website.Site{Name: "tiny"}
	for i, size := range sizes {
		s.Objects = append(s.Objects, website.Object{
			ID: i + 1, Path: pathOf(i + 1), Size: size, Kind: website.KindImage,
		})
		g := gap
		if i == 0 {
			g = 0
		}
		s.Schedule = append(s.Schedule, website.RequestSpec{ObjectID: i + 1, Gap: g})
	}
	s.Finalize()
	return s
}

func pathOf(id int) string { return "/obj/" + string(rune('a'+id)) }

// quietClient disables client-side gap noise for exact-timing tests.
func quietClient() ClientConfig { return ClientConfig{GapNoiseFrac: -1} }

func TestServerChunksAndTerminatesObjects(t *testing.T) {
	site := tinySite(10*time.Millisecond, 3500)
	sess := NewSession(site, SessionConfig{Seed: 1, Client: quietClient()})
	sess.Run()
	var dataFrames []trace.FrameEvent
	for _, f := range sess.GroundTruth.Frames {
		if f.Len > 0 {
			dataFrames = append(dataFrames, f)
		}
	}
	// 3500 bytes at 1400/chunk = 1400 + 1400 + 700.
	if len(dataFrames) != 3 {
		t.Fatalf("frames = %d, want 3", len(dataFrames))
	}
	if dataFrames[0].Len != 1400 || dataFrames[2].Len != 700 {
		t.Errorf("chunk sizes = %d,%d,%d", dataFrames[0].Len, dataFrames[1].Len, dataFrames[2].Len)
	}
	if !dataFrames[2].End || dataFrames[0].End {
		t.Error("END flag on wrong frame")
	}
	// Wire offsets strictly increase and abut record boundaries.
	for i := 1; i < len(dataFrames); i++ {
		if dataFrames[i].Offset <= dataFrames[i-1].Offset {
			t.Error("offsets not increasing")
		}
	}
}

func TestServerServesEveryDuplicateCopy(t *testing.T) {
	site := tinySite(5*time.Millisecond, 50000, 2000)
	sess := NewSession(site, SessionConfig{Seed: 2, Client: quietClient()})
	// Issue a duplicate request for object 1 while it is still in
	// flight.
	sess.Sim.After(30*time.Millisecond, func() { sess.Client.issue(1, true) })
	sess.Run()
	copies := analysis.CopiesOf(analysis.CopyTransmissions(sess.GroundTruth), 1)
	if len(copies) != 2 {
		t.Fatalf("object 1 transmitted %d times, want 2 (duplicate served)", len(copies))
	}
	if sess.Server.Stats.Duplicates != 1 {
		t.Errorf("server duplicates = %d", sess.Server.Stats.Duplicates)
	}
}

func TestServerDedupAblationAnswersEmpty(t *testing.T) {
	site := tinySite(5*time.Millisecond, 50000)
	sess := NewSession(site, SessionConfig{
		Seed:   3,
		Server: ServerConfig{DisableDuplicates: true},
		Client: quietClient(),
	})
	sess.Sim.After(30*time.Millisecond, func() { sess.Client.issue(1, true) })
	sess.Run()
	copies := analysis.CopiesOf(analysis.CopyTransmissions(sess.GroundTruth), 1)
	if len(copies) != 1 {
		t.Fatalf("dedup server transmitted %d copies, want 1", len(copies))
	}
}

func TestServer404ForUnknownPath(t *testing.T) {
	site := tinySite(0, 1000)
	sess := NewSession(site, SessionConfig{Seed: 4, Client: quietClient()})
	// Request a path the site does not serve by grafting an object the
	// server's site lacks into the client's view.
	clientSite := tinySite(0, 1000)
	clientSite.Objects = append(clientSite.Objects, website.Object{ID: 99, Path: "/nope", Size: 10})
	sess.Client.site = clientSite
	sess.Client.objects = growTable(sess.Client.objects, 100)
	sess.Client.objects[99] = &objState{obj: clientSite.Objects[1]}
	sess.Sim.After(100*time.Millisecond, func() { sess.Client.issue(99, true) })
	sess.Run()
	if sess.Client.Complete(99) {
		t.Error("404 object reported complete")
	}
	if !sess.Client.Complete(1) {
		t.Error("valid object incomplete")
	}
}

func TestClientScheduleGapsExact(t *testing.T) {
	site := tinySite(25*time.Millisecond, 1000, 1000, 1000)
	sess := NewSession(site, SessionConfig{Seed: 5, Client: quietClient()})
	sess.Run()
	var reqs []RequestLog
	for _, r := range sess.Client.Requests {
		if !r.ReIssue {
			reqs = append(reqs, r)
		}
	}
	if len(reqs) != 3 {
		t.Fatalf("requests = %d", len(reqs))
	}
	if reqs[1].Time-reqs[0].Time != 25*time.Millisecond ||
		reqs[2].Time-reqs[1].Time != 25*time.Millisecond {
		t.Errorf("gaps = %v, %v; want exact 25ms with noise disabled",
			reqs[1].Time-reqs[0].Time, reqs[2].Time-reqs[1].Time)
	}
}

func TestClientStallTriggersReRequest(t *testing.T) {
	site := tinySite(0, 4000)
	cfg := SessionConfig{Seed: 6, Client: quietClient()}
	cfg.Client.StallBase = 500 * time.Millisecond
	sess := NewSession(site, cfg)
	// Black-hole all server data so the response stalls.
	sess.Middlebox().Interceptor = func(dir trace.Direction, p *netem.Packet) netem.Decision {
		if dir == trace.ServerToClient && p.Payload.Len() > 0 {
			return netem.Drop()
		}
		return netem.Pass()
	}
	sess.Client.Start()
	sess.Sim.RunUntil(2 * time.Second)
	if sess.Client.Stats.ReRequests == 0 {
		t.Error("stalled response produced no re-request")
	}
	if sess.Server.Stats.Duplicates == 0 {
		t.Error("server saw no duplicate request")
	}
}

func TestClientResetAfterStallBurst(t *testing.T) {
	site := tinySite(time.Millisecond, 4000, 4000, 4000, 4000, 4000, 4000)
	cfg := SessionConfig{Seed: 7, Client: quietClient()}
	cfg.Client.StallBase = 400 * time.Millisecond
	cfg.Client.StallsForReset = 4
	sess := NewSession(site, cfg)
	sess.Middlebox().Interceptor = func(dir trace.Direction, p *netem.Packet) netem.Decision {
		if dir == trace.ServerToClient && p.Payload.Len() > 0 {
			return netem.Drop()
		}
		return netem.Pass()
	}
	sess.Client.Start()
	sess.Sim.RunUntil(5 * time.Second)
	if sess.Client.Stats.Resets == 0 {
		t.Fatal("stall burst did not trigger a reset")
	}
	if sess.Server.Stats.Resets == 0 {
		t.Error("server never received the RST_STREAM burst")
	}
}

func TestClientRefetchWindowPacing(t *testing.T) {
	// After a reset, at most RefetchWindow refetches may be in flight
	// before the first completion.
	site := tinySite(time.Millisecond, 3000, 3000, 3000, 3000, 3000, 3000)
	cfg := SessionConfig{Seed: 8, Client: quietClient()}
	cfg.Client.StallBase = 300 * time.Millisecond
	cfg.Client.StallsForReset = 3
	cfg.Client.RefetchWindow = 2
	sess := NewSession(site, cfg)
	dropping := true
	sess.Middlebox().Interceptor = func(dir trace.Direction, p *netem.Packet) netem.Decision {
		if dropping && dir == trace.ServerToClient && p.Payload.Len() > 0 {
			return netem.Drop()
		}
		return netem.Pass()
	}
	// Heal the path once the reset has fired.
	sess.Sim.After(3*time.Second, func() { dropping = false })
	sess.Run()
	if sess.Client.Stats.Resets == 0 {
		t.Skip("no reset in this configuration")
	}
	// Count refetch requests issued before any post-reset completion:
	// they must not exceed the window.
	var resetTime time.Duration
	for _, r := range sess.Client.Requests {
		if r.ReIssue {
			resetTime = r.Time
			break
		}
	}
	inFlight := 0
	for _, r := range sess.Client.Requests {
		if r.ReIssue && r.Time == resetTime {
			inFlight++
		}
	}
	if inFlight > 2 {
		t.Errorf("refetch issued %d requests at once, window is 2", inFlight)
	}
}

func TestRetransmitTriggeredDuplicate(t *testing.T) {
	site := tinySite(0, 2000)
	sess := NewSession(site, SessionConfig{Seed: 9, Client: quietClient()})
	sess.Run()
	before := sess.Client.Stats.ReRequests
	// Simulate the transport retransmitting the request's bytes.
	sess.Client.OnTCPRetransmit(0, 1<<30)
	if sess.Client.Stats.ReRequests != before {
		t.Error("retransmit of a completed object's request re-issued it")
	}
	// Now with an incomplete object: new session, intercept delivery.
	sess2 := NewSession(site, SessionConfig{Seed: 10, Client: quietClient()})
	sess2.Middlebox().Interceptor = func(dir trace.Direction, p *netem.Packet) netem.Decision {
		if dir == trace.ServerToClient && p.Payload.Len() > 0 {
			return netem.Drop()
		}
		return netem.Pass()
	}
	sess2.Client.Start()
	sess2.Sim.RunUntil(200 * time.Millisecond)
	sess2.Client.OnTCPRetransmit(0, 1<<30)
	if sess2.Client.Stats.ReRequests == 0 {
		t.Error("retransmitted pending request not re-issued")
	}
	// The budget bounds repeated triggers.
	for i := 0; i < 20; i++ {
		sess2.Client.OnTCPRetransmit(0, 1<<30)
	}
	if sess2.Client.Stats.ReRequests > maxReRequests+1 {
		t.Errorf("re-requests %d exceeded budget %d",
			sess2.Client.Stats.ReRequests, maxReRequests)
	}
}

func TestBackpressureBoundsEnqueueAhead(t *testing.T) {
	// The server must never be more than SendBufLimit+1 chunk ahead of
	// the transport.
	site := tinySite(time.Millisecond, 60000, 60000)
	cfg := SessionConfig{Seed: 11, Client: quietClient()}
	cfg.Server.SendBufLimit = 16 << 10
	sess := NewSession(site, cfg)
	maxBuf := 0
	var probe func()
	probe = func() {
		if b := sess.Conn.Server.BufferedSend(); b > maxBuf {
			maxBuf = b
		}
		if sess.Sim.Now() < 10*time.Second {
			sess.Sim.After(time.Millisecond, probe)
		}
	}
	sess.Sim.After(0, probe)
	sess.Run()
	limit := 16<<10 + 1400 + 100 // one chunk + record overhead of slack
	if maxBuf > limit {
		t.Errorf("send buffer reached %d, want <= %d", maxBuf, limit)
	}
	if !sess.Client.AllScheduledComplete() {
		t.Error("transfer incomplete")
	}
}

func TestCompletedAtAndOpenStreams(t *testing.T) {
	site := tinySite(10*time.Millisecond, 1000, 1000)
	sess := NewSession(site, SessionConfig{Seed: 12, Client: quietClient()})
	sess.Run()
	if sess.Client.CompletedAt(1) == 0 || sess.Client.CompletedAt(2) == 0 {
		t.Error("CompletedAt not recorded")
	}
	if sess.Client.CompletedAt(1) >= sess.Client.CompletedAt(2) {
		t.Error("objects completed out of order")
	}
	if sess.Client.OpenStreams() != 0 {
		t.Errorf("open streams = %d after completion", sess.Client.OpenStreams())
	}
	if sess.Client.CompletedAt(404) != 0 {
		t.Error("unknown object has a completion time")
	}
}

// TestSessionTimeLimitBoundsRun pins where the page-load loop stops
// for each way a trial ends — the time limit, a break of either TCP
// endpoint, completion, and a site with nothing scheduled (which
// stops before the first event) — as Steps and Now at the end of the
// loop, before the drain, and again after a whole Run. Steps counts
// the superseded timer keys that popped, which a re-arm inside the
// loop mostly does not push, so only the clock pins would hold for an
// eager timer queue.
func TestSessionTimeLimitBoundsRun(t *testing.T) {
	drop := func(from trace.Direction, payloadOnly bool) netem.Interceptor {
		return func(dir trace.Direction, p *netem.Packet) netem.Decision {
			if dir == from && (!payloadOnly || p.Payload.Len() > 0) {
				return netem.Drop()
			}
			return netem.Pass()
		}
	}
	cases := []struct {
		name      string
		site      *website.Site
		cfg       SessionConfig
		intercept netem.Interceptor
		ended     func(*Session) bool // the cause that ended the loop
		loadSteps uint64
		loadNow   time.Duration
		runSteps  uint64
		runNow    time.Duration
	}{
		{
			name:      "time limit",
			site:      tinySite(0, 5000),
			cfg:       SessionConfig{Seed: 13, TimeLimit: 300 * time.Millisecond, DrainTime: time.Millisecond, Client: quietClient()},
			intercept: drop(trace.ServerToClient, true),
			ended:     func(sess *Session) bool { return sess.Sim.Now() >= 300*time.Millisecond },
			// The first event at or past the limit runs, then the loop stops.
			loadSteps: 22, loadNow: 403061808, runSteps: 22, runNow: 404061808,
		},
		{
			name:      "client break",
			site:      tinySite(0, 5000),
			cfg:       SessionConfig{Seed: 13, TCP: tcpsim.Config{MaxRetries: 2}, Client: quietClient()},
			intercept: drop(trace.ClientToServer, false),
			ended:     func(sess *Session) bool { return sess.Conn.Client.Broken() && !sess.Conn.Server.Broken() },
			// RTOs of 1, 2 and 4 s; a broken connection skips the drain.
			loadSteps: 31, loadNow: 7 * time.Second, runSteps: 31, runNow: 7 * time.Second,
		},
		{
			name:      "server break",
			site:      tinySite(0, 5000),
			cfg:       SessionConfig{Seed: 13, TCP: tcpsim.Config{MaxRetries: 2}, Client: quietClient()},
			intercept: drop(trace.ServerToClient, true),
			ended:     func(sess *Session) bool { return sess.Conn.Server.Broken() && !sess.Conn.Client.Broken() },
			loadSteps: 65, loadNow: 7 * time.Second, runSteps: 65, runNow: 7 * time.Second,
		},
		{
			name:      "completion",
			site:      tinySite(20*time.Millisecond, 5000, 30000, 800),
			cfg:       SessionConfig{Seed: 13, DrainTime: 50 * time.Millisecond, Client: quietClient()},
			ended:     func(sess *Session) bool { return sess.Client.AllScheduledComplete() },
			loadSteps: 170, loadNow: 325839720, runSteps: 176, runNow: 375839720,
		},
		{
			name:  "nothing scheduled",
			site:  tinySite(0),
			cfg:   SessionConfig{Seed: 13, DrainTime: 50 * time.Millisecond, Client: quietClient()},
			ended: func(sess *Session) bool { return sess.Client.AllScheduledComplete() },
			// The loop checks before the first event; the SETTINGS
			// exchange runs in the drain.
			loadSteps: 0, loadNow: 0, runSteps: 4, runNow: 50 * time.Millisecond,
		},
	}
	for _, tc := range cases {
		load := NewSession(tc.site, tc.cfg)
		run := NewSession(tc.site, tc.cfg)
		if tc.intercept != nil {
			load.Middlebox().Interceptor = tc.intercept
			run.Middlebox().Interceptor = tc.intercept
		}
		load.load()
		if !tc.ended(load) {
			t.Errorf("%s: the loop stopped for another cause at %v", tc.name, load.Sim.Now())
		}
		if s, n := load.Sim.Steps(), load.Sim.Now(); s != tc.loadSteps || n != tc.loadNow {
			t.Errorf("%s: the loop stopped after %d steps at %v, want %d steps at %v",
				tc.name, s, n, tc.loadSteps, tc.loadNow)
		}
		run.Run()
		if s, n := run.Sim.Steps(), run.Sim.Now(); s != tc.runSteps || n != tc.runNow {
			t.Errorf("%s: Run ended after %d steps at %v, want %d steps at %v",
				tc.name, s, n, tc.runSteps, tc.runNow)
		}
	}
}

func TestServerPushDeliversObjects(t *testing.T) {
	// Object 1 is the "page"; objects 2 and 3 get pushed when it is
	// requested, and the client must not request them itself.
	site := tinySite(300*time.Millisecond, 2000, 3000, 4000)
	cfg := SessionConfig{Seed: 20, Client: quietClient()}
	cfg.Server.Push = map[string][]string{
		pathOf(1): {pathOf(2), pathOf(3)},
	}
	sess := NewSession(site, cfg)
	sess.Run()
	for id := 1; id <= 3; id++ {
		if !sess.Client.Complete(id) {
			t.Errorf("object %d incomplete", id)
		}
	}
	// Only one client GET: the pushed objects' scheduled requests are
	// suppressed by the push match.
	gets := 0
	for _, r := range sess.Client.Requests {
		if !r.ReIssue {
			gets++
		}
	}
	if gets != 1 {
		t.Errorf("client issued %d requests, want 1 (pushes suppress the rest)", gets)
	}
	// Pushed streams are even (server-initiated) in ground truth.
	for _, f := range sess.GroundTruth.Frames {
		if f.ObjectID >= 2 && f.StreamID%2 != 0 {
			t.Errorf("pushed object %d on odd stream %d", f.ObjectID, f.StreamID)
		}
	}
}

func TestServerPushOnlyOnce(t *testing.T) {
	// Re-requesting the pushing page must not re-push. Object 2's own
	// scheduled request comes late enough that the push suppresses it.
	site := tinySite(800*time.Millisecond, 50000, 3000)
	cfg := SessionConfig{Seed: 21, Client: quietClient()}
	cfg.Server.Push = map[string][]string{pathOf(1): {pathOf(2)}}
	sess := NewSession(site, cfg)
	sess.Sim.After(30*time.Millisecond, func() { sess.Client.issue(1, true) })
	sess.Run()
	copies := analysis.CopiesOf(analysis.CopyTransmissions(sess.GroundTruth), 2)
	if len(copies) != 1 {
		t.Errorf("pushed object transmitted %d times, want 1", len(copies))
	}
}

// TestCompletionStopsSiblingCopyTimers pins which stall timers an
// object's completion stops: those of every other open copy of that
// object, and no other stream's. The copies sit on a per-object list,
// so the test opens several copies, closes one from the middle of the
// list, and completes another one.
func TestCompletionStopsSiblingCopyTimers(t *testing.T) {
	site := tinySite(0, 1000, 1000)
	c := NewClient(sim.New(1), quietClient(), site)
	open := func(id uint32, objectID int) *clientStream {
		st := c.getStream()
		st.id, st.objectID = id, objectID
		st.stall.Reset(time.Second)
		c.putStream(id, st)
		return st
	}
	copies := map[uint32]*clientStream{}
	for _, id := range []uint32{1, 3, 5, 9} {
		copies[id] = open(id, 1)
	}
	other := open(7, 2)
	c.closeStream(copies[5])
	done := copies[3]
	done.received = 1000
	c.finishStream(done)
	if !c.objects[1].complete {
		t.Fatal("object 1 not complete")
	}
	for _, id := range []uint32{1, 9} {
		if copies[id].stall.Armed() {
			t.Errorf("stream %d: stall timer still armed after its object completed", id)
		}
	}
	if !other.stall.Armed() {
		t.Error("stream 7 (another object): stall timer stopped")
	}
	if c.OpenStreams() != 3 {
		t.Errorf("open streams = %d, want 3", c.OpenStreams())
	}
}
