package tcpsim

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

func defaultPath() netem.PathConfig {
	return netem.PathConfig{
		ClientSide: netem.LinkConfig{PropDelay: 2 * time.Millisecond},
		ServerSide: netem.LinkConfig{PropDelay: 8 * time.Millisecond},
	}
}

// runTransfer sends size bytes server->client over the given path and
// returns the connection, received buffer, and simulator.
func runTransfer(t *testing.T, seed int64, pathCfg netem.PathConfig, size int) (*Conn, *bytes.Buffer, *sim.Simulator) {
	t.Helper()
	s := sim.New(seed)
	s.MaxSteps = 5_000_000
	var rcv bytes.Buffer
	conn := NewConn(s, pathCfg, Config{}, func(b wire.Bytes) { rcv.Write(wiretest.Plain(b)) }, nil)
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	write(conn.Server, payload)
	s.Run(math.MaxInt64)
	if !conn.Broken() && !bytes.Equal(rcv.Bytes(), payload) {
		t.Fatalf("transfer corrupted: got %d bytes, want %d", rcv.Len(), size)
	}
	return conn, &rcv, s
}

// reorder makes the middlebox hold every packet for a uniform random
// delay in [0, max], so later packets overtake earlier ones: the
// on-path adversary's reordering (links themselves stay FIFO).
func reorder(conn *Conn, s *sim.Simulator, max time.Duration) {
	conn.Path.Mbox.Interceptor = func(trace.Direction, *netem.Packet) netem.Decision {
		return netem.Delay(time.Duration(s.Rand().Int63n(int64(max) + 1)))
	}
}

func TestBulkTransferClean(t *testing.T) {
	conn, rcv, _ := runTransfer(t, 1, defaultPath(), 500<<10)
	if conn.Broken() {
		t.Fatal("clean path broke the connection")
	}
	if rcv.Len() != 500<<10 {
		t.Fatalf("received %d bytes", rcv.Len())
	}
	if conn.Server.Stats.Retransmits != 0 {
		t.Errorf("clean path caused %d retransmits", conn.Server.Stats.Retransmits)
	}
}

func TestBulkTransferWithLoss(t *testing.T) {
	cfg := defaultPath()
	cfg.ServerSide.Loss = 0.02 // 2% loss on both server-side links
	conn, rcv, _ := runTransfer(t, 2, cfg, 200<<10)
	if conn.Broken() {
		t.Fatal("2% loss broke the connection")
	}
	if rcv.Len() != 200<<10 {
		t.Fatalf("received %d bytes", rcv.Len())
	}
	if conn.Server.Stats.Retransmits == 0 {
		t.Error("lossy transfer had no retransmits")
	}
	if conn.Server.Stats.FastRetransmits == 0 {
		t.Error("no fast retransmits despite loss with ongoing traffic")
	}
}

func TestHeavyLossBreaksConnection(t *testing.T) {
	cfg := defaultPath()
	cfg.ServerSide.Loss = 0.95
	s := sim.New(3)
	s.MaxSteps = 5_000_000
	var gotBreak error
	conn := NewConn(s, cfg, Config{}, nil, nil)
	conn.Server.OnBreak = func(err error) { gotBreak = err }
	write(conn.Server, make([]byte, 100<<10))
	s.Run(math.MaxInt64)
	if !conn.Server.Broken() {
		t.Fatal("95% loss did not break the connection")
	}
	if gotBreak == nil {
		t.Error("OnBreak not invoked")
	}
}

func TestReorderingCausesDupAcksAndSpuriousRetransmits(t *testing.T) {
	// Strong reordering by the middlebox's per-packet holds makes the
	// server emit dup-ACKs and the client fast-retransmit — the
	// paper's section IV-B side effect.
	s := sim.New(4)
	s.MaxSteps = 5_000_000
	var rcv bytes.Buffer
	conn := NewConn(s, defaultPath(), Config{}, nil, func(b wire.Bytes) { rcv.Write(wiretest.Plain(b)) })
	reorder(conn, s, 40*time.Millisecond)
	// Many small writes spaced closely, like a burst of GETs.
	total := 0
	for i := 0; i < 60; i++ {
		msg := make([]byte, 200)
		total += len(msg)
		d := time.Duration(i) * 300 * time.Microsecond
		s.After(d, func() { write(conn.Client, msg) })
	}
	s.Run(math.MaxInt64)
	if rcv.Len() != total {
		t.Fatalf("received %d bytes, want %d", rcv.Len(), total)
	}
	if conn.Server.Stats.DupAcksSent == 0 {
		t.Error("reordering produced no dup-ACKs")
	}
	if conn.Client.Stats.Retransmits == 0 {
		t.Error("reordering produced no spurious retransmits")
	}
}

func TestThrottlingInflatesRTT(t *testing.T) {
	// Bandwidth throttling at the middlebox adds queueing delay, which
	// the endpoints observe as a larger RTT (and hence larger RTO and
	// stall timeouts one layer up) — the lever behind the paper's
	// Figure 5 retransmission decline.
	srttAt := func(bps int64) time.Duration {
		s := sim.New(5)
		s.MaxSteps = 5_000_000
		conn := NewConn(s, defaultPath(), Config{}, nil, nil)
		conn.Path.SetBandwidth(bps)
		write(conn.Server, make([]byte, 60<<10))
		s.Run(math.MaxInt64)
		return conn.Server.SRTT()
	}
	fast := srttAt(1_000_000_000)
	slow := srttAt(3_000_000)
	if slow <= fast {
		t.Errorf("throttling did not inflate RTT: fast=%v slow=%v", fast, slow)
	}
}

func TestTimeoutRetransmitCompletes(t *testing.T) {
	cfg := defaultPath()
	cfg.ServerSide.Loss = 1.0 // total blackout initially
	s := sim.New(6)
	s.MaxSteps = 5_000_000
	var rcv bytes.Buffer
	conn := NewConn(s, cfg, Config{}, func(b wire.Bytes) { rcv.Write(wiretest.Plain(b)) }, nil)
	write(conn.Server, make([]byte, 8000))
	// Heal the path after 2.5 seconds (inside the retry budget). Both
	// server-side links carry the ServerSide loss config: data flows
	// over LinkS2M, the returning ACKs over LinkM2S.
	s.After(2500*time.Millisecond, func() {
		conn.Path.LinkS2M.SetLoss(0)
		conn.Path.LinkM2S.SetLoss(0)
	})
	s.Run(math.MaxInt64)
	if conn.Broken() {
		t.Fatal("connection broke despite healing within retry budget")
	}
	if rcv.Len() != 8000 {
		t.Fatalf("received %d bytes, want 8000", rcv.Len())
	}
	if conn.Server.Stats.TimeoutRetransmits == 0 {
		t.Error("no timeout retransmits recorded")
	}
}

func TestRTOBackoffDoubling(t *testing.T) {
	cfg := defaultPath()
	cfg.ServerSide.Loss = 1.0
	s := sim.New(7)
	s.MaxSteps = 5_000_000
	conn := NewConn(s, cfg, Config{MaxRetries: 3}, nil, nil)
	write(conn.Server, make([]byte, 1000))
	var breakTime time.Duration
	conn.Server.OnBreak = func(error) { breakTime = s.Now() }
	s.Run(math.MaxInt64)
	if !conn.Server.Broken() {
		t.Fatal("connection did not break under blackout")
	}
	// 1s + 2s + 4s (+ final 8s check) of backoff before breaking.
	if breakTime < 7*time.Second {
		t.Errorf("broke at %v, want >= 7s of exponential backoff", breakTime)
	}
}

func TestRTTEstimation(t *testing.T) {
	conn, _, _ := runTransfer(t, 8, defaultPath(), 100<<10)
	srtt := conn.Server.SRTT()
	// Path RTT is 2*(2ms+8ms) = 20ms.
	if srtt < 15*time.Millisecond || srtt > 30*time.Millisecond {
		t.Errorf("SRTT = %v, want ~20ms", srtt)
	}
	if rto := conn.Server.RTO(); rto < rtoMin {
		t.Errorf("RTO = %v below floor", rto)
	}
}

func TestBackoffRTO(t *testing.T) {
	s := sim.New(9)
	conn := NewConn(s, defaultPath(), Config{}, nil, nil)
	before := conn.Client.RTO()
	conn.Client.BackoffRTO(4)
	if got := conn.Client.RTO(); got != 4*before {
		t.Errorf("RTO after backoff = %v, want %v", got, 4*before)
	}
	conn.Client.BackoffRTO(0) // no-op
	if got := conn.Client.RTO(); got != 4*before {
		t.Errorf("RTO changed on zero factor: %v", got)
	}
}

func TestCwndGrowsDuringTransfer(t *testing.T) {
	conn, _, _ := runTransfer(t, 10, defaultPath(), 300<<10)
	if conn.Server.Cwnd() <= initialCwnd*MSS {
		t.Errorf("cwnd = %d did not grow past initial %d",
			conn.Server.Cwnd(), initialCwnd*MSS)
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	s := sim.New(11)
	s.MaxSteps = 5_000_000
	var c2s, s2c bytes.Buffer
	conn := NewConn(s, defaultPath(), Config{},
		func(b wire.Bytes) { s2c.Write(wiretest.Plain(b)) },
		func(b wire.Bytes) { c2s.Write(wiretest.Plain(b)) },
	)
	write(conn.Client, bytes.Repeat([]byte("q"), 5000))
	write(conn.Server, bytes.Repeat([]byte("r"), 50000))
	s.Run(math.MaxInt64)
	if c2s.Len() != 5000 || s2c.Len() != 50000 {
		t.Errorf("c2s=%d s2c=%d", c2s.Len(), s2c.Len())
	}
}

func TestWriteAfterBreakIsNoop(t *testing.T) {
	cfg := defaultPath()
	cfg.ServerSide.Loss = 1.0
	s := sim.New(12)
	s.MaxSteps = 5_000_000
	conn := NewConn(s, cfg, Config{MaxRetries: 1}, nil, nil)
	write(conn.Server, make([]byte, 100))
	s.Run(math.MaxInt64)
	if !conn.Server.Broken() {
		t.Fatal("setup: connection should be broken")
	}
	sent := conn.Server.Stats.SegmentsSent
	write(conn.Server, make([]byte, 100))
	s.Run(math.MaxInt64)
	if conn.Server.Stats.SegmentsSent != sent {
		t.Error("broken endpoint still sent segments")
	}
}

func TestDeterministicTransfers(t *testing.T) {
	run := func() (int, int) {
		cfg := defaultPath()
		cfg.ClientSide.Jitter = netem.UniformJitter(10 * time.Millisecond)
		cfg.ServerSide.Loss = 0.01
		s := sim.New(99)
		s.MaxSteps = 5_000_000
		conn := NewConn(s, cfg, Config{}, nil, nil)
		write(conn.Server, make([]byte, 100<<10))
		s.Run(math.MaxInt64)
		return conn.Server.Stats.Retransmits, conn.Server.Stats.SegmentsSent
	}
	r1, s1 := run()
	r2, s2 := run()
	if r1 != r2 || s1 != s2 {
		t.Errorf("same seed diverged: (%d,%d) vs (%d,%d)", r1, s1, r2, s2)
	}
}

// TestSendBufferCompaction interleaves many small writes with the
// partial ACKs of a running transfer. The send queue reclaims the
// acked prefix's storage only once it outweighs the live bytes, so the
// delivered stream must still equal the written one, and the queue's
// storage must stay within about twice the buffered high-water mark
// instead of sliding forward through memory.
func TestSendBufferCompaction(t *testing.T) {
	s := sim.New(13)
	s.MaxSteps = 5_000_000
	var rcv, sent bytes.Buffer
	conn := NewConn(s, defaultPath(), Config{}, func(b wire.Bytes) { rcv.Write(wiretest.Plain(b)) }, nil)
	e := conn.Server
	var hwm, maxLen, maxCap int
	for i := 0; sent.Len() < 4<<20; i++ {
		if e.BufferedSend() < 48<<10 {
			chunk := make([]byte, 1+(i*7919)%3000)
			for j := range chunk {
				chunk[j] = byte(i + j*31)
			}
			sent.Write(chunk)
			write(e, chunk)
			hwm = max(hwm, e.BufferedSend())
			used, capacity := e.sendBuf.Footprint()
			maxLen = max(maxLen, used)
			maxCap = max(maxCap, capacity)
		}
		s.RunUntil(s.Now() + 200*time.Microsecond)
	}
	s.Run(math.MaxInt64)
	if conn.Broken() || !bytes.Equal(rcv.Bytes(), sent.Bytes()) {
		t.Fatalf("delivered %d bytes (broken=%v), want the %d written", rcv.Len(), conn.Broken(), sent.Len())
	}
	if maxLen > 2*hwm {
		t.Errorf("send buffer length peaked at %d, want <= 2 x high-water mark %d", maxLen, hwm)
	}
	// append's growth step and size-class rounding may overshoot the
	// length bound; a buffer sliding through memory would exceed it
	// many times over.
	if maxCap > 3*hwm {
		t.Errorf("send buffer capacity peaked at %d, want about <= 2 x high-water mark %d", maxCap, hwm)
	}
	t.Logf("high-water %d, peak len %d, peak cap %d", hwm, maxLen, maxCap)
}

// write queues b on e as literal bytes and sends what the window
// allows.
func write(e *Endpoint, b []byte) {
	e.SendQueue().AppendLiteral(b)
	e.Flush()
}
