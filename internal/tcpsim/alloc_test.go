package tcpsim

import (
	"math"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestSteadyStateTransferZeroAlloc proves the pooled data path: after
// a warm-up transfer has grown every buffer (packet pool, send
// buffers, event heap) to its high-water mark, pushing more bytes
// through a clean connection allocates nothing per segment.
func TestSteadyStateTransferZeroAlloc(t *testing.T) {
	s := sim.New(1)
	conn := NewConn(s, defaultPath(), Config{}, func(wire.Bytes) {}, nil)
	payload := make([]byte, 256<<10)

	// Warm up pools and buffers.
	write(conn.Server, payload)
	s.Run(math.MaxInt64)

	allocs := testing.AllocsPerRun(5, func() {
		write(conn.Server, payload)
		s.Run(math.MaxInt64)
	})
	// With the Karn sentAt map replaced by the recycled sentQ slice,
	// the transport data path is allocation-free outright.
	if allocs != 0 {
		t.Errorf("steady-state 256KiB transfer: %.1f allocs/op, want 0", allocs)
	}
}

// TestPacketPoolRecycles checks the pool actually recycles: a long
// transfer must keep the pool's live packet population bounded near
// the in-flight window rather than one packet per segment sent.
func TestPacketPoolRecycles(t *testing.T) {
	s := sim.New(1)
	conn := NewConn(s, defaultPath(), Config{}, func(wire.Bytes) {}, nil)
	write(conn.Server, make([]byte, 1<<20))
	s.Run(math.MaxInt64)
	sent := conn.Server.Stats.SegmentsSent + conn.Server.Stats.AcksSent +
		conn.Client.Stats.SegmentsSent + conn.Client.Stats.AcksSent
	if free := conn.Path.Pool.Len(); free == 0 || free > sent/3 {
		t.Errorf("pool holds %d packets after %d sends; want bounded recycling (0 < free <= sent/3)", free, sent)
	}
}

// BenchmarkBulkTransfer measures a clean 1 MiB server->client
// transfer end to end through netem: the transport-layer share of a
// trial's cost.
func BenchmarkBulkTransfer(b *testing.B) {
	payload := make([]byte, 1<<20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sim.New(1)
		conn := NewConn(s, defaultPath(), Config{}, func(wire.Bytes) {}, nil)
		write(conn.Server, payload)
		s.Run(math.MaxInt64)
	}
	b.SetBytes(1 << 20)
}

// BenchmarkLossyTransfer exercises the retransmission paths (hold
// queue, RTO timer churn, fast retransmit) under 2% loss.
func BenchmarkLossyTransfer(b *testing.B) {
	payload := make([]byte, 256<<10)
	cfg := netem.PathConfig{
		ClientSide: netem.LinkConfig{PropDelay: 2 * time.Millisecond, Loss: 0.02},
		ServerSide: netem.LinkConfig{PropDelay: 8 * time.Millisecond, Loss: 0.02},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sim.New(int64(i + 1))
		s.MaxSteps = 5_000_000
		conn := NewConn(s, cfg, Config{}, func(wire.Bytes) {}, nil)
		write(conn.Server, payload)
		s.Run(math.MaxInt64)
	}
	b.SetBytes(256 << 10)
}
