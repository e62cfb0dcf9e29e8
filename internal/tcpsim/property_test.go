package tcpsim

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// TestDeliveryIntegrityQuick is the transport's core property: under
// arbitrary (bounded) loss, jitter, and reordering, every byte written
// is delivered exactly once, in order, unless the connection breaks.
func TestDeliveryIntegrityQuick(t *testing.T) {
	f := func(seed int64, lossPct, jitterMs, sizeKB uint8, reordered bool) bool {
		loss := float64(lossPct%8) / 100 // 0-7%
		size := (int(sizeKB)%64 + 1) << 10
		jitter := time.Duration(jitterMs%20) * time.Millisecond
		cfg := netem.PathConfig{
			ClientSide: netem.LinkConfig{PropDelay: 2 * time.Millisecond},
			ServerSide: netem.LinkConfig{
				PropDelay: 5 * time.Millisecond,
				Loss:      loss,
				Jitter:    netem.UniformJitter(jitter),
			},
		}
		s := sim.New(seed)
		s.MaxSteps = 10_000_000
		var rcv bytes.Buffer
		conn := NewConn(s, cfg, Config{}, func(b wire.Bytes) { rcv.Write(wiretest.Plain(b)) }, nil)
		if reordered {
			reorder(conn, s, jitter+time.Millisecond)
		}
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i*7 + int(seed))
		}
		write(conn.Server, payload)
		s.Run(math.MaxInt64)
		if conn.Broken() {
			return true // breaking under loss is a legal outcome
		}
		return bytes.Equal(rcv.Bytes(), payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCompactingQueueIntegrityQuick writes literal chunks and zero runs
// in turn while the transfer runs, under loss on both halves of the
// path, jitter and reordering, so the send queue reclaims acked bytes'
// storage while segments cut from it are still in flight or held out
// of order. The receiver must rebuild the written stream exactly (a
// prefix of it if the connection breaks), and the middlebox tap, which
// joins at the first segment that reaches it, a suffix of it (a part
// of it).
func TestCompactingQueueIntegrityQuick(t *testing.T) {
	f := func(seed int64, lossPct, jitterMs uint8, reordered bool) bool {
		loss := float64(lossPct%6) / 100 // 0-5%
		jitter := time.Duration(jitterMs%20) * time.Millisecond
		cfg := netem.PathConfig{
			ClientSide: netem.LinkConfig{PropDelay: 2 * time.Millisecond, Loss: loss / 2},
			ServerSide: netem.LinkConfig{
				PropDelay: 5 * time.Millisecond,
				Loss:      loss,
				Jitter:    netem.UniformJitter(jitter),
			},
		}
		s := sim.New(seed)
		s.MaxSteps = 10_000_000
		var rcv, tapped, sent bytes.Buffer
		conn := NewConn(s, cfg, Config{}, func(b wire.Bytes) { rcv.Write(wiretest.Plain(b)) }, nil)
		if reordered {
			reorder(conn, s, jitter+time.Millisecond)
		}
		conn.Path.Mbox.Tap = func(dir trace.Direction, b wire.Bytes) {
			if dir == trace.ServerToClient {
				tapped.Write(wiretest.Plain(b))
			}
		}
		for i := 0; i < 300; i++ {
			chunk := make([]byte, 1+(i*7919+int(seed&0xffff))%2000)
			if i%2 == 0 {
				for j := range chunk {
					chunk[j] = byte(i + j*31 + int(seed))
				}
			}
			sent.Write(chunk)
			s.After(time.Duration(i)*time.Millisecond, func() {
				if i%2 == 0 {
					conn.Server.SendQueue().AppendLiteral(chunk)
				} else {
					conn.Server.SendQueue().AppendZeros(len(chunk))
				}
				conn.Server.Flush()
			})
		}
		s.Run(math.MaxInt64)
		if conn.Broken() {
			return bytes.HasPrefix(sent.Bytes(), rcv.Bytes()) && bytes.Contains(sent.Bytes(), tapped.Bytes())
		}
		return bytes.Equal(rcv.Bytes(), sent.Bytes()) && bytes.HasSuffix(sent.Bytes(), tapped.Bytes()) &&
			tapped.Len() > sent.Len()-initialCwnd*MSS
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestBidirectionalIntegrityQuick checks both directions concurrently.
func TestBidirectionalIntegrityQuick(t *testing.T) {
	f := func(seed int64, aKB, bKB uint8) bool {
		s := sim.New(seed)
		s.MaxSteps = 10_000_000
		var c2s, s2c bytes.Buffer
		conn := NewConn(s, netem.PathConfig{
			ClientSide: netem.LinkConfig{PropDelay: time.Millisecond},
			ServerSide: netem.LinkConfig{PropDelay: 4 * time.Millisecond, Loss: 0.01},
		}, Config{},
			func(b wire.Bytes) { s2c.Write(wiretest.Plain(b)) },
			func(b wire.Bytes) { c2s.Write(wiretest.Plain(b)) },
		)
		up := make([]byte, (int(aKB)%32+1)<<10)
		down := make([]byte, (int(bKB)%32+1)<<10)
		write(conn.Client, up)
		write(conn.Server, down)
		s.Run(math.MaxInt64)
		if conn.Broken() {
			return true
		}
		return c2s.Len() == len(up) && s2c.Len() == len(down)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestNoRetransmitWithoutImpairment: on a clean FIFO path, the
// transport must never retransmit (efficiency property; spurious
// retransmissions would distort every experiment).
func TestNoRetransmitWithoutImpairment(t *testing.T) {
	f := func(seed int64, sizeKB uint8, rateMbps uint8) bool {
		s := sim.New(seed)
		s.MaxSteps = 10_000_000
		cfg := netem.PathConfig{
			ClientSide: netem.LinkConfig{PropDelay: time.Millisecond},
			ServerSide: netem.LinkConfig{
				PropDelay:      8 * time.Millisecond,
				RateBitsPerSec: int64(rateMbps%50+5) * 1_000_000,
				MaxQueueDelay:  10 * time.Second, // no queue drops
			},
		}
		conn := NewConn(s, cfg, Config{}, func(wire.Bytes) {}, nil)
		write(conn.Server, make([]byte, (int(sizeKB)%128+1)<<10))
		s.Run(math.MaxInt64)
		return conn.Server.Stats.Retransmits == 0 && !conn.Broken()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSeqArithmeticWraparound exercises modular comparisons.
func TestSeqArithmeticWraparound(t *testing.T) {
	cases := []struct {
		a, b     uint32
		less, le bool
	}{
		{0, 1, true, true},
		{1, 0, false, false},
		{5, 5, false, true},
		{0xfffffff0, 0x10, true, true}, // wraps
		{0x10, 0xfffffff0, false, false},
	}
	for _, c := range cases {
		if seqLess(c.a, c.b) != c.less {
			t.Errorf("seqLess(%#x, %#x) = %v", c.a, c.b, !c.less)
		}
		if seqLEQ(c.a, c.b) != c.le {
			t.Errorf("seqLEQ(%#x, %#x) = %v", c.a, c.b, !c.le)
		}
	}
}

// TestOnRetransmitCallbackRanges verifies the callback reports the
// exact head range on both retransmission paths.
func TestOnRetransmitCallbackRanges(t *testing.T) {
	cfg := netem.PathConfig{
		ClientSide: netem.LinkConfig{PropDelay: time.Millisecond},
		ServerSide: netem.LinkConfig{PropDelay: 2 * time.Millisecond, Loss: 1.0},
	}
	s := sim.New(3)
	s.MaxSteps = 5_000_000
	conn := NewConn(s, cfg, Config{MaxRetries: 2}, nil, nil)
	var ranges [][2]uint32
	conn.Server.OnRetransmit = func(a, b uint32) { ranges = append(ranges, [2]uint32{a, b}) }
	write(conn.Server, make([]byte, 5000))
	s.Run(math.MaxInt64)
	if len(ranges) == 0 {
		t.Fatal("no retransmit callbacks under blackout")
	}
	for _, r := range ranges {
		if r[0] != 0 || r[1] == 0 || r[1] > 1460 {
			t.Errorf("retransmit range %v, want head segment [0, <=1460)", r)
		}
	}
}

// TestRTORecoversAfterProgress guards the RFC 6298 §5.7 behaviour:
// after a backoff episode, a single acked transmission restores the
// RTO to the estimator value instead of the backed-off one.
func TestRTORecoversAfterProgress(t *testing.T) {
	cfg := netem.PathConfig{
		ClientSide: netem.LinkConfig{PropDelay: time.Millisecond},
		ServerSide: netem.LinkConfig{PropDelay: 5 * time.Millisecond, Loss: 1.0},
	}
	s := sim.New(4)
	s.MaxSteps = 5_000_000
	conn := NewConn(s, cfg, Config{}, func(wire.Bytes) {}, nil)
	write(conn.Server, make([]byte, 40000))
	// Heal after ~7s of backoff (RTO should have reached >= 4s).
	s.After(7*time.Second, func() {
		conn.Path.LinkS2M.SetLoss(0)
		conn.Path.LinkM2S.SetLoss(0)
	})
	s.Run(math.MaxInt64)
	if conn.Broken() {
		t.Fatal("connection broke despite healing")
	}
	if rto := conn.Server.RTO(); rto > time.Second {
		t.Errorf("RTO stuck at %v after recovery; backoff must decay on progress", rto)
	}
}
