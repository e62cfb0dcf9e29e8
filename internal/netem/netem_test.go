package netem

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

func TestLinkDeliversWithPropDelay(t *testing.T) {
	s := sim.New(1)
	var at time.Duration
	l := NewLink(s, LinkConfig{PropDelay: 10 * time.Millisecond}, func(p *Packet) {
		at = s.Now()
	})
	l.Send(&Packet{Payload: wiretest.Lit([]byte("x"))})
	s.Run(math.MaxInt64)
	if at != 10*time.Millisecond {
		t.Errorf("delivered at %v, want 10ms", at)
	}
}

func TestLinkSerializationDelay(t *testing.T) {
	s := sim.New(1)
	// 1 Mbps; 1000-byte payload + 40 overhead = 8320 bits = 8.32 ms.
	var at time.Duration
	l := NewLink(s, LinkConfig{RateBitsPerSec: 1_000_000}, func(p *Packet) { at = s.Now() })
	l.Send(&Packet{Payload: wiretest.Lit(make([]byte, 1000))})
	s.Run(math.MaxInt64)
	want := 8320 * time.Microsecond
	if at != want {
		t.Errorf("delivered at %v, want %v", at, want)
	}
}

func TestLinkBackToBackQueueing(t *testing.T) {
	s := sim.New(1)
	var times []time.Duration
	l := NewLink(s, LinkConfig{RateBitsPerSec: 1_000_000}, func(p *Packet) {
		times = append(times, s.Now())
	})
	for i := 0; i < 3; i++ {
		l.Send(&Packet{Payload: wiretest.Lit(make([]byte, 1000))})
	}
	s.Run(math.MaxInt64)
	if len(times) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(times))
	}
	per := 8320 * time.Microsecond
	for i, at := range times {
		want := time.Duration(i+1) * per
		if at != want {
			t.Errorf("packet %d delivered at %v, want %v", i, at, want)
		}
	}
}

func TestLinkQueueOverflowDrops(t *testing.T) {
	s := sim.New(1)
	delivered := 0
	l := NewLink(s, LinkConfig{
		RateBitsPerSec: 1_000_000,
		MaxQueueDelay:  10 * time.Millisecond,
	}, func(p *Packet) { delivered++ })
	for i := 0; i < 10; i++ { // 8.32ms each; queue caps around 2 extra
		l.Send(&Packet{Payload: wiretest.Lit(make([]byte, 1000))})
	}
	s.Run(math.MaxInt64)
	if l.Stats.DroppedQueue == 0 {
		t.Error("no queue drops despite overload")
	}
	if delivered+l.Stats.DroppedQueue != 10 {
		t.Errorf("delivered %d + dropped %d != 10", delivered, l.Stats.DroppedQueue)
	}
}

func TestLinkLoss(t *testing.T) {
	s := sim.New(7)
	delivered := 0
	l := NewLink(s, LinkConfig{Loss: 0.5}, func(p *Packet) { delivered++ })
	for i := 0; i < 1000; i++ {
		l.Send(&Packet{Payload: wiretest.Lit([]byte("x"))})
	}
	s.Run(math.MaxInt64)
	if delivered < 400 || delivered > 600 {
		t.Errorf("delivered %d of 1000 at 50%% loss", delivered)
	}
	if l.Stats.DroppedLoss+delivered != 1000 {
		t.Errorf("loss accounting: %d + %d != 1000", l.Stats.DroppedLoss, delivered)
	}
}

func TestUniformJitterZero(t *testing.T) {
	if UniformJitter(0) != nil {
		t.Error("UniformJitter(0) should be nil (no jitter)")
	}
}

// TestUniformJitterMatchesInt63n pins UniformJitter(max) to
// math/rand's Int63n(max+1), draw for draw, for bounds whose max+1 is
// a power of two (Int63n's mask path) and for bounds that are not (its
// rejection path, with the limit UniformJitter computes once).
func TestUniformJitterMatchesInt63n(t *testing.T) {
	for _, max := range []time.Duration{1, 7, 1<<20 - 1, 1<<62 - 1, 10 * time.Millisecond, 30 * time.Millisecond, 1 << 62} {
		jitter := UniformJitter(max)
		got, want := sim.NewRand(int64(max)), rand.New(rand.NewSource(int64(max)))
		for i := 0; i < 1000; i++ {
			if g, w := jitter(got), time.Duration(want.Int63n(int64(max)+1)); g != w {
				t.Fatalf("max %v draw %d: %v, Int63n gives %v", max, i, g, w)
			}
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("max %v: the generators diverge after the draws", max)
		}
	}
}

func TestSetRateTakesEffect(t *testing.T) {
	s := sim.New(1)
	var times []time.Duration
	l := NewLink(s, LinkConfig{}, func(p *Packet) { times = append(times, s.Now()) })
	l.Send(&Packet{Payload: wiretest.Lit(make([]byte, 1000))})
	s.Run(math.MaxInt64)
	l.SetRate(1_000_000)
	if l.Rate() != 1_000_000 {
		t.Fatalf("Rate = %d", l.Rate())
	}
	base := s.Now()
	l.Send(&Packet{Payload: wiretest.Lit(make([]byte, 1000))})
	s.Run(math.MaxInt64)
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	if times[0] != 0 {
		t.Errorf("unthrottled delivery at %v, want 0", times[0])
	}
	if got := times[1] - base; got != 8320*time.Microsecond {
		t.Errorf("throttled delivery took %v, want 8.32ms", got)
	}
}

func newTestPath(s *sim.Simulator, clientRecv, serverRecv Handler) *Path {
	return NewPath(s, PathConfig{
		ClientSide: LinkConfig{PropDelay: time.Millisecond},
		ServerSide: LinkConfig{PropDelay: 2 * time.Millisecond},
	}, clientRecv, serverRecv)
}

func TestPathEndToEnd(t *testing.T) {
	s := sim.New(1)
	var gotServer, gotClient *Packet
	var atServer, atClient time.Duration
	p := newTestPath(s,
		func(pkt *Packet) { gotClient, atClient = pkt, s.Now() },
		func(pkt *Packet) { gotServer, atServer = pkt, s.Now() },
	)
	p.SendFromClient(&Packet{Seq: 100, Payload: wiretest.Lit([]byte("req"))})
	s.Run(math.MaxInt64)
	if gotServer == nil || gotServer.Seq != 100 {
		t.Fatal("server did not receive the client packet")
	}
	if atServer != 3*time.Millisecond { // 1ms + 2ms
		t.Errorf("server delivery at %v, want 3ms", atServer)
	}
	p.SendFromServer(&Packet{Seq: 200, Payload: wiretest.Lit([]byte("resp"))})
	s.Run(math.MaxInt64)
	if gotClient == nil || gotClient.Seq != 200 {
		t.Fatal("client did not receive the server packet")
	}
	if atClient-atServer != 3*time.Millisecond {
		t.Errorf("client delivery took %v, want 3ms", atClient-atServer)
	}
}

// TestMiddleboxCaptureAndStats checks what the middlebox records of
// the packets crossing it: the byte tap captures each direction's
// payload once, a transport retransmission adding nothing, while the
// stats count every packet that passed.
func TestMiddleboxCaptureAndStats(t *testing.T) {
	s := sim.New(1)
	p := newTestPath(s, func(*Packet) {}, func(*Packet) {})
	type tapped struct {
		dir trace.Direction
		b   string
	}
	var got []tapped
	p.Mbox.Tap = func(dir trace.Direction, b wire.Bytes) { got = append(got, tapped{dir, string(wiretest.Plain(b))}) }
	p.SendFromClient(&Packet{Seq: 0, Payload: wiretest.Lit([]byte("abcd"))})
	s.Run(math.MaxInt64)
	p.SendFromClient(&Packet{Seq: 0, Payload: wiretest.Lit([]byte("abcd"))}) // retransmission
	p.SendFromServer(&Packet{Seq: 0, Payload: wiretest.Lit([]byte("efgh"))})
	s.Run(math.MaxInt64)
	want := []tapped{{trace.ClientToServer, "abcd"}, {trace.ServerToClient, "efgh"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tapped %+v, want %+v", got, want)
	}
	if p.Mbox.Stats.Passed != 3 {
		t.Errorf("passed = %d, want 3", p.Mbox.Stats.Passed)
	}
}

func TestMiddleboxInterceptorDropAndDelay(t *testing.T) {
	s := sim.New(1)
	var deliveries []time.Duration
	p := newTestPath(s, func(*Packet) {}, func(pkt *Packet) {
		deliveries = append(deliveries, s.Now())
	})
	p.Mbox.Interceptor = func(dir trace.Direction, pkt *Packet) Decision {
		switch pkt.Seq {
		case 1:
			return Drop()
		case 2:
			return Delay(50 * time.Millisecond)
		default:
			return Pass()
		}
	}
	p.SendFromClient(&Packet{Seq: 1, Payload: wiretest.Lit([]byte("dropme"))})
	p.SendFromClient(&Packet{Seq: 2, Payload: wiretest.Lit([]byte("delayme"))})
	p.SendFromClient(&Packet{Seq: 3, Payload: wiretest.Lit([]byte("passme"))})
	s.Run(math.MaxInt64)
	if len(deliveries) != 2 {
		t.Fatalf("delivered %d packets, want 2 (one dropped)", len(deliveries))
	}
	if p.Mbox.Stats.Dropped != 1 || p.Mbox.Stats.Delayed != 1 || p.Mbox.Stats.Passed != 1 {
		t.Errorf("stats = %+v", p.Mbox.Stats)
	}
	// The delayed packet (50ms hold) must arrive well after the passed one.
	if deliveries[1]-deliveries[0] < 45*time.Millisecond {
		t.Errorf("delay hold too short: %v", deliveries[1]-deliveries[0])
	}
}

func TestMiddleboxByteTapReassembly(t *testing.T) {
	s := sim.New(1)
	p := newTestPath(s, func(*Packet) {}, func(*Packet) {})
	var got bytes.Buffer
	p.Mbox.Tap = func(dir trace.Direction, b wire.Bytes) {
		if dir == trace.ClientToServer {
			got.Write(wiretest.Plain(b))
		}
	}
	// Deliver out of order with a duplicate: tap must see in-order
	// deduplicated bytes.
	p.SendFromClient(&Packet{Seq: 1000, Payload: wiretest.Lit([]byte("hello "))})
	s.Run(math.MaxInt64)
	p.SendFromClient(&Packet{Seq: 1012, Payload: wiretest.Lit([]byte("attack"))}) // future
	s.Run(math.MaxInt64)
	p.SendFromClient(&Packet{Seq: 1006, Payload: wiretest.Lit([]byte("world "))}) // fills gap
	s.Run(math.MaxInt64)
	p.SendFromClient(&Packet{Seq: 1000, Payload: wiretest.Lit([]byte("hello "))}) // duplicate
	s.Run(math.MaxInt64)
	if got.String() != "hello world attack" {
		t.Errorf("tap saw %q, want %q", got.String(), "hello world attack")
	}
}

func TestSetBandwidthThrottlesBothDirections(t *testing.T) {
	s := sim.New(1)
	var toServer, toClient time.Duration
	p := newTestPath(s,
		func(*Packet) { toClient = s.Now() },
		func(*Packet) { toServer = s.Now() },
	)
	p.SetBandwidth(1_000_000)
	p.SendFromClient(&Packet{Payload: wiretest.Lit(make([]byte, 1000))})
	s.Run(math.MaxInt64)
	mark := s.Now()
	p.SendFromServer(&Packet{Payload: wiretest.Lit(make([]byte, 1000))})
	s.Run(math.MaxInt64)
	// 8.32ms serialization at the middlebox + 3ms propagation.
	if toServer < 11*time.Millisecond {
		t.Errorf("c->s delivery at %v, want >= 11.3ms", toServer)
	}
	if toClient-mark < 11*time.Millisecond {
		t.Errorf("s->c delivery took %v, want >= 11.3ms", toClient-mark)
	}
}

func TestDirectionHelpers(t *testing.T) {
	if trace.ClientToServer.Reverse() != trace.ServerToClient {
		t.Error("Reverse broken")
	}
	if trace.ClientToServer.String() != "c->s" || trace.ServerToClient.String() != "s->c" {
		t.Error("String broken")
	}
	if (&Packet{Payload: wiretest.Lit(make([]byte, 10))}).WireLen() != 50 {
		t.Error("WireLen broken")
	}
}

func TestLinkFIFOByDefault(t *testing.T) {
	// Heavy jitter must never reorder.
	s := sim.New(9)
	var order []uint32
	l := NewLink(s, LinkConfig{
		PropDelay: time.Millisecond,
		Jitter:    UniformJitter(30 * time.Millisecond),
	}, func(p *Packet) { order = append(order, p.Seq) })
	for i := 0; i < 80; i++ {
		l.Send(&Packet{Seq: uint32(i), Payload: wiretest.Lit([]byte("x"))})
		s.RunUntil(s.Now() + 200*time.Microsecond)
	}
	s.Run(math.MaxInt64)
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("FIFO link reordered: %v before %v", order[i-1], order[i])
		}
	}
}

func TestMiddleboxTapBothDirections(t *testing.T) {
	s := sim.New(1)
	p := newTestPath(s, func(*Packet) {}, func(*Packet) {})
	var c2s, s2c bytes.Buffer
	p.Mbox.Tap = func(dir trace.Direction, b wire.Bytes) {
		if dir == trace.ClientToServer {
			c2s.Write(wiretest.Plain(b))
		} else {
			s2c.Write(wiretest.Plain(b))
		}
	}
	p.SendFromClient(&Packet{Seq: 0, Payload: wiretest.Lit([]byte("req"))})
	p.SendFromServer(&Packet{Seq: 0, Payload: wiretest.Lit([]byte("resp"))})
	s.Run(math.MaxInt64)
	if c2s.String() != "req" || s2c.String() != "resp" {
		t.Errorf("taps saw %q / %q", c2s.String(), s2c.String())
	}
}

func TestLinkStatsAccounting(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s, LinkConfig{}, func(*Packet) {})
	l.Send(&Packet{Payload: wiretest.Lit(make([]byte, 100))})
	l.Send(&Packet{Payload: wiretest.Lit(make([]byte, 200))})
	s.Run(math.MaxInt64)
	if l.Stats.Sent != 2 {
		t.Errorf("sent = %d", l.Stats.Sent)
	}
	if l.Stats.Bytes != int64(100+40+200+40) {
		t.Errorf("bytes = %d", l.Stats.Bytes)
	}
}

// TestPathReclaimPending leaves packets in flight on all four links
// and one held by a middlebox Delay, then checks that ReclaimPending
// returns each of them to the pool exactly once, and that after
// sim.Reset nothing is left to visit or deliver.
func TestPathReclaimPending(t *testing.T) {
	s := sim.New(1)
	delivered := 0
	var p *Path
	recv := func(pkt *Packet) { delivered++; p.Pool.Put(pkt) }
	p = newTestPath(s, recv, recv)
	p.Mbox.Interceptor = func(_ trace.Direction, pkt *Packet) Decision {
		if pkt.Seq == 5 {
			return Delay(time.Second)
		}
		return Pass()
	}
	sent := map[*Packet]bool{}
	get := func(seq uint32) *Packet {
		pkt := p.Pool.Get()
		pkt.Seq = seq
		pkt.Payload.AppendLiteral([]byte("payload"))
		sent[pkt] = true
		return pkt
	}
	p.SendFromClient(get(1)) // forwarded onto LinkM2S at 1ms
	p.SendFromClient(get(5)) // held by the middlebox at 1ms
	s.RunUntil(time.Millisecond)
	p.SendFromServer(get(2)) // on LinkS2M
	p.SendFromClient(get(6)) // on LinkC2M
	toServer, toClient := get(3), get(4)
	toServer.Dir, toClient.Dir = trace.ClientToServer, trace.ServerToClient
	p.LinkM2S.Send(toServer)
	p.LinkM2C.Send(toClient)
	if delivered != 0 || p.Mbox.Stats.Delayed != 1 || p.Mbox.Stats.Passed != 1 {
		t.Fatalf("setup: delivered %d, middlebox stats %+v", delivered, p.Mbox.Stats)
	}
	for _, l := range []*Link{p.LinkC2M, p.LinkM2S, p.LinkS2M, p.LinkM2C} {
		if l.Stats.Sent == 0 {
			t.Fatalf("setup: a link carries no packet")
		}
	}

	p.ReclaimPending(s)
	if p.Pool.Len() != len(sent) {
		t.Fatalf("pool holds %d packets, want the %d in flight", p.Pool.Len(), len(sent))
	}
	for p.Pool.Len() > 0 {
		pkt := p.Pool.Get()
		if !sent[pkt] {
			t.Fatal("pool returned a packet that was never in flight")
		}
		delete(sent, pkt)
	}
	if len(sent) != 0 {
		t.Fatalf("%d packets reclaimed twice or not at all", len(sent))
	}

	s.Reset(2)
	s.ForEachPendingArg(func(any) { t.Error("visited a payload after sim.Reset") })
	s.Run(math.MaxInt64)
	if delivered != 0 || s.Steps() != 0 {
		t.Errorf("after sim.Reset: %d packets delivered, %d events run", delivered, s.Steps())
	}
}
