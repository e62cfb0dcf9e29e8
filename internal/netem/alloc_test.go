package netem

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestLinkSendZeroAlloc proves the closure-free delivery path: once
// the event heap has grown, sending pooled packets through a link
// allocates nothing per packet.
func TestLinkSendZeroAlloc(t *testing.T) {
	s := sim.New(1)
	pool := &PacketPool{}
	var l *Link
	l = NewLink(s, LinkConfig{PropDelay: time.Millisecond}, func(p *Packet) { pool.Put(p) })
	l.SetPool(pool)

	send := func(n int) {
		for i := 0; i < n; i++ {
			l.Send(pool.Get())
		}
		s.Run(math.MaxInt64)
	}
	send(64) // warm up pool and heap

	allocs := testing.AllocsPerRun(100, func() { send(32) })
	if allocs != 0 {
		t.Errorf("Link.Send steady state: %.1f allocs/op, want 0", allocs)
	}
}

// TestMiddleboxPathZeroAlloc pushes pooled packets through the full
// path — two links plus the middlebox with capture and byte tap
// active — and requires the per-packet cost to stay allocation-free
// apart from the capture trace's own (amortized) growth.
func TestMiddleboxPathZeroAlloc(t *testing.T) {
	s := sim.New(1)
	var path *Path
	path = NewPath(s, PathConfig{
		ClientSide: LinkConfig{PropDelay: time.Millisecond},
		ServerSide: LinkConfig{PropDelay: time.Millisecond},
	}, func(p *Packet) { path.Pool.Put(p) }, func(p *Packet) { path.Pool.Put(p) })
	path.Mbox.Tap = func(trace.Direction, wire.Bytes) {}

	seq := uint32(0)
	var stream wire.Bytes // the sender's stream; packets carry views of it
	stream.AppendLiteral(make([]byte, 14))
	stream.AppendZeros(86)
	send := func(n int) {
		for i := 0; i < n; i++ {
			p := path.Pool.Get()
			p.Seq = seq
			p.Payload = stream
			seq += uint32(stream.Len())
			path.SendFromClient(p)
		}
		s.Run(math.MaxInt64)
	}
	send(64)

	allocs := testing.AllocsPerRun(100, func() { send(16) })
	if allocs != 0 {
		t.Errorf("path steady state: %.1f allocs/op, want 0", allocs)
	}
}

// TestReassemblerSteadyStateZeroAlloc holds out-of-order segments and
// drains them repeatedly: holding views, not copies, must make the
// loop allocation-free after warm-up.
func TestReassemblerSteadyStateZeroAlloc(t *testing.T) {
	var r Reassembler
	var seg wire.Bytes
	seg.AppendLiteral(make([]byte, 14))
	seg.AppendZeros(50)
	delivered := 0
	deliver := func(b wire.Bytes) { delivered += b.Len() }
	cycle := func() {
		// Arrivals 2,3 out of order, then 1 fills the gap.
		next := r.Next
		r.Push(next+64, seg, deliver)
		r.Push(next+128, seg, deliver)
		r.Push(next, seg, deliver)
	}
	for i := 0; i < 32; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(200, cycle)
	if allocs != 0 {
		t.Errorf("reassembler steady state: %.1f allocs/op, want 0", allocs)
	}
	if want := 192 * (32 + 201); delivered != want || r.Next != uint32(want) {
		t.Errorf("delivered %d bytes, Next %d, want %d", delivered, r.Next, want)
	}
}

// BenchmarkLinkSend measures the per-packet scheduling cost through
// one link.
func BenchmarkLinkSend(b *testing.B) {
	s := sim.New(1)
	pool := &PacketPool{}
	var l *Link
	l = NewLink(s, LinkConfig{PropDelay: time.Millisecond}, func(p *Packet) { pool.Put(p) })
	l.SetPool(pool)
	var stream wire.Bytes
	stream.AppendLiteral(make([]byte, 14))
	stream.AppendZeros(1400)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := pool.Get()
		p.Payload = stream
		l.Send(p)
		if i%64 == 63 {
			s.Run(math.MaxInt64)
		}
	}
	s.Run(math.MaxInt64)
}
