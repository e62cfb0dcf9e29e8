package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/h2"
	"repro/internal/h2sim"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tlsrec"
	"repro/internal/trace"
	"repro/internal/website"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// blindWire seals one session's worth of records in both directions,
// every plaintext byte set to fill: the client's SETTINGS, three GETs,
// a reset burst and a SETTINGS ack; the server's HEADERS plus DATA
// chunks for the result HTML and one emblem.
func blindWire(fill byte) (c2s, s2c []byte) {
	seal := func(dst []byte, ct uint8, n int) []byte {
		return append(dst, wiretest.Plain(sealed(ct, bytes.Repeat([]byte{fill}, n)))...)
	}
	c2s = seal(c2s, tlsrec.TypeAppData, 30)
	for i := 0; i < 3; i++ {
		c2s = seal(c2s, tlsrec.TypeAppData, 50)
	}
	c2s = seal(c2s, tlsrec.TypeAppData, 520)
	c2s = seal(c2s, tlsrec.TypeAppData, 9)

	s2c = seal(s2c, tlsrec.TypeHandshake, 40)
	for _, size := range []int{website.ResultHTMLSize, website.EmblemSizes[3]} {
		s2c = seal(s2c, tlsrec.TypeAppData, 40)
		for ; size > 1400; size -= 1400 {
			s2c = seal(s2c, tlsrec.TypeAppData, 1400+9)
		}
		s2c = seal(s2c, tlsrec.TypeAppData, size+9)
	}
	return c2s, s2c
}

// blindRun is everything the adversary derives from one tapped
// session.
type blindRun struct {
	records []trace.RecordObs
	gets    []int
	resets  int
	count   int
	infs    []Inference
}

// tapBlind replays the two streams through a fresh monitor wired to
// the streaming inference engine, in fixed 97-byte chunks that
// alternate direction, one chunk every 100µs of simulated time.
func tapBlind(site *website.Site, c2s, s2c []byte) blindRun {
	s := sim.New(1)
	m := NewMonitor(s)
	var run blindRun
	m.OnGet = func(n int) { run.gets = append(run.gets, n) }
	m.OnResetBurst = func() { run.resets++ }
	var si StreamInference
	si.Start(NewPredictor(site), obs.Sink{})
	m.OnRecord = si.Observe

	const chunk = 97
	at := time.Duration(0)
	for off := 0; off < len(c2s) || off < len(s2c); off += chunk {
		for _, tap := range []struct {
			dir  trace.Direction
			wire []byte
		}{{trace.ClientToServer, c2s}, {trace.ServerToClient, s2c}} {
			if off >= len(tap.wire) {
				continue
			}
			b := tap.wire[off:min(off+chunk, len(tap.wire))]
			at += 100 * time.Microsecond
			s.After(at, func() { m.Tap(tap.dir, wiretest.Lit(b)) })
		}
	}
	s.Run(math.MaxInt64)
	run.records = m.Records
	run.count = m.GetCount()
	run.infs = si.Inferences()
	return run
}

// TestMonitorPayloadBlind pins the adversary's payload-blindness. The
// monitor still accepts literal record bodies, so two sessions with
// identical record headers but different literal bodies (all 0x00 vs
// all 0xff) must yield identical observations, callbacks and
// inferences, and the observation types must have no field that could
// carry a body. In a real full-attack trial there is no body to read:
// the tap's input must hold every DATA payload, and the TLS nonce and
// tag placeholders, as zero runs and never as literal bytes.
func TestMonitorPayloadBlind(t *testing.T) {
	c2sA, s2cA := blindWire(0x00)
	c2sB, s2cB := blindWire(0xff)
	if bytes.Equal(c2sA, c2sB) || bytes.Equal(s2cA, s2cB) {
		t.Fatal("fixture streams do not differ in their bodies")
	}
	site := website.Survey(website.IdentityPermutation())
	a, b := tapBlind(site, c2sA, s2cA), tapBlind(site, c2sB, s2cB)

	if a.count != 3 || a.resets != 1 || !NewPredictor(site).IdentifiedHTML(a.infs) {
		t.Fatalf("degenerate fixture: gets=%d resets=%d inferences=%+v", a.count, a.resets, a.infs)
	}
	if !reflect.DeepEqual(a.records, b.records) {
		t.Errorf("Records differ with bodies:\n 0x00: %+v\n 0xff: %+v", a.records, b.records)
	}
	if a.count != b.count || !reflect.DeepEqual(a.gets, b.gets) {
		t.Errorf("GET counting differs with bodies: %d %v vs %d %v", a.count, a.gets, b.count, b.gets)
	}
	if a.resets != b.resets {
		t.Errorf("OnResetBurst calls differ with bodies: %d vs %d", a.resets, b.resets)
	}
	if !reflect.DeepEqual(a.infs, b.infs) {
		t.Errorf("StreamInference runs differ with bodies:\n 0x00: %+v\n 0xff: %+v", a.infs, b.infs)
	}

	for _, typ := range []reflect.Type{reflect.TypeOf(trace.RecordObs{}), reflect.TypeOf(tlsrec.HeaderInfo{})} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch f.Type.Kind() {
			case reflect.Bool,
				reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
				reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
				reflect.Float32, reflect.Float64:
			default:
				t.Errorf("%s.%s is %s, not a scalar: a record body could reach the predictor through it",
					typ, f.Name, f.Type.Kind())
			}
		}
	}

	tapHoldsNoPayload(t)
}

// tapHoldsNoPayload runs full-attack trials with a recording wrapper
// around the monitor's tap, parses the records and frames of each
// direction's tapped stream, and fails if any byte of a DATA payload
// or of a nonce or tag placeholder reached the tap as a literal byte.
func tapHoldsNoPayload(t *testing.T) {
	t.Helper()
	dataFrames := 0
	for seed := int64(1); seed <= 2; seed++ {
		sess := h2sim.NewSession(website.Survey(website.IdentityPermutation()), h2sim.SessionConfig{Seed: seed, RandomizeAmbient: true})
		NewAttack(sess).Arm(PaperAttack())
		var tapped [2]wire.Bytes
		mb := sess.Middlebox()
		tap := mb.Tap
		mb.Tap = func(dir trace.Direction, b wire.Bytes) {
			tapped[dir-1].Append(b)
			tap(dir, b)
		}
		sess.Run()
		for i, stream := range tapped {
			plain := wiretest.Plain(stream)
			for off := 0; off+tlsrec.HeaderLen <= len(plain); {
				ct, n := plain[off], int(binary.BigEndian.Uint16(plain[off+3:]))
				body := off + tlsrec.HeaderLen
				if body+n > len(plain) {
					break // the trial ended mid-record
				}
				runs := []wire.Bytes{stream.Slice(body, body+8), stream.Slice(body+n-16, body+n)}
				for f := body + 8; ct == tlsrec.TypeAppData && f+h2.FrameHeaderLen <= body+n-16; {
					flen := int(plain[f])<<16 | int(plain[f+1])<<8 | int(plain[f+2])
					if h2.FrameType(plain[f+3]) == h2.FrameData {
						runs = append(runs, stream.Slice(f+h2.FrameHeaderLen, f+h2.FrameHeaderLen+flen))
						dataFrames++
					}
					f += h2.FrameHeaderLen + flen
				}
				for _, r := range runs {
					if r.Literal() != 0 {
						t.Fatalf("seed %d dir %d: record at %d: %d payload or placeholder bytes reached the tap as literal bytes",
							seed, i+1, off, r.Literal())
					}
				}
				off = body + n
			}
		}
	}
	if dataFrames == 0 {
		t.Fatal("degenerate trials: the tap saw no DATA frame")
	}
}
