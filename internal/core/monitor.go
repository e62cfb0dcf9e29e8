package core

import (
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tlsrec"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The monitor's client-record classification thresholds.
const (
	// resetMinCipher is the ciphertext length at or above which a
	// client record is classified as a reset burst.
	resetMinCipher = 300

	// minGetCipher/maxGetCipher bound the ciphertext length of
	// records classified as GET requests. Records below the minimum
	// are control chatter (SETTINGS acks, lone RST_STREAM); HTTP/2
	// GETs are small thanks to HPACK.
	minGetCipher = 45
	maxGetCipher = 200
)

// Monitor is the adversary's passive observation arm: it reassembles
// the TCP byte stream of each direction (the middlebox tap), parses
// the cleartext TLS record headers (the paper's
// 'ssl.record.content_type==23' tshark filter), counts client
// requests, and records every observation for the predictor.
type Monitor struct {
	s *sim.Simulator

	// Records accumulates every parsed record observation.
	Records []trace.RecordObs

	// OnGet, when non-nil, is invoked with the running request count
	// after each client GET record is observed.
	OnGet func(count int)

	// OnResetBurst, when non-nil, is invoked when a client record too
	// large to be a GET appears — the batched RST_STREAM frames of a
	// stream reset (the signal the paper's adversary waits for before
	// stopping its targeted drops).
	OnResetBurst func()

	// OnRecord, when non-nil, is invoked with every parsed record
	// observation in arrival order, right after it is appended to
	// Records — the streaming inference engine's tap point.
	OnRecord func(trace.RecordObs)

	parserC2S tlsrec.StreamParser
	parserS2C tlsrec.StreamParser

	getCount   int
	seenFirstC bool // first c->s app record is the client SETTINGS

	// Obs receives metric increments; the zero Sink discards them.
	Obs obs.Sink

	respScratch []trace.RecordObs // reused by ResponseRecords
}

// NewMonitor builds a monitor. Wire Tap as the middlebox byte tap.
func NewMonitor(s *sim.Simulator) *Monitor {
	return &Monitor{s: s}
}

// Reset returns the monitor to its just-built state for a new trial:
// observations cleared (backing arrays kept), stream parsers rewound,
// callbacks detached.
func (m *Monitor) Reset() {
	m.Records = m.Records[:0]
	m.OnGet = nil
	m.OnResetBurst = nil
	m.OnRecord = nil
	m.parserC2S.Reset()
	m.parserS2C.Reset()
	m.getCount = 0
	m.seenFirstC = false
	m.Obs = obs.Sink{}
}

// Tap ingests reassembled stream bytes from the middlebox.
func (m *Monitor) Tap(dir trace.Direction, b wire.Bytes) {
	var infos []tlsrec.HeaderInfo
	if dir == trace.ClientToServer {
		infos = m.parserC2S.Feed(b)
	} else {
		infos = m.parserS2C.Feed(b)
	}
	for _, h := range infos {
		obs := trace.RecordObs{
			Time:        m.s.Now(),
			Dir:         dir,
			ContentType: h.ContentType,
			Length:      h.Length,
		}
		m.Records = append(m.Records, obs)
		if m.OnRecord != nil {
			m.OnRecord(obs)
		}
		if dir == trace.ClientToServer && obs.IsAppData() {
			m.classifyClientRecord(h)
		}
	}
}

// classifyClientRecord counts GET-like records on the request path.
func (m *Monitor) classifyClientRecord(h tlsrec.HeaderInfo) {
	if !m.seenFirstC {
		// The first application record is the client's SETTINGS.
		m.seenFirstC = true
		return
	}
	if h.Length >= resetMinCipher {
		m.Obs.Inc(obs.CMonResetBurst)
		if m.OnResetBurst != nil {
			m.OnResetBurst()
		}
		return
	}
	if h.Length < minGetCipher || h.Length > maxGetCipher {
		return
	}
	m.getCount++
	m.Obs.Inc(obs.CMonGet)
	if m.OnGet != nil {
		m.OnGet(m.getCount)
	}
}

// GetCount returns the number of GET records observed so far.
func (m *Monitor) GetCount() int { return m.getCount }

// ResponseRecords returns the server→client application-data records
// observed so far (the predictor's input). The returned slice is
// backed by a scratch buffer owned by the monitor: it is valid until
// the next ResponseRecords call and must not be retained across
// trials.
func (m *Monitor) ResponseRecords() []trace.RecordObs {
	out := m.respScratch[:0]
	for _, r := range m.Records {
		if r.IsResponseData() {
			out = append(out, r)
		}
	}
	m.respScratch = out
	return out
}
