package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Server is the live status endpoint of a running campaign
// (h2attack -status ADDR): a plain net/http server exposing
//
//	/metrics          Prometheus text exposition of the gauge plane
//	/status           JSON campaign status (fingerprint, progress,
//	                  trials/s, ETA, gauges, Go runtime stats)
//	/events?seed=N    one trial's flight-recorder ring, replayed on
//	                  demand (text dump, or ?format=trace for the
//	                  Perfetto trace_event JSON)
//
// The server only ever samples: it reads the atomic gauge cells and
// the tracker snapshot, and the /events replay runs a fresh trial in
// its own world — nothing it does can perturb the campaign's
// deterministic output. Shutdown is graceful and tied to the CLI's
// SIGINT path: in-flight scrapes finish, then the listener closes.
type Server struct {
	cfg      ServerConfig
	srv      *http.Server
	listener net.Listener
	started  time.Time

	// scrapeBuf reuses the /metrics render buffer across scrapes
	// (one buffer is plenty at human scrape rates; the mutex also
	// serializes concurrent scrapes onto it).
	scrapeMu  sync.Mutex
	scrapeBuf []byte

	// replayMu serializes /events replays: the replay hook reuses one
	// trial world and recorder.
	replayMu sync.Mutex
}

// ServerConfig wires a Server to the campaign.
type ServerConfig struct {
	// Addr is the listen address (":8080", "127.0.0.1:0"; :0 picks a
	// free port — read the result from Server.Addr).
	Addr string

	// Gauges is the live gauge block the campaign updates (may be
	// nil; endpoints then render zeros).
	Gauges *Gauges

	// Tracker carries campaign identity and progress (may be nil).
	Tracker *Tracker

	// Events, when non-nil, replays trial seed and returns its
	// flight-recorder events — trials are pure functions of their
	// seed, so the replay reproduces exactly the ring the campaign's
	// own execution of that trial had. Nil disables /events (404).
	Events func(seed int64) ([]obs.Event, error)
}

// StartServer binds cfg.Addr and serves in a background goroutine.
// The returned server is already accepting; check Addr for the bound
// address when cfg.Addr used port 0.
func StartServer(cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{cfg: cfg, listener: ln, started: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/status", s.handleStatus)
	mux.HandleFunc("/events", s.handleEvents)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		// ErrServerClosed is the normal Shutdown result; anything else
		// means the listener died, which the campaign must survive —
		// telemetry is best-effort by design, so the error is dropped.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound listen address (host:port).
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Shutdown gracefully stops the server: no new connections, in-flight
// requests get until the context's deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.srv.Shutdown(ctx)
}

// snapshot assembles one MetricsSnapshot from the gauges, tracker,
// and Go runtime.
func (s *Server) snapshot() (MetricsSnapshot, TrackerSnapshot) {
	ts := s.cfg.Tracker.Snapshot()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return MetricsSnapshot{
		Gauges:         s.cfg.Gauges.Snapshot(),
		TrialsDone:     int64(ts.Done),
		TrialsTotal:    int64(ts.Total),
		TrialsPerSec:   ts.TrialsPerSec,
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Goroutines:     int64(runtime.NumGoroutine()),
		HeapAllocBytes: int64(ms.HeapAlloc),
		GCCycles:       int64(ms.NumGC),
		GoMaxProcs:     int64(runtime.GOMAXPROCS(0)),
	}, ts
}

// handleMetrics renders the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap, _ := s.snapshot()
	s.scrapeMu.Lock()
	defer s.scrapeMu.Unlock()
	s.scrapeBuf = AppendMetrics(s.scrapeBuf[:0], &snap)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(s.scrapeBuf)
}

// statusResponse is the /status JSON document. Wall-clock values
// throughout; nothing here feeds back into campaign output, so plain
// encoding/json is fine (no byte-identity contract to uphold).
type statusResponse struct {
	Campaign     string  `json:"campaign"`
	Fingerprint  string  `json:"fingerprint,omitempty"`
	Shard        string  `json:"shard,omitempty"`
	TrialsDone   int     `json:"trials_done"`
	TrialsFailed int     `json:"trials_failed"`
	TrialsTotal  int     `json:"trials_total"`
	TrialsPerSec float64 `json:"trials_per_sec"`
	ETASeconds   float64 `json:"eta_seconds"`

	UptimeSeconds float64 `json:"uptime_seconds"`

	Gauges map[string]int64 `json:"gauges"`

	Runtime struct {
		GoVersion      string `json:"go_version"`
		Goroutines     int64  `json:"goroutines"`
		HeapAllocBytes int64  `json:"heap_alloc_bytes"`
		GCCycles       int64  `json:"gc_cycles"`
		GoMaxProcs     int64  `json:"gomaxprocs"`
	} `json:"runtime"`
}

// handleStatus renders the JSON campaign status.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	snap, ts := s.snapshot()
	resp := statusResponse{
		Campaign:      ts.Campaign,
		Fingerprint:   ts.Fingerprint,
		Shard:         ts.Shard,
		TrialsDone:    ts.Done,
		TrialsFailed:  ts.Failed,
		TrialsTotal:   ts.Total,
		TrialsPerSec:  ts.TrialsPerSec,
		ETASeconds:    ts.Remaining.Seconds(),
		UptimeSeconds: snap.UptimeSeconds,
		Gauges:        make(map[string]int64, GaugeCount),
	}
	for id := GaugeID(0); id < gaugeCount; id++ {
		resp.Gauges[id.Name()] = snap.Gauges[id]
	}
	resp.Runtime.GoVersion = runtime.Version()
	resp.Runtime.Goroutines = snap.Goroutines
	resp.Runtime.HeapAllocBytes = snap.HeapAllocBytes
	resp.Runtime.GCCycles = snap.GCCycles
	resp.Runtime.GoMaxProcs = snap.GoMaxProcs
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}

// handleEvents replays one trial's flight recorder. ?seed=N selects
// the trial; ?format=trace switches from the text dump to the
// Perfetto trace_event JSON.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Events == nil {
		http.Error(w, "event replay not available for this campaign", http.StatusNotFound)
		return
	}
	seed, err := strconv.ParseInt(r.URL.Query().Get("seed"), 10, 64)
	if err != nil {
		http.Error(w, "missing or malformed ?seed=N", http.StatusBadRequest)
		return
	}
	s.replayMu.Lock()
	events, err := s.cfg.Events(seed)
	s.replayMu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if r.URL.Query().Get("format") == "trace" {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(AppendTrace(nil, events, "seed "+strconv.FormatInt(seed, 10)))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	obs.WriteEvents(w, events)
}
