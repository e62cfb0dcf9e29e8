package telemetry

import "strconv"

// Prometheus text exposition (version 0.0.4) of the live plane,
// rendered with the same append-encoder style as internal/jsonenc: a
// caller-owned []byte grows through strconv.Append* primitives, no
// fmt, no intermediate strings. /metrics responses are built into a
// reused buffer, so a scrape steady-state allocates only what
// net/http itself needs.
//
// Every metric is prefixed "h2attack_". Gauge metrics come straight
// from the Gauges schema (gaugeInfos); the campaign- and runtime-
// level series are listed in promExtras below. Values are rendered
// with strconv.AppendFloat(... 'g', -1, 64) for floats — the exact
// formatting of fmt.Sprintf("%g"), which the equivalence test pins —
// and strconv.AppendInt for integers.

// MetricsSnapshot is the input to AppendMetrics: one sampled view of
// the plane, assembled by the status server from the Tracker, the
// Gauges block, and runtime.ReadMemStats. A pure value type so the
// encoder is testable without a live campaign.
type MetricsSnapshot struct {
	// Gauges is the sampled gauge block (Gauges.Snapshot()).
	Gauges [GaugeCount]int64

	// TrialsDone/TrialsTotal/TrialsPerSec describe campaign progress
	// (Tracker values; TrialsPerSec is pipeline.Progress.TrialsPerSec).
	TrialsDone   int64
	TrialsTotal  int64
	TrialsPerSec float64

	// UptimeSeconds is the wall time since the status server started.
	UptimeSeconds float64

	// Goroutines, HeapAllocBytes, GCCycles, GoMaxProcs are the Go
	// runtime stats surfaced alongside the campaign gauges.
	Goroutines     int64
	HeapAllocBytes int64
	GCCycles       int64
	GoMaxProcs     int64
}

// promExtra is one non-gauge series in the exposition: a name, HELP
// text, and an accessor into the snapshot. Float-valued series set
// isFloat; the rest render as integers.
type promExtra struct {
	name    string
	help    string
	isFloat bool
	intVal  func(*MetricsSnapshot) int64
	fltVal  func(*MetricsSnapshot) float64
}

// promExtras is the campaign/runtime section of the exposition, in
// output order after the gauge block.
var promExtras = []promExtra{
	{name: "trials_done", help: "Trials completed in the current campaign.",
		intVal: func(s *MetricsSnapshot) int64 { return s.TrialsDone }},
	{name: "trials_total", help: "Total trials in the current campaign.",
		intVal: func(s *MetricsSnapshot) int64 { return s.TrialsTotal }},
	{name: "trials_per_sec", help: "Wall-clock trial throughput (pipeline.Progress.TrialsPerSec).", isFloat: true,
		fltVal: func(s *MetricsSnapshot) float64 { return s.TrialsPerSec }},
	{name: "uptime_seconds", help: "Seconds since the status server started.", isFloat: true,
		fltVal: func(s *MetricsSnapshot) float64 { return s.UptimeSeconds }},
	{name: "go_goroutines", help: "Number of goroutines.",
		intVal: func(s *MetricsSnapshot) int64 { return s.Goroutines }},
	{name: "go_heap_alloc_bytes", help: "Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).",
		intVal: func(s *MetricsSnapshot) int64 { return s.HeapAllocBytes }},
	{name: "go_gc_cycles_total", help: "Completed GC cycles (runtime.MemStats.NumGC).",
		intVal: func(s *MetricsSnapshot) int64 { return s.GCCycles }},
	{name: "go_gomaxprocs", help: "GOMAXPROCS at sample time.",
		intVal: func(s *MetricsSnapshot) int64 { return s.GoMaxProcs }},
}

// appendPromHeader appends the # HELP and # TYPE comment lines for
// one metric. Every series in the plane is conceptually a sampled
// gauge (even the *_total cumulative cells are resettable per
// campaign), so the TYPE is always "gauge".
func appendPromHeader(dst []byte, name, help string) []byte {
	dst = append(dst, "# HELP h2attack_"...)
	dst = append(dst, name...)
	dst = append(dst, ' ')
	dst = append(dst, help...)
	dst = append(dst, "\n# TYPE h2attack_"...)
	dst = append(dst, name...)
	dst = append(dst, " gauge\n"...)
	return dst
}

// appendPromInt appends one "h2attack_<name> <value>" sample line.
func appendPromInt(dst []byte, name string, v int64) []byte {
	dst = append(dst, "h2attack_"...)
	dst = append(dst, name...)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, v, 10)
	return append(dst, '\n')
}

// appendPromFloat is appendPromInt for float-valued series; 'g'
// shortest-form formatting, matching fmt's %g verb exactly (the
// equivalence test pins this).
func appendPromFloat(dst []byte, name string, v float64) []byte {
	dst = append(dst, "h2attack_"...)
	dst = append(dst, name...)
	dst = append(dst, ' ')
	dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	return append(dst, '\n')
}

// AppendMetrics renders the full Prometheus text exposition of one
// snapshot into dst and returns the extended slice: first every gauge
// in schema order, then the campaign/runtime extras.
func AppendMetrics(dst []byte, s *MetricsSnapshot) []byte {
	for id := GaugeID(0); id < gaugeCount; id++ {
		info := &gaugeInfos[id]
		dst = appendPromHeader(dst, info.name, info.help)
		dst = appendPromInt(dst, info.name, s.Gauges[id])
	}
	for i := range promExtras {
		e := &promExtras[i]
		dst = appendPromHeader(dst, e.name, e.help)
		if e.isFloat {
			dst = appendPromFloat(dst, e.name, e.fltVal(s))
		} else {
			dst = appendPromInt(dst, e.name, e.intVal(s))
		}
	}
	return dst
}
