package telemetry

import "testing"

// TestGaugesZeroAlloc pins the plane's cost contract: gauge updates
// allocate nothing — on the disabled (nil-receiver) path, where they
// must be pure nil-checks, and on the enabled path, where they are
// single atomic operations on preallocated cells. The disabled pin is
// what lets the pipeline's executor and exporters call
// unconditionally from their hot paths (the obs.Sink contract).
func TestGaugesZeroAlloc(t *testing.T) {
	var disabled *Gauges
	enabled := &Gauges{}
	for _, tc := range []struct {
		name string
		g    *Gauges
	}{
		{"disabled", disabled},
		{"enabled", enabled},
	} {
		g := tc.g
		if n := testing.AllocsPerRun(100, func() {
			g.Set(GWorkers, 8)
			g.Add(GTrialsDone, 1)
			_ = g.Load(GInFlight)
		}); n != 0 {
			t.Errorf("%s gauges: %v allocs per update batch, want 0", tc.name, n)
		}
	}
	// Snapshot copies into a stack array; it must not allocate either
	// (the status server calls it per scrape, but the pin keeps it
	// honest for any future caller).
	if n := testing.AllocsPerRun(100, func() {
		_ = enabled.Snapshot()
	}); n != 0 {
		t.Errorf("Snapshot: %v allocs, want 0", n)
	}
}

// TestGaugesDisabledReads verifies the nil receiver reads as zero
// everywhere instead of panicking.
func TestGaugesDisabledReads(t *testing.T) {
	var g *Gauges
	if v := g.Load(GWorkers); v != 0 {
		t.Errorf("nil Load = %d, want 0", v)
	}
	g.Add(GTrialsDone, 3)
	if s := g.Snapshot(); s != ([GaugeCount]int64{}) {
		t.Errorf("nil Snapshot = %v, want zeros", s)
	}
}

// TestGaugeNames verifies every gauge has a distinct schema row —
// a duplicated name would silently merge two series in /metrics.
func TestGaugeNames(t *testing.T) {
	seen := map[string]GaugeID{}
	for id := GaugeID(0); id < gaugeCount; id++ {
		name := id.Name()
		if name == "" || name == "gauge(?)" {
			t.Errorf("gauge %d has no name", id)
		}
		if id.Help() == "" {
			t.Errorf("gauge %s has no help text", name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("gauge name %q used by both %d and %d", name, prev, id)
		}
		seen[name] = id
	}
}
