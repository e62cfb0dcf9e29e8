package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// workload populates a registry with a deterministic slice [lo, hi) of
// a synthetic trial stream — the single-process reference is
// workload(0, n), a sharded run is workload(0,k) + workload(k,n).
func workload(t testing.TB, lo, hi int) *Registry {
	t.Helper()
	r := NewRegistry()
	r.SetSegments("s0", "s1")
	s := r.NewShard()
	for i := lo; i < hi; i++ {
		k := s.Sink(i % 2)
		k.Inc(CTrial)
		k.Add(CH2Request, uint64(i%5))
		k.Observe(HTCPCwnd, int64(i*i))
		s.ObserveTrialWall(time.Duration(i+1) * time.Millisecond)
	}
	return r
}

// roundTrip pushes a snapshot through its JSON wire form — the
// process boundary a shard bundle crosses.
func roundTrip(t *testing.T, s *Snapshot) *Snapshot {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	out := &Snapshot{}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return out
}

func TestSnapshotJSONRoundTripPreservesDeterministicText(t *testing.T) {
	snap := workload(t, 0, 50).Snapshot()
	got := roundTrip(t, snap)
	if got.DeterministicText() != snap.DeterministicText() {
		t.Fatalf("round trip changed deterministic text:\n%s\nvs\n%s",
			got.DeterministicText(), snap.DeterministicText())
	}
	if got.Wall == nil || got.Wall.Trials != snap.Wall.Trials {
		t.Fatalf("round trip lost wall trials: %+v vs %+v", got.Wall, snap.Wall)
	}
	if got.Wall.Hist.Count != snap.Wall.Hist.Count || got.Wall.Hist.Sum != snap.Wall.Hist.Sum {
		t.Fatalf("round trip lost wall histogram: %+v vs %+v", got.Wall.Hist, snap.Wall.Hist)
	}
	if got.Elapsed != snap.Elapsed {
		t.Fatalf("round trip changed elapsed: %v vs %v", got.Elapsed, snap.Elapsed)
	}
}

// TestSnapshotMergePartitionInvariance is the merge driver's core
// contract: any contiguous partition of the trial stream, serialized
// across a process-style boundary and merged back, formats exactly
// like the unpartitioned run.
func TestSnapshotMergePartitionInvariance(t *testing.T) {
	const n = 60
	ref := workload(t, 0, n).Snapshot()
	for _, cuts := range [][]int{{30}, {1}, {59}, {20, 40}, {10, 20, 30, 40, 50}} {
		bounds := append(append([]int{0}, cuts...), n)
		var merged *Snapshot
		for i := 0; i+1 < len(bounds); i++ {
			part := roundTrip(t, workload(t, bounds[i], bounds[i+1]).Snapshot())
			if merged == nil {
				merged = part
				continue
			}
			if err := merged.Merge(part); err != nil {
				t.Fatalf("cuts %v: merge: %v", cuts, err)
			}
		}
		if merged.DeterministicText() != ref.DeterministicText() {
			t.Fatalf("cuts %v: merged deterministic text differs:\n%s\nvs\n%s",
				cuts, merged.DeterministicText(), ref.DeterministicText())
		}
		if merged.Wall.Trials != ref.Wall.Trials {
			t.Fatalf("cuts %v: wall trials %d, want %d", cuts, merged.Wall.Trials, ref.Wall.Trials)
		}
		if merged.Wall.Hist.Count != ref.Wall.Hist.Count || merged.Wall.Hist.Sum != ref.Wall.Hist.Sum {
			t.Fatalf("cuts %v: wall hist %+v, want %+v", cuts, merged.Wall.Hist, ref.Wall.Hist)
		}
	}
}

func TestSnapshotMergeCommutes(t *testing.T) {
	a1 := roundTrip(t, workload(t, 0, 25).Snapshot())
	b1 := roundTrip(t, workload(t, 25, 60).Snapshot())
	a2 := roundTrip(t, workload(t, 0, 25).Snapshot())
	b2 := roundTrip(t, workload(t, 25, 60).Snapshot())
	if err := a1.Merge(b1); err != nil {
		t.Fatal(err)
	}
	if err := b2.Merge(a2); err != nil {
		t.Fatal(err)
	}
	if a1.DeterministicText() != b2.DeterministicText() {
		t.Fatalf("merge order changed deterministic text:\n%s\nvs\n%s",
			a1.DeterministicText(), b2.DeterministicText())
	}
	if a1.Wall.Trials != b2.Wall.Trials || a1.Wall.Hist.Sum != b2.Wall.Hist.Sum {
		t.Fatal("merge order changed wall aggregation")
	}
}

// TestSnapshotMergeAggregatesWall pins the multi-process wall-section
// contract: a merged snapshot's wall covers every shard's trials (sum
// of counts, merged latency histogram, max elapsed) — never one
// shard's values kept and the others dropped.
func TestSnapshotMergeAggregatesWall(t *testing.T) {
	a := &Snapshot{Elapsed: 5 * time.Second, Wall: &WallSnapshot{Trials: 10}}
	b := &Snapshot{Elapsed: 9 * time.Second, Wall: &WallSnapshot{Trials: 30}}
	for i := 0; i < 10; i++ {
		a.Wall.Hist.Observe(int64(time.Millisecond))
	}
	for i := 0; i < 30; i++ {
		b.Wall.Hist.Observe(int64(4 * time.Millisecond))
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Wall.Trials != 40 {
		t.Fatalf("merged wall trials = %d, want 40", a.Wall.Trials)
	}
	if a.Wall.Hist.Count != 40 {
		t.Fatalf("merged wall hist count = %d, want 40", a.Wall.Hist.Count)
	}
	if want := uint64(10*time.Millisecond + 120*time.Millisecond); a.Wall.Hist.Sum != want {
		t.Fatalf("merged wall hist sum = %d, want %d", a.Wall.Hist.Sum, want)
	}
	if a.Elapsed != 9*time.Second {
		t.Fatalf("merged elapsed = %v, want the max (9s)", a.Elapsed)
	}

	// One-sided wall: merging a wall-less snapshot must keep the other
	// side's section intact.
	c := &Snapshot{}
	if err := c.Merge(a); err != nil {
		t.Fatal(err)
	}
	if c.Wall == nil || c.Wall.Trials != 40 {
		t.Fatalf("merge into wall-less snapshot lost the wall: %+v", c.Wall)
	}
}

// TestMarshalSweepsStripsWall pins the other half of the satellite:
// the JSON export paths (-metrics-json, survey obs=) must not carry
// any shard's wall section — aggregate or drop, never silently keep
// one process's values. MarshalSweeps drops.
func TestMarshalSweepsStripsWall(t *testing.T) {
	snap := workload(t, 0, 10).Snapshot()
	if snap.Wall == nil {
		t.Fatal("workload produced no wall section")
	}
	data, err := MarshalSweeps(map[string]*Snapshot{"x": snap})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"wall"`) || strings.Contains(string(data), `"elapsed_ns"`) {
		t.Fatalf("sweep export carries wall-clock sections:\n%s", data)
	}
}

func TestSnapshotMergeRejectsSegmentMismatch(t *testing.T) {
	a := workload(t, 0, 10).Snapshot()

	other := NewRegistry()
	other.SetSegments("different")
	if err := a.Merge(other.Snapshot()); err == nil {
		t.Fatal("want segment count mismatch error")
	}

	relabeled := NewRegistry()
	relabeled.SetSegments("s0", "WRONG")
	if err := a.Merge(relabeled.Snapshot()); err == nil || !strings.Contains(err.Error(), "label mismatch") {
		t.Fatalf("want label mismatch error, got %v", err)
	}
}

func TestSnapshotUnmarshalRejectsUnknownNames(t *testing.T) {
	in := `{"segments":[{"label":"a","counters":[{"name":"no.such.counter","value":3}]}]}`
	s := &Snapshot{}
	if err := json.Unmarshal([]byte(in), s); err != nil {
		t.Fatal(err)
	}
	if err := s.Merge(&Snapshot{Segments: []SegmentSnapshot{{Label: "a"}}}); err == nil {
		t.Fatal("want unknown-counter error from merge")
	}
}

// TestSnapshotUnmarshalRejectsInconsistentHist pins the on-disk
// consistency check: a histogram (or wall section) whose bucket counts
// do not sum to its declared count is rejected at decode time instead
// of merging into quantiles drawn from empty buckets.
func TestSnapshotUnmarshalRejectsInconsistentHist(t *testing.T) {
	seg := func(hist string) string {
		return `{"segments":[{"label":"a","histograms":[` + hist + `]}]}`
	}
	cases := []struct {
		name string
		doc  string
		ok   bool
	}{
		{"consistent", seg(`{"name":"tcp.cwnd_bytes","count":3,"sum":12,"buckets":[{"le":1,"count":1},{"le":7,"count":2}]}`), true},
		{"count without buckets", seg(`{"name":"tcp.cwnd_bytes","count":5,"sum":10}`), false},
		{"count above buckets", seg(`{"name":"tcp.cwnd_bytes","count":4,"sum":12,"buckets":[{"le":7,"count":3}]}`), false},
		{"count below buckets", seg(`{"name":"tcp.cwnd_bytes","count":1,"sum":12,"buckets":[{"le":7,"count":3}]}`), false},
		{"bucket counts overflow", seg(`{"name":"tcp.cwnd_bytes","count":1,"sum":1,"buckets":[{"le":1,"count":18446744073709551615},{"le":3,"count":2}]}`), false},
		{"wall consistent", `{"segments":[],"wall":{"trials":2,"sum_ns":6,"buckets":[{"le":3,"count":2}]}}`, true},
		{"wall trials without buckets", `{"segments":[],"wall":{"trials":5,"sum_ns":10}}`, false},
		{"wall trials below buckets", `{"segments":[],"wall":{"trials":1,"sum_ns":6,"buckets":[{"le":3,"count":2}]}}`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := json.Unmarshal([]byte(tc.doc), &Snapshot{})
			if tc.ok && err != nil {
				t.Fatalf("consistent snapshot rejected: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("inconsistent snapshot accepted")
			}
		})
	}
}
