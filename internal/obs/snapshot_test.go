package obs

import (
	"encoding/json"
	"strings"
	"testing"
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

func TestSnapshotJSONRoundTripPreservesText(t *testing.T) {
	snap := workload(t, 0, 50).Snapshot()
	got := roundTrip(t, snap)
	if got.Text() != snap.Text() {
		t.Fatalf("round trip changed text:\n%s\nvs\n%s", got.Text(), snap.Text())
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
		if merged.Text() != ref.Text() {
			t.Fatalf("cuts %v: merged text differs:\n%s\nvs\n%s", cuts, merged.Text(), ref.Text())
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
	if a1.Text() != b2.Text() {
		t.Fatalf("merge order changed text:\n%s\nvs\n%s", a1.Text(), b2.Text())
	}
}

// TestMarshalSweepsStripsWall pins backward compatibility with shard
// bundles and checkpoints written while snapshots still carried a
// wall-clock section: a document with "wall" and "elapsed_ns" keys
// decodes, merges with a current one, and exports through
// MarshalSweeps byte-identically to the same document without those
// keys — and to the unpartitioned run.
func TestMarshalSweepsStripsWall(t *testing.T) {
	current, err := json.Marshal(workload(t, 0, 10).Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(current, &doc); err != nil {
		t.Fatal(err)
	}
	doc["wall"] = json.RawMessage(`{"trials":10,"sum_ns":55000000,"mean_ns":5500000,` +
		`"p50_le_ns":8388607,"p99_le_ns":16777215,` +
		`"buckets":[{"le":1048575,"count":1},{"le":2097151,"count":1},{"le":4194303,"count":2},` +
		`{"le":8388607,"count":4},{"le":16777215,"count":2}]}`)
	doc["elapsed_ns"] = json.RawMessage(`123456789`)
	legacy, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}

	export := func(first []byte) []byte {
		t.Helper()
		snap := &Snapshot{}
		if err := json.Unmarshal(first, snap); err != nil {
			t.Fatalf("decode: %v\n%s", err, first)
		}
		if err := snap.Merge(roundTrip(t, workload(t, 10, 20).Snapshot())); err != nil {
			t.Fatalf("merge: %v", err)
		}
		data, err := MarshalSweeps(map[string]*Snapshot{"x": snap})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	got, want := export(legacy), export(current)
	if string(got) != string(want) {
		t.Fatalf("legacy wall keys changed the export:\n%s\nvs\n%s", got, want)
	}
	whole, err := MarshalSweeps(map[string]*Snapshot{"x": workload(t, 0, 20).Snapshot()})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(whole) {
		t.Fatalf("merged legacy export differs from the unpartitioned run:\n%s\nvs\n%s", got, whole)
	}
	if strings.Contains(string(got), `"wall"`) || strings.Contains(string(got), `"elapsed_ns"`) {
		t.Fatalf("sweep export carries legacy wall-clock keys:\n%s", got)
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
// consistency check: a histogram whose bucket counts
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
