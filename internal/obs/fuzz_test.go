package obs

import (
	"encoding/json"
	"testing"
)

// FuzzSnapshotMerge feeds two arbitrary documents through the path a
// shard-bundle merge takes: decode each as a Snapshot, then merge.
// Any input must end in a decode error, a merge error, or a merged
// snapshot whose histograms are consistent (bucket counts sum to the
// count, modulo 2^64 like the cells themselves) and that renders —
// never a panic.
func FuzzSnapshotMerge(f *testing.F) {
	valid, err := json.Marshal(workload(f, 0, 20).Snapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, valid)
	f.Add(valid, []byte(`{"segments":[{"label":"s0","histograms":[{"name":"tcp.cwnd_bytes","count":5,"sum":10}]},{"label":"s1"}]}`))
	f.Add(valid, valid[:len(valid)/2])
	f.Add([]byte(`{"segments":[{"label":"s0","counters":[{"name":"no.such.counter","value":3}]},{"label":"s1"}]}`), valid)
	f.Add(valid, []byte(`{"segments":[{"label":"s0"},{"label":"WRONG"}]}`))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var sa, sb Snapshot
		if json.Unmarshal(a, &sa) != nil || json.Unmarshal(b, &sb) != nil {
			return
		}
		if sa.Merge(&sb) != nil {
			return
		}
		consistent := func(what string, h *Hist) {
			var total uint64
			for _, c := range h.Buckets {
				total += c
			}
			if total != h.Count {
				t.Fatalf("%s: merged bucket counts sum to %d, count is %d", what, total, h.Count)
			}
		}
		for _, seg := range sa.Segments {
			for i := range seg.Hists {
				consistent(seg.Label+"/"+seg.Hists[i].Name, &seg.Hists[i].Hist)
			}
		}
		_ = sa.Text()
		if _, err := MarshalSweeps(map[string]*Snapshot{"fuzz": &sa}); err != nil {
			t.Fatalf("MarshalSweeps of a merged snapshot: %v", err)
		}
	})
}
