package obs

import (
	"encoding/json"
	"math/rand"
	"sort"
	"testing"
)

// marshalSweepsReference is a frozen copy of the -metrics-json
// encoding, kept verbatim as the oracle that pins MarshalSweeps' wire
// form.
func marshalSweepsReference(sweeps map[string]*Snapshot) ([]byte, error) {
	names := make([]string, 0, len(sweeps))
	for n := range sweeps {
		names = append(names, n)
	}
	sort.Strings(names)
	type entry struct {
		Sweep string `json:"sweep"`
		*Snapshot
	}
	out := struct {
		Sweeps []entry `json:"sweeps"`
	}{}
	for _, n := range names {
		out.Sweeps = append(out.Sweeps, entry{Sweep: n, Snapshot: sweeps[n]})
	}
	return json.MarshalIndent(out, "", "  ")
}

// randomSnapshot builds a snapshot with seeded segments, counters,
// and histograms, including empty-slice and escape-needing edges.
func randomSnapshot(rng *rand.Rand) *Snapshot {
	labels := []string{"baseline", "17-32 objects", `label "quoted" <&>`, ""}
	s := &Snapshot{}
	if rng.Intn(8) == 0 {
		if rng.Intn(2) == 0 {
			s.Segments = []SegmentSnapshot{} // empty, not nil
		}
		return s
	}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		seg := SegmentSnapshot{Label: labels[rng.Intn(len(labels))]}
		for c, nc := 0, rng.Intn(4); c < nc; c++ {
			seg.Counters = append(seg.Counters, CounterValue{
				Name:  "counter_" + string(rune('a'+c)),
				Value: rng.Uint64() >> uint(rng.Intn(64)),
			})
		}
		for h, nh := 0, rng.Intn(3); h < nh; h++ {
			hv := HistValue{Name: "hist_" + string(rune('a'+h))}
			for o, no := 0, rng.Intn(40); o < no; o++ {
				hv.Hist.Observe(rng.Int63() >> uint(rng.Intn(63)))
			}
			seg.Hists = append(seg.Hists, hv)
		}
		s.Segments = append(s.Segments, seg)
	}
	return s
}

// TestAppendSweepsMatchesReference pins MarshalSweeps against the
// frozen reference byte-for-byte: the shard-merge gate cmp's
// -metrics-json files, so any drift is output corruption.
func TestAppendSweepsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for n := 0; n < 300; n++ {
		sweeps := map[string]*Snapshot{}
		for i, ns := 0, rng.Intn(4); i < ns; i++ {
			sweeps["sweep-"+string(rune('a'+i))] = randomSnapshot(rng)
		}
		want, err := marshalSweepsReference(sweeps)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		got, err := MarshalSweeps(sweeps)
		if err != nil {
			t.Fatalf("MarshalSweeps: %v", err)
		}
		if string(got) != string(want) {
			t.Fatalf("AppendSweeps drift (case %d):\n got:\n%s\nwant:\n%s", n, got, want)
		}
	}
}
