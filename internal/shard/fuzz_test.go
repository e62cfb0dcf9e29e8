package shard

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadSet writes two arbitrary manifest documents into two bundle
// directories and loads them as a set. Any input must end in an
// error, or in a set where every campaign entry of every bundle is
// the validated slice Campaign returns for its shard and each
// campaign's slices tile [0, Trials) with one fingerprint — never a
// panic and never a silently accepted inconsistency.
func FuzzLoadSet(f *testing.F) {
	enc := func(m *Manifest) []byte {
		data, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	valid := campaignSlices("t", "fp", 10, 2)
	m0 := enc(&Manifest{Shard: 0, Shards: 2, Campaigns: valid[0]})
	m1 := enc(&Manifest{Shard: 1, Shards: 2, Campaigns: valid[1]})
	mismatched := campaignSlices("t", "fp-b", 10, 2)
	dup := func(shard int) []byte {
		cm := valid[shard][0]
		bogus := cm
		bogus.Start, bogus.End = 7, 3
		return enc(&Manifest{Shard: shard, Shards: 2, Campaigns: []CampaignManifest{cm, bogus}})
	}

	f.Add(m0, m1)
	f.Add(m0, m0)
	f.Add(m1, m0)
	f.Add(m0, enc(&Manifest{Shard: 1, Shards: 2, Campaigns: mismatched[1]}))
	f.Add(m0, m1[:len(m1)/2])
	f.Add(enc(&Manifest{Shard: 0, Shards: -2, Campaigns: valid[0]}), m1)
	f.Add(dup(0), dup(1))
	// Inputs run one at a time per process, so they share two bundle
	// directories and overwrite the manifests.
	dirs := []string{f.TempDir(), f.TempDir()}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		for i, doc := range [][]byte{a, b} {
			if err := os.WriteFile(filepath.Join(dirs[i], manifestName), doc, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		set, err := LoadSet(dirs)
		if err != nil {
			return
		}
		for i, m := range set.Manifests {
			if m.Shard != i || m.Shards != len(dirs) {
				t.Fatalf("position %d holds shard %d of %d", i, m.Shard, m.Shards)
			}
			if len(m.Campaigns) != len(set.Manifests[0].Campaigns) {
				t.Fatalf("shard %d holds %d campaigns, shard 0 holds %d", i, len(m.Campaigns), len(set.Manifests[0].Campaigns))
			}
			for _, cm := range m.Campaigns {
				slices, err := set.Campaign(cm.Campaign)
				if err != nil {
					t.Fatalf("accepted set cannot resolve campaign %q: %v", cm.Campaign, err)
				}
				if got := slices[i]; got.Start != cm.Start || got.End != cm.End {
					t.Fatalf("shard %d entry [%d, %d) for %q is not the validated slice [%d, %d)",
						i, cm.Start, cm.End, cm.Campaign, got.Start, got.End)
				}
				next := 0
				for k, sl := range slices {
					if sl.Fingerprint != slices[0].Fingerprint || sl.Trials != slices[0].Trials {
						t.Fatalf("campaign %q shard %d disagrees with shard 0: %+v vs %+v", cm.Campaign, k, sl, slices[0])
					}
					if sl.Start != next || sl.End < sl.Start {
						t.Fatalf("campaign %q shard %d range [%d, %d) does not continue at %d", cm.Campaign, k, sl.Start, sl.End, next)
					}
					next = sl.End
				}
				if next != slices[0].Trials {
					t.Fatalf("campaign %q ranges cover [0, %d) of %d", cm.Campaign, next, slices[0].Trials)
				}
			}
		}
	})
}
