package shard

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPlanTilesExactly(t *testing.T) {
	for _, tc := range []struct{ total, shards int }{
		{0, 1}, {1, 1}, {1, 3}, {10, 3}, {10, 1}, {100, 7}, {5, 5}, {3, 8},
	} {
		rs := Plan(tc.total, tc.shards)
		if len(rs) != tc.shards {
			t.Fatalf("Plan(%d,%d): %d ranges", tc.total, tc.shards, len(rs))
		}
		next := 0
		for i, r := range rs {
			if r.Start != next {
				t.Fatalf("Plan(%d,%d)[%d]: starts at %d, want %d", tc.total, tc.shards, i, r.Start, next)
			}
			if r.End < r.Start {
				t.Fatalf("Plan(%d,%d)[%d]: inverted range %+v", tc.total, tc.shards, i, r)
			}
			next = r.End
		}
		if next != tc.total {
			t.Fatalf("Plan(%d,%d): covers [0,%d)", tc.total, tc.shards, next)
		}
	}
}

func TestPlanBalance(t *testing.T) {
	rs := Plan(10, 3)
	for i, r := range rs {
		if n := r.End - r.Start; n < 3 || n > 4 {
			t.Fatalf("Plan(10,3)[%d] has %d trials", i, n)
		}
	}
}

// writeBundle creates a bundle directory with a manifest and result
// slices containing one line per index.
func writeBundle(t *testing.T, dir string, idx, count int, campaigns []CampaignManifest) {
	t.Helper()
	for i := range campaigns {
		cm := &campaigns[i]
		if cm.Results == "" {
			continue
		}
		var b strings.Builder
		for k := cm.Start; k < cm.End; k++ {
			b.WriteString(cm.Campaign)
			b.WriteByte(' ')
			b.WriteString(strings.Repeat("x", k%3)) // varying line shape
			b.WriteString("line\n")
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, cm.Results), []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m := &Manifest{Shard: idx, Shards: count, Campaigns: campaigns}
	if err := m.Save(dir); err != nil {
		t.Fatal(err)
	}
}

// campaignSlices fabricates one campaign split by Plan.
func campaignSlices(name, fp string, trials, shards int) [][]CampaignManifest {
	out := make([][]CampaignManifest, shards)
	for i, r := range Plan(trials, shards) {
		out[i] = []CampaignManifest{{
			Campaign:    name,
			Fingerprint: fp,
			Trials:      trials,
			Start:       r.Start,
			End:         r.End,
			Results:     name + ".jsonl",
		}}
	}
	return out
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := &Manifest{Shard: 1, Shards: 3, Campaigns: []CampaignManifest{{
		Campaign: "table1", Fingerprint: "fp", Trials: 30, Start: 10, End: 20,
		SeedBase: 42, Results: "table1.jsonl", Snapshot: "table1.obs.json",
		Checkpoint: "table1.ck.json",
	}}}
	if err := m.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shard != 1 || got.Shards != 3 || len(got.Campaigns) != 1 {
		t.Fatalf("round trip: %+v", got)
	}
	if got.Campaigns[0] != m.Campaigns[0] {
		t.Fatalf("campaign round trip:\n got %+v\nwant %+v", got.Campaigns[0], m.Campaigns[0])
	}
}

func TestLoadMissingManifest(t *testing.T) {
	if _, err := Load(t.TempDir()); err == nil {
		t.Fatal("want error for bundle without manifest")
	}
}

func TestLoadSetAndConcat(t *testing.T) {
	slices := campaignSlices("table1", "fp-a", 10, 3)
	dirs := make([]string, 3)
	for i := range dirs {
		dirs[i] = filepath.Join(t.TempDir(), "s")
		writeBundle(t, dirs[i], i, 3, slices[i])
	}
	// Load in shuffled order; the set must sort by shard index.
	set, err := LoadSet([]string{dirs[2], dirs[0], dirs[1]})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range set.Manifests {
		if m.Shard != i {
			t.Fatalf("set not sorted: position %d holds shard %d", i, m.Shard)
		}
	}

	var merged bytes.Buffer
	if err := set.ConcatResults("table1", &merged); err != nil {
		t.Fatal(err)
	}
	var single strings.Builder
	for k := 0; k < 10; k++ {
		single.WriteString("table1 " + strings.Repeat("x", k%3) + "line\n")
	}
	if merged.String() != single.String() {
		t.Fatalf("concat differs from single-process order:\n%q\nwant\n%q", merged.String(), single.String())
	}
}

func TestLoadSetEmptyShardRange(t *testing.T) {
	// More shards than trials: tail ranges are empty, concat skips them.
	slices := campaignSlices("t", "fp", 2, 3)
	dirs := make([]string, 3)
	for i := range dirs {
		dirs[i] = filepath.Join(t.TempDir(), "s")
		writeBundle(t, dirs[i], i, 3, slices[i])
	}
	set, err := LoadSet(dirs)
	if err != nil {
		t.Fatal(err)
	}
	var merged bytes.Buffer
	if err := set.ConcatResults("t", &merged); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(merged.String(), "\n"); n != 2 {
		t.Fatalf("got %d lines, want 2", n)
	}
}

func TestLoadSetRejectsFingerprintMismatch(t *testing.T) {
	slices := campaignSlices("table1", "fp-a", 10, 2)
	slices[1][0].Fingerprint = "fp-b"
	dirs := make([]string, 2)
	for i := range dirs {
		dirs[i] = filepath.Join(t.TempDir(), "s")
		writeBundle(t, dirs[i], i, 2, slices[i])
	}
	_, err := LoadSet(dirs)
	if err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("want fingerprint mismatch error, got %v", err)
	}
}

func TestLoadSetRejectsDuplicateShard(t *testing.T) {
	slices := campaignSlices("t", "fp", 4, 2)
	d0 := filepath.Join(t.TempDir(), "s")
	d1 := filepath.Join(t.TempDir(), "s")
	writeBundle(t, d0, 0, 2, slices[0])
	writeBundle(t, d1, 0, 2, slices[0]) // duplicate index 0
	if _, err := LoadSet([]string{d0, d1}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("want duplicate shard error, got %v", err)
	}
}

func TestLoadSetRejectsCountMismatch(t *testing.T) {
	slices := campaignSlices("t", "fp", 4, 2)
	d0 := filepath.Join(t.TempDir(), "s")
	writeBundle(t, d0, 0, 2, slices[0])
	// Only one of two bundles supplied.
	if _, err := LoadSet([]string{d0}); err == nil {
		t.Fatal("want error for incomplete bundle set")
	}
}

func TestLoadSetRejectsRangeGap(t *testing.T) {
	slices := campaignSlices("t", "fp", 10, 2)
	slices[1][0].Start = 6 // shard 0 ends at 5
	dirs := make([]string, 2)
	for i := range dirs {
		dirs[i] = filepath.Join(t.TempDir(), "s")
		writeBundle(t, dirs[i], i, 2, slices[i])
	}
	if _, err := LoadSet(dirs); err == nil || !strings.Contains(err.Error(), "tile") {
		t.Fatalf("want tiling error, got %v", err)
	}
}

func TestLoadSetRejectsShortCoverage(t *testing.T) {
	slices := campaignSlices("t", "fp", 10, 2)
	slices[1][0].End = 9 // last shard stops short
	dirs := make([]string, 2)
	for i := range dirs {
		dirs[i] = filepath.Join(t.TempDir(), "s")
		writeBundle(t, dirs[i], i, 2, slices[i])
	}
	if _, err := LoadSet(dirs); err == nil {
		t.Fatal("want coverage error")
	}
}

func TestLoadSetRejectsCampaignSetMismatch(t *testing.T) {
	a := campaignSlices("t", "fp", 4, 2)
	b := campaignSlices("u", "fp", 4, 2)
	d0 := filepath.Join(t.TempDir(), "s")
	d1 := filepath.Join(t.TempDir(), "s")
	writeBundle(t, d0, 0, 2, a[0])
	writeBundle(t, d1, 1, 2, b[1])
	if _, err := LoadSet([]string{d0, d1}); err == nil {
		t.Fatal("want campaign set mismatch error")
	}
}

// TestConcatResultsRejectsMisalignedSlices pins the per-slice line
// check: a slice whose line count differs from its range, or whose
// last line is unterminated, is an error even when the concatenated
// total is right — otherwise every later trial lands on the wrong
// index, or a stray line reaches the merged JSONL.
func TestConcatResultsRejectsMisalignedSlices(t *testing.T) {
	var lines []string
	for k := 0; k < 10; k++ {
		lines = append(lines, "t "+strings.Repeat("x", k%3)+"line\n")
	}
	join := func(ls []string) string { return strings.Join(ls, "") }
	cases := []struct {
		name          string
		first, second string
		ok            bool
	}{
		{"aligned", join(lines[:5]), join(lines[5:]), true},
		{"short then long with the right total", join(lines[:4]), join(lines[4:]), false},
		{"extra trailing line in the last slice", join(lines[:5]), join(lines[5:]) + "t extra\n", false},
		{"missing final newline", join(lines[:5]), strings.TrimSuffix(join(lines[5:]), "\n"), false},
		{"unterminated extra line", join(lines[:5]), join(lines[5:]) + "t extra", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			slices := campaignSlices("t", "fp", 10, 2)
			dirs := make([]string, 2)
			for i, content := range []string{tc.first, tc.second} {
				dirs[i] = filepath.Join(t.TempDir(), "s")
				writeBundle(t, dirs[i], i, 2, slices[i])
				if err := os.WriteFile(filepath.Join(dirs[i], "t.jsonl"), []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			set, err := LoadSet(dirs)
			if err != nil {
				t.Fatal(err)
			}
			var merged bytes.Buffer
			err = set.ConcatResults("t", &merged)
			if tc.ok {
				if err != nil {
					t.Fatalf("aligned slices rejected: %v", err)
				}
				if merged.String() != join(lines) {
					t.Fatalf("concat = %q, want %q", merged.String(), join(lines))
				}
				return
			}
			if err == nil {
				t.Fatal("misaligned slices accepted")
			}
			if !strings.Contains(err.Error(), dirs[1]) && !strings.Contains(err.Error(), dirs[0]) {
				t.Fatalf("error does not name the bundle: %v", err)
			}
			if !strings.Contains(err.Error(), `"t"`) {
				t.Fatalf("error does not name the campaign: %v", err)
			}
		})
	}
}
