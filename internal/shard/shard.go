// Package shard is the multi-process scale-out layer: it splits a
// campaign into N contiguous trial-index ranges, describes each
// range's output as a self-describing bundle (a manifest plus a JSONL
// result slice, a serialized obs snapshot, and a per-shard pipeline
// checkpoint), and validates and reassembles a complete bundle set
// for merging.
//
// The partitioning is free because every campaign in this repository
// is a pure function of the trial index: shard i simply runs
// [Plan(total, N)[i].Start, .End) through the existing pipeline
// (pipeline.Config.Start/End) and exports exactly the JSONL lines a
// single process would for those indices. Merging is therefore
// concatenation in index order for results, and the commutative
// obs.Snapshot.Merge for metrics — both byte-identical to a
// single-process run. The manifest carries the campaign fingerprint
// so a merge can refuse bundles produced under a different
// configuration, the same guard pipeline checkpoints use.
package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Range is one contiguous trial-index slice [Start, End).
type Range struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// Plan splits [0, total) into shards contiguous ranges of near-equal
// size (earlier shards get the remainder). The ranges tile [0, total)
// exactly; with more shards than trials the tail ranges are empty.
func Plan(total, shards int) []Range {
	if shards < 1 {
		shards = 1
	}
	rs := make([]Range, shards)
	for i := 0; i < shards; i++ {
		rs[i] = Range{Start: i * total / shards, End: (i + 1) * total / shards}
	}
	return rs
}

// CampaignManifest describes one campaign's slice inside a bundle.
// File paths are relative to the bundle directory.
type CampaignManifest struct {
	// Campaign is the campaign name ("table1", "survey", ...).
	Campaign string `json:"campaign"`

	// Fingerprint is the campaign's configuration fingerprint
	// (pipeline.Generator.Fingerprint); merge refuses to combine
	// bundles whose fingerprints differ, or that differ from the
	// merge invocation's own configuration.
	Fingerprint string `json:"fingerprint"`

	// Trials is the full campaign size; Start/End is this shard's
	// slice of it.
	Trials int `json:"trials"`
	Start  int `json:"start"`
	End    int `json:"end"`

	// SeedBase is the campaign's base seed (informational; the
	// fingerprint is the authoritative configuration check).
	SeedBase int64 `json:"seed_base"`

	// Results is the JSONL file holding one line per trial in
	// [Start, End), in index order.
	Results string `json:"results,omitempty"`

	// Snapshot is the serialized obs.Snapshot of this slice's
	// metrics.
	Snapshot string `json:"snapshot,omitempty"`

	// Checkpoint is the slice's pipeline checkpoint (resume state for
	// an interrupted shard).
	Checkpoint string `json:"checkpoint,omitempty"`
}

// Manifest is a bundle's self-description: which shard of how many,
// and the campaign slices it holds. A shard process writes it last,
// after every campaign slice completed, so a manifest's presence
// marks the bundle complete.
type Manifest struct {
	Shard     int                `json:"shard"`
	Shards    int                `json:"shards"`
	Campaigns []CampaignManifest `json:"campaigns"`
}

// manifestName is the manifest's filename inside a bundle directory.
const manifestName = "manifest.json"

// Save writes the manifest atomically into dir.
func (m *Manifest) Save(dir string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: encode manifest: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shard: bundle dir: %w", err)
	}
	path := filepath.Join(dir, manifestName)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("shard: write manifest: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("shard: commit manifest: %w", err)
	}
	return nil
}

// Load reads a bundle directory's manifest.
func Load(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("shard: bundle %s has no manifest (incomplete shard run?): %w", dir, err)
	}
	m := &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("shard: parse manifest in %s: %w", dir, err)
	}
	return m, nil
}

// Set is a validated bundle collection covering a whole campaign run:
// one bundle per shard, sorted by shard index.
type Set struct {
	Dirs      []string
	Manifests []*Manifest
}

// LoadSet loads and validates the bundles in dirs: every shard index
// 0..N-1 present exactly once, no campaign listed twice in one
// bundle, all bundles agreeing on the shard count and on each
// campaign's identity (name set, fingerprint, total trials), and each
// campaign's ranges tiling [0, Trials) in shard order. The returned set is sorted by shard index.
func LoadSet(dirs []string) (*Set, error) {
	if len(dirs) == 0 {
		return nil, fmt.Errorf("shard: no bundle directories")
	}
	set := &Set{Dirs: make([]string, len(dirs)), Manifests: make([]*Manifest, len(dirs))}
	count := 0
	for _, dir := range dirs {
		m, err := Load(dir)
		if err != nil {
			return nil, err
		}
		if count == 0 {
			count = m.Shards
			if count != len(dirs) {
				return nil, fmt.Errorf("shard: %s was written as 1 of %d shards, %d bundles given", dir, count, len(dirs))
			}
		}
		if m.Shards != count {
			return nil, fmt.Errorf("shard: %s disagrees on shard count: %d vs %d", dir, m.Shards, count)
		}
		if m.Shard < 0 || m.Shard >= count {
			return nil, fmt.Errorf("shard: %s has shard index %d of %d", dir, m.Shard, count)
		}
		if set.Manifests[m.Shard] != nil {
			return nil, fmt.Errorf("shard: duplicate bundle for shard %d (%s and %s)", m.Shard, set.Dirs[m.Shard], dir)
		}
		seen := make(map[string]bool, len(m.Campaigns))
		for _, cm := range m.Campaigns {
			if seen[cm.Campaign] {
				return nil, fmt.Errorf("shard: %s lists campaign %q twice", dir, cm.Campaign)
			}
			seen[cm.Campaign] = true
		}
		set.Dirs[m.Shard] = dir
		set.Manifests[m.Shard] = m
	}
	// All indices are in range and duplicates were rejected, so every
	// slot is filled. Validate each campaign across the set against
	// shard 0's view of it.
	for _, cm := range set.Manifests[0].Campaigns {
		if err := set.validateCampaign(cm.Campaign); err != nil {
			return nil, err
		}
	}
	for i, m := range set.Manifests {
		if len(m.Campaigns) != len(set.Manifests[0].Campaigns) {
			return nil, fmt.Errorf("shard: %s holds %d campaigns, shard 0 holds %d",
				set.Dirs[i], len(m.Campaigns), len(set.Manifests[0].Campaigns))
		}
	}
	return set, nil
}

// validateCampaign checks one campaign's slices across the whole set:
// identical fingerprints and totals, ranges tiling [0, Trials).
func (s *Set) validateCampaign(name string) error {
	ref, err := s.Manifests[0].campaign(name)
	if err != nil {
		return fmt.Errorf("shard: %s: %w", s.Dirs[0], err)
	}
	next := 0
	for i, m := range s.Manifests {
		cm, err := m.campaign(name)
		if err != nil {
			return fmt.Errorf("shard: %s: %w", s.Dirs[i], err)
		}
		if cm.Fingerprint != ref.Fingerprint {
			return fmt.Errorf("shard: campaign %q fingerprint mismatch:\n  %s: %s\n  %s: %s",
				name, s.Dirs[0], ref.Fingerprint, s.Dirs[i], cm.Fingerprint)
		}
		if cm.Trials != ref.Trials {
			return fmt.Errorf("shard: campaign %q trial count mismatch: %s has %d, %s has %d",
				name, s.Dirs[0], ref.Trials, s.Dirs[i], cm.Trials)
		}
		if cm.Start != next {
			return fmt.Errorf("shard: campaign %q ranges do not tile: shard %d starts at %d, want %d",
				name, i, cm.Start, next)
		}
		if cm.End < cm.Start || cm.End > cm.Trials {
			return fmt.Errorf("shard: campaign %q shard %d has bad range [%d, %d) of %d",
				name, i, cm.Start, cm.End, cm.Trials)
		}
		next = cm.End
	}
	if next != ref.Trials {
		return fmt.Errorf("shard: campaign %q ranges cover [0, %d) of %d trials", name, next, ref.Trials)
	}
	return nil
}

// campaign finds a campaign entry by name in one manifest.
func (m *Manifest) campaign(name string) (*CampaignManifest, error) {
	for i := range m.Campaigns {
		if m.Campaigns[i].Campaign == name {
			return &m.Campaigns[i], nil
		}
	}
	return nil, fmt.Errorf("no campaign %q in manifest", name)
}

// Campaign returns the validated per-shard slices of one campaign, in
// shard (= index) order, with file paths resolved against their
// bundle directories.
func (s *Set) Campaign(name string) ([]CampaignManifest, error) {
	out := make([]CampaignManifest, 0, len(s.Manifests))
	for i, m := range s.Manifests {
		cm, err := m.campaign(name)
		if err != nil {
			return nil, fmt.Errorf("shard: %s: %w", s.Dirs[i], err)
		}
		r := *cm
		if r.Results != "" {
			r.Results = filepath.Join(s.Dirs[i], r.Results)
		}
		if r.Snapshot != "" {
			r.Snapshot = filepath.Join(s.Dirs[i], r.Snapshot)
		}
		if r.Checkpoint != "" {
			r.Checkpoint = filepath.Join(s.Dirs[i], r.Checkpoint)
		}
		out = append(out, r)
	}
	return out, nil
}

// ConcatResults streams one campaign's JSONL slices to w in shard
// order — because slices are contiguous and index-ordered, the output
// is byte-identical to the single-process export. Empty slices
// (shards whose range was empty) are skipped. Each slice must hold
// exactly End-Start newline-terminated lines: a short or long slice
// would shift every later trial onto the wrong index, so it is an
// error even when the total comes out right.
func (s *Set) ConcatResults(name string, w io.Writer) error {
	slices, err := s.Campaign(name)
	if err != nil {
		return err
	}
	for i, cm := range slices {
		if cm.Start == cm.End {
			continue
		}
		if cm.Results == "" {
			return fmt.Errorf("shard: campaign %q shard range [%d, %d) has no results file", name, cm.Start, cm.End)
		}
		f, err := os.Open(cm.Results)
		if err != nil {
			return fmt.Errorf("shard: %w", err)
		}
		lc := &lineCounter{r: f}
		_, err = io.Copy(w, lc)
		f.Close()
		if err != nil {
			return fmt.Errorf("shard: concat %s: %w", cm.Results, err)
		}
		if want := cm.End - cm.Start; lc.lines != want {
			return fmt.Errorf("shard: bundle %s campaign %q: %s has %d lines, want %d for range [%d, %d)",
				s.Dirs[i], name, cm.Results, lc.lines, want, cm.Start, cm.End)
		}
		if lc.last != '\n' {
			return fmt.Errorf("shard: bundle %s campaign %q: %s does not end in a newline", s.Dirs[i], name, cm.Results)
		}
	}
	return nil
}

// lineCounter counts the newlines in, and keeps the last byte of,
// everything read through it. Counting in the read buffer itself
// keeps the check to the one pass the copy already makes.
type lineCounter struct {
	r     io.Reader
	lines int
	last  byte
}

func (c *lineCounter) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.lines += bytes.Count(p[:n], []byte{'\n'})
		c.last = p[n-1]
	}
	return n, err
}
