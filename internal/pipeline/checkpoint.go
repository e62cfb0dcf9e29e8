package pipeline

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// checkpointFile is the on-disk checkpoint format: one JSON object
// recording where the campaign is and everything the exporters need
// to continue byte-identically.
//
//	{
//	  "campaign":    "survey",
//	  "fingerprint": "corpus{seed=1 sites=1000 ...} reps=1 seed0=1",
//	  "trials":      1000,
//	  "next":        600,
//	  "done":        false,
//	  "exporters":   {"jsonl": {"offset": 123456, "lines": 600}, ...}
//	}
//
// next is the first trial index a resumed run executes; exporters
// maps Exporter.Name() to the state returned by its Checkpoint. The
// file is written atomically (temp file + rename in the same
// directory), so a kill during a checkpoint write leaves the previous
// checkpoint intact.
type checkpointFile struct {
	Campaign    string `json:"campaign"`
	Fingerprint string `json:"fingerprint"`
	Trials      int    `json:"trials"`
	// RangeStart/RangeEnd record the contiguous index slice this
	// checkpoint covers (a shard run). Zero values mean the full
	// campaign — RangeEnd 0 is read as Trials, so checkpoints written
	// before ranges existed still verify.
	RangeStart int                        `json:"range_start,omitempty"`
	RangeEnd   int                        `json:"range_end,omitempty"`
	Next       int                        `json:"next"`
	DoneFlag   bool                       `json:"done"`
	Exporters  map[string]json.RawMessage `json:"exporters"`
}

// checkpoint couples the format with its path and campaign identity.
type checkpoint struct {
	checkpointFile
	path string
}

// newCheckpoint prepares a checkpoint writer for the [start, end)
// slice of a campaign.
func newCheckpoint(path, campaign, fingerprint string, trials, start, end int) *checkpoint {
	return &checkpoint{
		checkpointFile: checkpointFile{
			Campaign:    campaign,
			Fingerprint: fingerprint,
			Trials:      trials,
			RangeStart:  start,
			RangeEnd:    end,
		},
		path: path,
	}
}

// loadCheckpoint reads an existing checkpoint, returning (nil, nil)
// when the file does not exist (a fresh campaign).
func loadCheckpoint(path string) (*checkpoint, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("pipeline: read checkpoint: %w", err)
	}
	ck := &checkpoint{path: path}
	if err := json.Unmarshal(data, &ck.checkpointFile); err != nil {
		return nil, fmt.Errorf("pipeline: parse checkpoint %s: %w", path, err)
	}
	return ck, nil
}

// verify guards a resume: the checkpoint must describe exactly the
// campaign — and the index range — the caller is about to continue,
// with a resume index inside that range (at its end when done).
func (ck *checkpoint) verify(campaign, fingerprint string, trials, start, end int) error {
	if ck.Campaign != campaign {
		return fmt.Errorf("pipeline: checkpoint %s is for campaign %q, not %q", ck.path, ck.Campaign, campaign)
	}
	if ck.Fingerprint != fingerprint {
		return fmt.Errorf("pipeline: checkpoint %s was written under a different configuration:\n  checkpoint: %s\n  requested:  %s",
			ck.path, ck.Fingerprint, fingerprint)
	}
	if ck.Trials != trials {
		return fmt.Errorf("pipeline: checkpoint %s records %d trials, campaign has %d", ck.path, ck.Trials, trials)
	}
	ckEnd := ck.RangeEnd
	if ckEnd == 0 {
		ckEnd = ck.Trials
	}
	if ck.RangeStart != start || ckEnd != end {
		return fmt.Errorf("pipeline: checkpoint %s covers range [%d, %d), run requested [%d, %d)",
			ck.path, ck.RangeStart, ckEnd, start, end)
	}
	if ck.Next < start || ck.Next > end {
		return fmt.Errorf("pipeline: checkpoint %s resumes at trial %d, outside [%d, %d]",
			ck.path, ck.Next, start, end)
	}
	if ck.DoneFlag && ck.Next != end {
		return fmt.Errorf("pipeline: checkpoint %s is marked done at trial %d, not at its range end %d",
			ck.path, ck.Next, end)
	}
	return nil
}

// save atomically rewrites the checkpoint file with next as the
// resume index and the exporter states collected by the caller.
func (ck *checkpoint) save(next int, done bool, states map[string]json.RawMessage) error {
	ck.Next = next
	ck.DoneFlag = done
	ck.Exporters = states
	data, err := json.MarshalIndent(&ck.checkpointFile, "", "  ")
	if err != nil {
		return fmt.Errorf("pipeline: encode checkpoint: %w", err)
	}
	tmp := ck.path + ".tmp"
	if dir := filepath.Dir(ck.path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("pipeline: checkpoint dir: %w", err)
		}
	}
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("pipeline: write checkpoint: %w", err)
	}
	if err := os.Rename(tmp, ck.path); err != nil {
		return fmt.Errorf("pipeline: commit checkpoint: %w", err)
	}
	return nil
}
