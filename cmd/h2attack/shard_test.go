package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiment"
	"repro/internal/obs"
)

// readTrialCount parses a bundle snapshot file and returns its
// trial.count counter summed over segments — the quickest proof the
// snapshot covers real work.
func readTrialCount(t *testing.T, path string) uint64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap := &obs.Snapshot{}
	if err := json.Unmarshal(data, snap); err != nil {
		t.Fatal(err)
	}
	var n uint64
	for i := range snap.Segments {
		n += snap.Segments[i].Counter(obs.CTrial.String())
	}
	return n
}

// TestShardModeRerunKeepsSnapshot pins the resume contract of a shard
// that already finished: rerunning the same command resumes from the
// done checkpoint without running a trial and must leave the bundle
// byte-identical — in particular the obs snapshot it rewrites must be
// the whole-range one restored from the checkpoint, not an empty one.
func TestShardModeRerunKeepsSnapshot(t *testing.T) {
	dir := t.TempDir()
	defs := experiment.Sweeps(2, 1)[4:5] // delay sweep, 2 trials/config
	f := &cliFlags{shardSpec: "1/1", shardDir: dir, jobs: 2, ckptEvery: 2}

	if err := runShardMode(f, defs, nil); err != nil {
		t.Fatal(err)
	}
	name := defs[0].Name
	snapPath := filepath.Join(dir, name+".obs.json")
	before, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := readTrialCount(t, snapPath); got != uint64(defs[0].Trials) {
		t.Fatalf("fresh bundle snapshot covers %d trials, want %d", got, defs[0].Trials)
	}
	jsonlBefore, err := os.ReadFile(filepath.Join(dir, name+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}

	if err := runShardMode(f, defs, nil); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("rerun of a complete shard rewrote the obs snapshot:\n%s\nvs\n%s", after, before)
	}
	jsonlAfter, err := os.ReadFile(filepath.Join(dir, name+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonlBefore, jsonlAfter) {
		t.Fatal("rerun of a complete shard rewrote the results JSONL")
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatalf("rerun of a complete shard lost the manifest: %v", err)
	}
}

// TestShardModeRecoversSnapshotFromCheckpoint covers the crash window
// between the final done checkpoint and the snapshot file write: the
// rerun runs no trial, finds no snapshot file, and must reconstruct it
// from the obs-state recorded inside the done checkpoint.
func TestShardModeRecoversSnapshotFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	defs := experiment.Sweeps(2, 1)[4:5]
	f := &cliFlags{shardSpec: "1/1", shardDir: dir, jobs: 2, ckptEvery: 2}

	if err := runShardMode(f, defs, nil); err != nil {
		t.Fatal(err)
	}
	name := defs[0].Name
	snapPath := filepath.Join(dir, name+".obs.json")
	if err := os.Remove(snapPath); err != nil {
		t.Fatal(err)
	}

	if err := runShardMode(f, defs, nil); err != nil {
		t.Fatal(err)
	}
	if got := readTrialCount(t, snapPath); got != uint64(defs[0].Trials) {
		t.Fatalf("recovered snapshot covers %d trials, want %d", got, defs[0].Trials)
	}
}
