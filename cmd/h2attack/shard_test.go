package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/shard"
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

// captureStdout runs fn with os.Stdout sent to a file and returns what
// it printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	return captureStream(t, &os.Stdout, fn)
}

// captureStream runs fn with *stream (os.Stdout or os.Stderr) sent to
// a file and returns what it printed there.
func captureStream(t *testing.T, stream **os.File, fn func() error) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := *stream
	*stream = f
	runErr := fn()
	*stream = saved
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// writeBundles runs the campaign flags in f as a two-shard job and
// returns the two bundle directories.
func writeBundles(t *testing.T, f cliFlags, defs []experiment.SweepDef) []string {
	t.Helper()
	root := t.TempDir()
	var dirs []string
	for i, spec := range []string{"1/2", "2/2"} {
		f.shardSpec, f.shardDir = spec, filepath.Join(root, fmt.Sprintf("b%d", i+1))
		if _, err := captureStdout(t, func() error { return runShardMode(&f, defs, nil) }); err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, f.shardDir)
	}
	return dirs
}

// editLine rewrites line k of a JSONL file through edit.
func editLine(t *testing.T, path string, k int, edit func(line string) string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if k >= len(lines)-1 {
		t.Fatalf("%s has no line %d", path, k)
	}
	lines[k] = edit(lines[k])
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMergeRefusesHostileSweepBundles corrupts one result line of a
// two-shard sweep bundle set in three ways. Each -merge must fail with
// an error naming the campaign and the record, and print no table.
// The flipped byte turns a key's first letter to lower case; it and
// the inserted space are forms encoding/json accepted.
func TestMergeRefusesHostileSweepBundles(t *testing.T) {
	defs := experiment.Sweeps(2, 1)[4:5] // delay sweep, 2 trials/config
	name := defs[0].Name
	shards := cliFlags{jobs: 2, ckptEvery: 4}
	first := shard.Plan(defs[0].Trials, 2)[0].End // records in bundle 1

	dirs := writeBundles(t, shards, defs)
	out, err := captureStdout(t, func() error {
		return runMergeMode(&cliFlags{mergeDirs: strings.Join(dirs, ",")}, defs)
	})
	if err != nil || out == "" {
		t.Fatalf("intact bundles: err %v, printed %q", err, out)
	}

	cases := []struct {
		name   string
		bundle int
		line   int
		edit   func(string) string
		record int
	}{
		{"flipped byte", 0, 1, func(l string) string {
			i := strings.Index(l, `"Resets"`) + 1
			return l[:i] + string(l[i]^0x20) + l[i+1:]
		}, 1},
		{"truncated last line", 1, defs[0].Trials - first - 1, func(l string) string { return l[:len(l)-10] }, defs[0].Trials - 1},
		{"space after colon", 1, 0, func(l string) string { return strings.Replace(l, `"Broken":`, `"Broken": `, 1) }, first},
	}
	for _, c := range cases {
		bad := writeBundles(t, shards, defs)
		editLine(t, filepath.Join(bad[c.bundle], name+".jsonl"), c.line, c.edit)
		out, err := captureStdout(t, func() error {
			return runMergeMode(&cliFlags{mergeDirs: strings.Join(bad, ",")}, defs)
		})
		if err == nil {
			t.Errorf("%s: merge accepted the corrupt bundle", c.name)
			continue
		}
		for _, want := range []string{fmt.Sprintf("campaign %q", name), fmt.Sprintf("trial record %d ", c.record)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %s", c.name, err, want)
			}
		}
		if out != "" {
			t.Errorf("%s: refused merge printed %q", c.name, out)
		}
	}
}

// TestMergeRefusesSurveyLineWithTwoRecords crafts a survey slice whose
// first line holds two records and whose second is blank. The slice
// keeps its line count, so only decoding one record per line catches
// the shift that would misalign every later record.
func TestMergeRefusesSurveyLineWithTwoRecords(t *testing.T) {
	f := cliFlags{survey: true, corpus: 6, siteTrials: 1, seed: 1, jobs: 2, ckptEvery: 4, export: "summary"}
	dirs := writeBundles(t, f, nil)
	path := filepath.Join(dirs[0], "survey.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines[0], lines[1] = strings.TrimSuffix(lines[0], "\n")+lines[1], "\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, export := range []string{"summary", "jsonl=" + filepath.Join(t.TempDir(), "out.jsonl")} {
		f.export, f.mergeDirs = export, strings.Join(dirs, ",")
		out, err := captureStdout(t, func() error { return runMergeMode(&f, nil) })
		if err == nil || !strings.Contains(err.Error(), "survey record 0") {
			t.Errorf("-export %s: merge of a shifted survey slice: err %v, want survey record 0 refused", export, err)
		}
		if out != "" {
			t.Errorf("-export %s: refused merge printed %q", export, out)
		}
	}
}

// TestParseShardSpec pins the -shard grammar: "i/N" with 1 <= i <= N,
// both plain decimal numbers, and nothing around or between them.
func TestParseShardSpec(t *testing.T) {
	for _, c := range []struct {
		spec       string
		idx, count int
	}{
		{"1/1", 0, 1},
		{"1/3", 0, 3},
		{"2/3", 1, 3},
		{"3/3", 2, 3},
		{"10/12", 9, 12},
	} {
		idx, count, err := parseShardSpec(c.spec)
		if err != nil || idx != c.idx || count != c.count {
			t.Errorf("parseShardSpec(%q) = %d, %d, %v; want %d, %d", c.spec, idx, count, err, c.idx, c.count)
		}
	}
	for _, spec := range []string{
		"", "1", "/", "/3", "1/", "1/3/5", "1/3x", "x1/3", "1/ 3", " 1/3", "1 /3", "1/3 ",
		"+1/3", "1/+3", "-1/3", "1/-3", "1.0/3", "a/b", "1:3",
		"0/3", "4/3", "1/0", "0/0",
	} {
		if idx, count, err := parseShardSpec(spec); err == nil {
			t.Errorf("parseShardSpec(%q) = %d, %d; want an error", spec, idx, count)
		}
	}
}
