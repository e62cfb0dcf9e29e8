package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// TestTrialsBelowOneIsUsageError pins that a sweep with fewer than one
// trial per configuration is refused as a usage error (exit 2) before
// anything runs, instead of printing tables of NaN% cells.
func TestTrialsBelowOneIsUsageError(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-table1", "-trials", "0"},
		{"-all", "-trials", "-3"},
		{"-table2", "-trials", "0", "-shard", "1/2", "-shard-dir", filepath.Join(dir, "b1")},
	} {
		if code := run(args); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("refused runs left files behind: %v (err %v)", entries, err)
	}
}

// TestSurveyFlagsMeanWhatTheySay pins two -survey flags to their
// help text: -site-trials below 1 is refused as a usage error (exit 2)
// instead of running one repetition, and -seed 0 runs trial seeds 0,
// 1, … ("trial i uses seed+i") instead of starting at 1.
func TestSurveyFlagsMeanWhatTheySay(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []string{"0", "-3"} {
		args := []string{"-survey", "-corpus", "2", "-site-trials", n}
		var code int
		stderr, _ := captureStream(t, &os.Stderr, func() error { code = run(args); return nil })
		if code != 2 || !strings.HasPrefix(stderr, "h2attack: -site-trials must be at least 1") {
			t.Errorf("run(%q) = %d printing %q, want 2 and a message naming -site-trials", args, code, stderr)
		}
	}
	jsonl := filepath.Join(dir, "s.jsonl")
	args := []string{"-survey", "-corpus", "2", "-seed", "0", "-j", "1", "-export", "jsonl=" + jsonl}
	var code int
	captureStream(t, &os.Stdout, func() error { code = run(args); return nil })
	if code != 0 {
		t.Fatalf("run(%q) = %d, want 0", args, code)
	}
	data, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	for i, line := range lines {
		if want := fmt.Sprintf(`"trial_seed":%d,`, i); !strings.Contains(line, want) {
			t.Errorf("-seed 0: line %d = %s, want %s", i+1, line, want)
		}
	}
	if len(lines) != 2 {
		t.Errorf("-seed 0: %d JSONL lines, want 2", len(lines))
	}
}

// TestCheckpointBoundsAreUsageErrors pins that a -checkpoint-every
// below 1 or a -max-trials below 0 is refused as a usage error (exit
// 2) before anything runs, instead of silently meaning the default
// interval or no limit.
func TestCheckpointBoundsAreUsageErrors(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck.json")
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-checkpoint-every", []string{"-survey", "-corpus", "2", "-checkpoint", ck, "-checkpoint-every", "0"}},
		{"-checkpoint-every", []string{"-survey", "-corpus", "2", "-checkpoint", ck, "-checkpoint-every", "-1"}},
		{"-checkpoint-every", []string{"-table1", "-trials", "2", "-checkpoint-every", "-5", "-shard", "1/2", "-shard-dir", filepath.Join(dir, "b1")}},
		{"-max-trials", []string{"-survey", "-corpus", "2", "-checkpoint", ck, "-max-trials", "-2"}},
		{"-max-trials", []string{"-table1", "-trials", "2", "-max-trials", "-1"}},
	} {
		var code int
		stderr, _ := captureStream(t, &os.Stderr, func() error { code = run(c.args); return nil })
		if code != 2 {
			t.Errorf("run(%q) = %d, want 2", c.args, code)
		}
		if !strings.HasPrefix(stderr, "h2attack: "+c.flag+" must be at least") {
			t.Errorf("run(%q) printed %q, want a message naming %s", c.args, stderr, c.flag)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("refused runs left files behind: %v (err %v)", entries, err)
	}
}

// TestSweepsIgnoreMaxTrials pins that -max-trials, which bounds a
// checkpointed survey or shard run, leaves a single-process sweep
// whole: an in-memory sweep cannot resume, so a bounded one would
// format a table from part of its trials.
func TestSweepsIgnoreMaxTrials(t *testing.T) {
	var outs [2]string
	for i, args := range [][]string{
		{"-table2", "-trials", "3", "-j", "1"},
		{"-table2", "-trials", "3", "-max-trials", "1", "-j", "1"},
	} {
		var code int
		outs[i], _ = captureStream(t, &os.Stdout, func() error { code = run(args); return nil })
		if code != 0 {
			t.Fatalf("run(%q) = %d, want 0", args, code)
		}
	}
	if outs[0] != outs[1] {
		t.Errorf("-max-trials 1 changed the Table II output:\n%s\nwant:\n%s", outs[1], outs[0])
	}
}

// TestModeErrorsNameTheFlagOnce pins that a -shard or -merge error is
// printed with the flag's name once, not "-shard: -shard: ...".
func TestModeErrorsNameTheFlagOnce(t *testing.T) {
	dir := t.TempDir()
	bundles := writeBundles(t, cliFlags{jobs: 1, ckptEvery: 4}, experiment.Sweeps(1, 1)[4:5])
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-table1", "-shard", "0/2", "-shard-dir", dir}, "h2attack: -shard: index 0 outside 1..2\n"},
		{[]string{"-table1", "-shard", "2", "-shard-dir", dir}, "h2attack: -shard: want i/N (e.g. 2/3), got \"2\"\n"},
		{[]string{"-table1", "-shard", "1/2"}, "h2attack: -shard: requires -shard-dir DIR (the bundle output directory)\n"},
		{[]string{"-shard", "1/2", "-shard-dir", dir}, "h2attack: -shard: no campaigns selected (add -table1..-defenses, -all, or -survey)\n"},
		{[]string{"-merge", strings.Join(bundles, ",")}, "h2attack: -merge: no campaigns selected (add the same campaign flags the shards ran with)\n"},
	} {
		var code int
		stderr, _ := captureStream(t, &os.Stderr, func() error { code = run(c.args); return nil })
		if code != 1 || stderr != c.want {
			t.Errorf("run(%q) = %d, printed %q; want 1, %q", c.args, code, stderr, c.want)
		}
	}
}

// TestREADMEFlagTableMatchesFlags keeps README's cmd/h2attack flag
// table in step with the flags the command registers: every flag has a
// row and every row names a registered flag.
func TestREADMEFlagTableMatchesFlags(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(string(data), "`cmd/h2attack` — ")
	if !ok {
		t.Fatal("README has no cmd/h2attack flag table")
	}
	table, _, _ := strings.Cut(after, "\n\n`cmd/")
	flagName := regexp.MustCompile("`-([a-z0-9-]+)")
	documented := map[string]bool{}
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "| `-") {
			continue
		}
		first, _, _ := strings.Cut(strings.TrimPrefix(line, "|"), "|")
		for _, m := range flagName.FindAllStringSubmatch(first, -1) {
			documented[m[1]] = true
		}
	}

	fs := flag.NewFlagSet("h2attack", flag.ContinueOnError)
	defineFlags(fs)
	registered := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { registered[f.Name] = true })

	var missing, stale []string
	for name := range registered {
		if !documented[name] {
			missing = append(missing, "-"+name)
		}
	}
	for name := range documented {
		if !registered[name] {
			stale = append(stale, "-"+name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("flags without a README row: %v", missing)
	}
	if len(stale) > 0 {
		t.Errorf("README rows for unregistered flags: %v", stale)
	}
}
