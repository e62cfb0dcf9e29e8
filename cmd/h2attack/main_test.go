package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
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
