package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// h2traceGolden is the sha256 of each export of seeds 1–3 under each
// adversary mode. Any change to the simulated trial, the attack or an
// exporter shows up here first; rebase the table only on purpose. The
// attack rows' Perfetto digests equal singleTrialPins' trace digests.
var h2traceGolden = []struct {
	seed int64
	mode string
	// records, frames, copies, inferences CSV, then the Perfetto JSON.
	sums [5]string
}{
	{1, "passive", [5]string{
		"404c59afd037f290bfa94cb8140f976ad200e6051f29b0dbc39b54ac2ae61420",
		"063e1d568b861aa67d7f5e41578b2867324bdb960dfe7aa4c60648779110f89b",
		"b0d2fa38357f700bd2429c2dc9de666c31757a57c5de113d51493c81a6e8761b",
		"dd9a5cfde05a663819efe1b2648fac48bbac37fb81f0d9cd39d8f661cd90f2d7",
		"ad2d6119bd9f0aba85054734fe121330fd14036ddf3aabd6aedc9c587ab7df90",
	}},
	{1, "jitter", [5]string{
		"4ef656687bab8e3214a8cda6a8850c7808f779b4d50d3964bb8a7f837cacac7b",
		"4ed139cd9ee4a103c62929d478836416aabd7a7e27147d0dda2ae1ff7fdf453a",
		"96f2a885a056c00011fba65ea8ae64e09311db6fd28faffa09a170b9f20d74a1",
		"60adc19a21b135778348f8b1194ca7c8f68b7bad01768f0d7b93e8b6385a0c0b",
		"b9808a8447a67e61808fd168e245049bdd6a38d880d0a14325a3c2f95b65274e",
	}},
	{1, "attack", [5]string{
		"349e616c0731061bff93ce40539ced6220fef6f4af69b6b2219ddd7aba6ca27e",
		"50939dc24c6c2c6b30de5226fcf2ef8308855ea3dddbf9fdbb621d3167d0af0c",
		"25cff752ba8f6ecf3fe56180cec3aa6dc8756dcdd61f49c8511a47da9c6b9d91",
		"740a8c2cfca0ded3f4da0cdab1a8ee73f2f02d0caac9a4fa27b6c68ae7580e60",
		"55cbca988b20c3a7c53b1b301d77229b7e1e805efb0f0568edb009090e681eb3",
	}},
	{2, "passive", [5]string{
		"866279606a6395cc9b6fc42c02b803badee9502f6bc7bc658a6c920e4af1db60",
		"7528689bf6c65029dd35c9f4e3943a7e9017d948e09dea6eb5c3cdb96cd82285",
		"41da9b91b19d7dc676641da3490e92ddc59ded2ca9c68fc4386a2c804a171ece",
		"fa516c8edb7a0f0ad0082eadef278b932e9c3d58faba8337d08d4c542b776e98",
		"471211a95cee82bf8d0e467a087de2be592d7b5e36ae76431e79803704c1f511",
	}},
	{2, "jitter", [5]string{
		"360bdea717ab00c8929dba41691fa0501e4f71e6e9884b42170db86e832542e1",
		"b9bdbf91622fb57f3661396c9f032769a81b172ef04bc06c393770543e5fdd48",
		"0466625edd44067460833f9f911b268eefeb389eaaa05c535fcf936dc59be5d8",
		"aaeac9f494836ccab00432a8c2ddefee85bd5609423b295bbb86150feb2a50a3",
		"b517b517d04c3c9dcffed0a796fb9f8c286beee387a8e807671605236dbe7df7",
	}},
	{2, "attack", [5]string{
		"75fe4c20b334b93a462790f4288ff2120ed713fcf2d4dfd07fed5b76437b9c22",
		"694c16d4d9e55df2072e02c0da9ab636af45ff01fdf0b7c386a632fb45313435",
		"e7d4bc0f650f5c2977b88c0787e2c423893b27abbb8e7704ba45575cc3dfc97a",
		"b5745410b03b7a227e0008687321fee6c8052785fc6f08800793592bef0ae2fb",
		"7f0a0b6b81b5fd2b2f89e9e9c473f1872634ef950693ae6154789e2d0de29aaa",
	}},
	{3, "passive", [5]string{
		"055b9a7cdabd8142790f7144f12fdd95d0b94b8747f28407158ff5b6bceb885d",
		"fd7602444ff9dd3128bb96f4389e29b3737f817c6b3b6798766164881eefb540",
		"3a1df7a2a714f79f6b52214d84cae3d132b2fce1ba1aaa2014fae98486a6e2bb",
		"e36fa8c6fbb442dec8c2460424c5bd2327fa958e44a76d8ccb68f457c983a709",
		"c92973f805d9b6ca21b2bdabcd26e1ab66992cbce324be8c5b76727aa9c1fd7b",
	}},
	{3, "jitter", [5]string{
		"31a9abc3e9e3a66eec60cd647f0c0fd7180011c1e531d54096c9ef77884fd5b9",
		"0cf8de9fd56148ff1dfc0c87b8fa140582a0c313690b684819751dea8684e7e2",
		"9bfbb19d15bdf9f5789fe29715cf0d2262e364c0460a8bc961b27a0896f43a3d",
		"658187ffc3f7bc8addcda2484d24a9d4c365d8cc72d8e09b72ae63e382416795",
		"a8d9ae02e771a0778da0d138ef9173459a7c75a687d60db42e7addc6f040f4ad",
	}},
	{3, "attack", [5]string{
		"5788003f379fdb0d97c6a812a68ad9ded901a5dbd2b39a193bc6c90b2222969c",
		"8840c0a0e9af91fdd80b810985a0ff3bd9ae9163aaa28fedcc85ad89b8ba581b",
		"120dbf39ba195c4ca26c73477c24ea4639b1fee1471e1f8cd8ffcb9b0493e85b",
		"ca46c61eab5a1b37f1618a9cd34fc3509dc3d8977897fa55f8bc55ac26dc42a5",
		"efc0225330e23db1f44203871a20dd7d89ee64513b2b4e2995e107f969af6d7c",
	}},
}

// singleTrialPins is the sha256 of each -mode attack single-trial
// output of seeds 1–3: the -format events and -format trial stdout and
// the -format perfetto file. They are the digests of the outputs
// h2attack -events N, -trial -seed N and -events-trace printed before
// those flags moved here, and must not move.
var singleTrialPins = []struct {
	seed                 int64
	events, trial, trace string
}{
	{1,
		"a3d9436666d5d2cbc02b2b9990373e50019f892d7328e17db3f6ec5a1839b55c",
		"3a6d2bb84e5f5205b4415e1d4f858ec3398cf7cda42776ae3a7d72b5fd2db1a6",
		"55cbca988b20c3a7c53b1b301d77229b7e1e805efb0f0568edb009090e681eb3"},
	{2,
		"83be2d0c3843d2721c09b2c41c7c8b246561573590101c499f30ac2f820a82aa",
		"b1424b11b2ec231736bf81174710551a52be1661e9fae26331b758218d6fc291",
		"7f0a0b6b81b5fd2b2f89e9e9c473f1872634ef950693ae6154789e2d0de29aaa"},
	{3,
		"5ebc21e11420bed5021a75634aa46ae87ea72c9dd21ff232c6b3ecc38df3bf50",
		"31f5900556fc93ffaa253e0278dd275760726bc2938e94c4a164f35d7335eb84",
		"efc0225330e23db1f44203871a20dd7d89ee64513b2b4e2995e107f969af6d7c"},
}

func runH2trace(t *testing.T, args ...string) string {
	t.Helper()
	var stdout bytes.Buffer
	if code := run(args, &stdout); code != 0 {
		t.Fatalf("h2trace %s: exit %d", strings.Join(args, " "), code)
	}
	return stdout.String()
}

func sum(data []byte) string {
	s := sha256.Sum256(data)
	return hex.EncodeToString(s[:])
}

func fileSum(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sum(data)
}

// TestH2traceGolden runs every pinned (seed, mode) pair in both export
// formats and checks each file's digest and the exact stdout, which
// lists the CSV files in a fixed order.
func TestH2traceGolden(t *testing.T) {
	for _, g := range h2traceGolden {
		t.Run(fmt.Sprintf("seed%d-%s", g.seed, g.mode), func(t *testing.T) {
			prefix := filepath.Join(t.TempDir(), "trace")
			seed := fmt.Sprint(g.seed)
			names := []string{prefix + "-records.csv", prefix + "-frames.csv", prefix + "-copies.csv", prefix + "-inferences.csv"}

			stdout := runH2trace(t, "-seed", seed, "-mode", g.mode, "-out", prefix)
			want := ""
			for _, name := range names {
				want += "wrote " + name + "\n"
			}
			if stdout != want {
				t.Errorf("csv stdout = %q, want %q", stdout, want)
			}

			stdout = runH2trace(t, "-seed", seed, "-mode", g.mode, "-format", "perfetto", "-out", prefix)
			if want := "wrote " + prefix + ".json\n"; stdout != want {
				t.Errorf("perfetto stdout = %q, want %q", stdout, want)
			}

			for i, name := range append(names, prefix+".json") {
				if got := fileSum(t, name); got != g.sums[i] {
					t.Errorf("%s: sha256 %s, want %s", filepath.Base(name), got, g.sums[i])
				}
			}
		})
	}
}

// TestH2traceStdoutExports checks that "-out -" writes exactly what
// the file exports hold: the records CSV, or the Perfetto JSON.
func TestH2traceStdoutExports(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "trace")
	runH2trace(t, "-seed", "2", "-out", prefix)
	runH2trace(t, "-seed", "2", "-format", "perfetto", "-out", prefix)
	for _, c := range []struct {
		file string
		args []string
	}{
		{prefix + "-records.csv", []string{"-seed", "2", "-out", "-"}},
		{prefix + ".json", []string{"-seed", "2", "-format", "perfetto", "-out", "-"}},
	} {
		want, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		if got := runH2trace(t, c.args...); got != string(want) {
			t.Errorf("h2trace %s: stdout differs from %s", strings.Join(c.args, " "), filepath.Base(c.file))
		}
	}
}

func TestH2traceUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "bogus"},
		{"-format", "xml"},
		{"-no-such-flag"},
	} {
		var stdout bytes.Buffer
		if code := run(args, &stdout); code != 2 {
			t.Errorf("h2trace %s: exit %d, want 2", strings.Join(args, " "), code)
		}
	}
}

// TestH2traceKeepsSingleTrialPins runs -mode attack in the events,
// trial and perfetto formats and checks each output against
// singleTrialPins.
func TestH2traceKeepsSingleTrialPins(t *testing.T) {
	for _, p := range singleTrialPins {
		seed := fmt.Sprint(p.seed)
		if got := sum([]byte(runH2trace(t, "-seed", seed, "-mode", "attack", "-format", "events"))); got != p.events {
			t.Errorf("seed %d: events sha256 %s, want %s", p.seed, got, p.events)
		}
		if got := sum([]byte(runH2trace(t, "-seed", seed, "-mode", "attack", "-format", "trial"))); got != p.trial {
			t.Errorf("seed %d: trial sha256 %s, want %s", p.seed, got, p.trial)
		}
		trace := filepath.Join(t.TempDir(), "trial.json")
		runH2trace(t, "-seed", seed, "-mode", "attack", "-format", "perfetto", "-out", trace)
		if got := fileSum(t, trace); got != p.trace {
			t.Errorf("seed %d: perfetto sha256 %s, want %s", p.seed, got, p.trace)
		}
	}
}

// TestH2traceModesAreCampaignTrials pins which trial each mode
// replays: passive is Table I's 0 ms column trial, jitter its 50 ms
// column trial, and attack Table II's trial, at the same seed. The
// events and trial headers name the mode.
func TestH2traceModesAreCampaignTrials(t *testing.T) {
	const trials, seed0 = 3, 11
	sweeps := map[string][]experiment.TrialResult{}
	for _, d := range experiment.Sweeps(trials, seed0) {
		if d.Name == "table1" || d.Name == "table2" {
			sweeps[d.Name] = d.Run()
		}
	}
	for _, c := range []struct {
		mode, sweep string
		column      int
		header      string
	}{
		{"passive", "table1", 0, "passive eavesdropper"},
		{"jitter", "table1", 2, "50ms request jitter"},
		{"attack", "table2", 0, "full paper attack"},
	} {
		for i := 0; i < trials; i++ {
			seed := seed0 + int64(i)
			p := modes[c.mode].params
			p.Seed = seed
			_, rec, got := replay(p)
			if want := sweeps[c.sweep][c.column*trials+i]; !reflect.DeepEqual(got, want) {
				t.Errorf("-mode %s -seed %d = %+v, want %s's trial %+v", c.mode, seed, got, c.sweep, want)
			}
			if len(rec.Events()) == 0 {
				t.Errorf("-mode %s -seed %d recorded no events", c.mode, seed)
			}
		}
		events := runH2trace(t, "-mode", c.mode, "-format", "events")
		if want := "seed 1: flight recorder, " + c.header + " ("; !strings.HasPrefix(events, want) {
			t.Errorf("-mode %s -format events header %q, want prefix %q", c.mode, strings.SplitN(events, "\n", 2)[0], want)
		}
		trial := runH2trace(t, "-mode", c.mode, "-format", "trial")
		if want := "seed 1: " + c.header + " on the survey site\n"; !strings.HasPrefix(trial, want) {
			t.Errorf("-mode %s -format trial header %q, want %q", c.mode, strings.SplitN(trial, "\n", 2)[0], want)
		}
	}
}

// TestH2traceREADMETableMatchesFlags keeps README's cmd/h2trace table
// in step with the command: every registered flag has a row, every row
// names a registered flag, and the -mode and -format rows list exactly
// the values run accepts.
func TestH2traceREADMETableMatchesFlags(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(string(data), "`cmd/h2trace` — ")
	if !ok {
		t.Fatal("README has no cmd/h2trace flag table")
	}
	table, _, _ := strings.Cut(after, "\n## ")
	flagName := regexp.MustCompile("^`-([a-z0-9-]+)")
	value := regexp.MustCompile("`([a-z]+)`")
	documented := map[string][]string{} // flag name -> the values its meaning cell lists
	for _, line := range strings.Split(table, "\n") {
		// Cells: "", flag, default, meaning, ""; an escaped \| stays
		// inside its cell.
		cells := strings.Split(strings.ReplaceAll(line, `\|`, "/"), "|")
		if len(cells) != 5 {
			continue
		}
		m := flagName.FindStringSubmatch(strings.TrimSpace(cells[1]))
		if m == nil {
			continue
		}
		documented[m[1]] = []string{}
		for _, v := range value.FindAllStringSubmatch(cells[3], -1) {
			documented[m[1]] = append(documented[m[1]], v[1])
		}
		sort.Strings(documented[m[1]])
	}

	fs := flag.NewFlagSet("h2trace", flag.ContinueOnError)
	defineFlags(fs)
	var registered, rows []string
	fs.VisitAll(func(f *flag.Flag) { registered = append(registered, f.Name) })
	for name := range documented {
		rows = append(rows, name)
	}
	sort.Strings(rows)
	if !reflect.DeepEqual(rows, registered) {
		t.Errorf("README rows %v, registered flags %v", rows, registered)
	}

	wantModes := []string{}
	for m := range modes {
		wantModes = append(wantModes, m)
	}
	wantFormats := slices.Clone(formats)
	sort.Strings(wantModes)
	sort.Strings(wantFormats)
	if got := documented["mode"]; !reflect.DeepEqual(got, wantModes) {
		t.Errorf("README -mode row lists %v, want %v", got, wantModes)
	}
	if got := documented["format"]; !reflect.DeepEqual(got, wantFormats) {
		t.Errorf("README -format row lists %v, want %v", got, wantFormats)
	}
}
