package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// h2traceGolden is the sha256 of each export of seeds 1–3 under each
// adversary mode. Any change to the simulated trial, the attack or an
// exporter shows up here first; rebase the table only on purpose.
var h2traceGolden = []struct {
	seed int64
	mode string
	// records, frames, copies, inferences CSV, then the Perfetto JSON.
	sums [5]string
}{
	{1, "passive", [5]string{
		"9330e98f400cd940f3adf47102f04a8549267b968c525bea0edf75b46861f08a",
		"93cc406f3ef7d4693cfd4da3c2cd77fdee89dd26ca5331cda87cc9fbcdade194",
		"aaea0909dfa327583325c4de7d9568a28e60767ceba836a7d9b0f6dba2ec31dd",
		"59197c143905ddbed674eec4bac9e68ed7a5c42ebab76aab4dcbd15c4970c05e",
		"fd1ac4c87c33def8fdb569f597307cae22bfe2f9ba18627d6135c9ce08ec9ff0",
	}},
	{1, "jitter", [5]string{
		"05b254ce6c55ee5d2b8f43e18004bec86c1884e337898df2fc5e74c3e11f3bd4",
		"278bd37ae5ebba987c42a679687086db52068d57fd77103d75dd143a7d99bdfe",
		"2ca8ace291de87817170e076f9e378a55d669b8646725b0d9bb01a14d4d10bb0",
		"b153e6cbddcf7bce2d6fe630137fd64129238fe51de3faf2daec1dca875feb68",
		"e2c79e9678c5c9980aa2619fafa45d46895754000b9295a5f4a85eda8b6b38c4",
	}},
	{1, "attack", [5]string{
		"eee428a878d4b3ae280479e2e84455030ccb3f44de9c042b713e65b5a082fd10",
		"398ccdb2ae63fe3aa08fe8261693b7002cca58d20cc16c95369a18c640f51c08",
		"9951ec2211aaa9644b1b0a880c83632fd976da67653b8d359b74a2248bd1ef24",
		"f60c12e915fa26b5e040cfa84a2d6ecb21ef8b2b75fb0e3fe5aa5eceff57235a",
		"84d3b5c3965e3f6f5bb53ce683fa9d5f4faa4eade7cf8a3b77a79f512a18f3e5",
	}},
	{2, "passive", [5]string{
		"1be1ffcc52566661bf5e1a551a51f2d2c2f2139d18811e4346320aaaa6432e2b",
		"e28aff8b3c1c5e6b099827321325a44d25506395e7a6a84e00a917a1ea955a54",
		"40049457e523d6ac01b890a9146c0a52fb3261390dcedfc2b05d9698848c935d",
		"e668d335ef7bb985e5200fd51d023c505fa2d127b530b3f935183f3703766dc2",
		"e46ac2b022066528bd0d14cd8d7368ba2c77e7f1da820604da8b2949dba4bf81",
	}},
	{2, "jitter", [5]string{
		"03d287c555bbb681668213bde01704a5004fc62376e6a379abd381b177201e7a",
		"19d132ecaf085d1fadebfee2848bc4b42b77b13426b2f55951c913a5a9404c88",
		"3df716f9ebdca99fae315664720f38f6e3a9fb245e6c0f541f1a66f6781bdb3a",
		"282a874834d5039552eea0a80588513406daab6c32941ad64662a5864d67df27",
		"7f5523669f0d131dd896c6d9579ee1f81afd49d72a8703679b58a33fe5e57b47",
	}},
	{2, "attack", [5]string{
		"d9d164419cb2aab5e369ff6f31946ed74917cc04dfcf41a51cc9985ef158d801",
		"9dc6cd67d37986eaf500554235b204eb8b6cb817048a0077a4827f97d7a33ad2",
		"8726ce298de3ce174bb0ffb4fd49a2db32db4fa47eb57559424a9639f2b74602",
		"b04d92b2db2ad1a6657c00bceac4a7b7db55dcc83b84ecc1183d45bd6a9a85ff",
		"5e84b70ff777bb2ee960d4969fb19ddf4eeac4b188737aad5906242501a84b33",
	}},
	{3, "passive", [5]string{
		"4ddb093129563a1a275522062252c4a11cb6dc1dc072610300d7bb5571070555",
		"a6e56cb6117c228ae01c33c95eeec4ed6034897531aeec1d07a9f0ee1212983c",
		"49eab5c13a4b3fe8e6a9a8e06767721874e48e85916bc0f3e39ef4103e6356d5",
		"5a41c3ee5f3405eadf98edd2a8a30c9af1dd0226713e71150bed0aba287cf946",
		"d380995f867f5ce292a1a890f04f0cdd1cbe7e887b5298b5a8506af4934e4216",
	}},
	{3, "jitter", [5]string{
		"83dfbf740895d77181bb505fae488b5bbb1274cfc8867039675d0b2a4cc73e84",
		"55d0b7955e72b484c43e4c3b0654343212426ef8e8e5849e105c5d27a267ea67",
		"0589fe63d87fc9f63e97aca3b6b3f92d2d1ac8e16dce04abbe6ac75865f53b22",
		"c48a7571dec77e8c0a570fff4ac5dc63c82e79893140bc30e72cb1e275cadaf4",
		"81e5528dfabbe763860ed670a14b8c1d19f673e384becb31f05ca57c3b3b9fd0",
	}},
	{3, "attack", [5]string{
		"007e792c601b3f271ce3f057010b4ee2461426436152fdabf4d2212bf5bff8ca",
		"83420146e3a5a780f77d732f2390b60d97a4a1bbfbe5d7be6ba2b1217da07af3",
		"7be9876eee198c4d7117f9d5fde305ce647370b69f6133c3f05aa35ad79363f9",
		"184ad29cd88c8400803a8ab6c3ee678620226856d1c89a79cbc4ec0b41c03189",
		"8b07a05e0e746d8267273d1b9dd0663415ec00a4247319706a42782ca5c4126c",
	}},
}

func runH2trace(t *testing.T, args ...string) string {
	t.Helper()
	var stdout bytes.Buffer
	if code := run(args, &stdout); code != 0 {
		t.Fatalf("h2trace %s: exit %d", strings.Join(args, " "), code)
	}
	return stdout.String()
}

func fileSum(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
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
