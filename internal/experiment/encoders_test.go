package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/h2sim"
	"repro/internal/website"
)

// randomSurveyResult fills every field from the seeded stream,
// including escape-needing shapes and awkward floats, so the
// equivalence check exercises the full encoder surface.
func randomSurveyResult(rng *rand.Rand) SurveyResult {
	shapes := []string{"flat", "front-loaded", "back-loaded", "shape <&> \"quoted\"", "", "sp lit"}
	degree := []float64{0, 1, 1.5, 63.0 / 7, 1e-7, 2.5e21, float64(rng.Intn(1000)) / 8}
	return SurveyResult{
		SiteSpec: website.SiteSpec{
			Index:      rng.Intn(1 << 20),
			Seed:       rng.Uint64(),
			Objects:    rng.Intn(128),
			Shape:      shapes[rng.Intn(len(shapes))],
			TargetID:   rng.Intn(64),
			TargetSize: rng.Intn(1 << 22),
			TotalBytes: rng.Intn(1 << 28),
		},
		Rep:              rng.Intn(100),
		TrialSeed:        rng.Int63() - rng.Int63(),
		Broken:           rng.Intn(2) == 0,
		PageComplete:     rng.Intn(2) == 0,
		TargetClean:      rng.Intn(2) == 0,
		TargetCleanOrig:  rng.Intn(2) == 0,
		TargetIdentified: rng.Intn(2) == 0,
		TargetDegree:     degree[rng.Intn(len(degree))],
		Success:          rng.Intn(2) == 0,
		Inferences:       rng.Intn(256),
		Identified:       rng.Intn(256),
		Retransmissions:  rng.Intn(64),
		ReRequests:       rng.Intn(16),
		Resets:           rng.Intn(16),
		LoadTimeMs:       degree[rng.Intn(len(degree))] * 100,
	}
}

// randomTrialResult covers nil and populated request logs plus the
// fixed-size emblem arrays.
func randomTrialResult(rng *rand.Rand) TrialResult {
	r := TrialResult{
		Broken:          rng.Intn(4) == 0,
		HTMLCleanAny:    rng.Intn(2) == 0,
		HTMLCleanOrig:   rng.Intn(2) == 0,
		HTMLIdentified:  rng.Intn(2) == 0,
		HTMLDegree:      []float64{0, 1, 2.25, 1e21, 7.0 / 3, -2.5e-7}[rng.Intn(6)],
		Retransmissions: rng.Intn(64),
		ReRequests:      rng.Intn(16),
		Resets:          rng.Intn(16),
		PageComplete:    rng.Intn(2) == 0,
		LoadTime:        time.Duration(rng.Int63n(int64(10 * time.Second))),
	}
	for k := range r.TruthOrder {
		r.TruthOrder[k] = rng.Intn(website.PartyCount)
		r.PredOrder[k] = rng.Intn(website.PartyCount) - 1
		r.ImageClean[k] = rng.Intn(2) == 0
	}
	if rng.Intn(4) > 0 {
		r.Requests = make([]h2sim.RequestLog, rng.Intn(20))
		for k := range r.Requests {
			r.Requests[k] = h2sim.RequestLog{
				Time:     time.Duration(rng.Int63n(int64(time.Minute))),
				ObjectID: rng.Intn(128),
				CopyID:   rng.Intn(8),
				StreamID: []uint32{uint32(rng.Intn(1 << 16)), math.MaxUint32}[rng.Intn(8)/7],
				ReIssue:  rng.Intn(4) == 0,
			}
		}
	}
	return r
}

// TestAppendEncodersMatchJSON is the load-bearing equivalence suite:
// every append encoder must produce byte-identical output to
// json.Marshal for seeded random values, since checkpoint offsets and
// shard concatenation assume the fast path and the reflection path
// are interchangeable.
func TestAppendEncodersMatchJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for n := 0; n < 2000; n++ {
		sr := randomSurveyResult(rng)
		want, err := json.Marshal(sr)
		if err != nil {
			t.Fatalf("json.Marshal(SurveyResult): %v", err)
		}
		got, err := AppendSurveyResult(nil, sr)
		if err != nil {
			t.Fatalf("AppendSurveyResult: %v", err)
		}
		if string(got) != string(want) {
			t.Fatalf("SurveyResult drift:\n got %s\nwant %s", got, want)
		}

		tr := randomTrialResult(rng)
		want, err = json.Marshal(tr)
		if err != nil {
			t.Fatalf("json.Marshal(TrialResult): %v", err)
		}
		got, err = AppendTrialResult(nil, tr)
		if err != nil {
			t.Fatalf("AppendTrialResult: %v", err)
		}
		if string(got) != string(want) {
			t.Fatalf("TrialResult drift:\n got %s\nwant %s", got, want)
		}
		// The decoder inverts the encoder exactly, nil and empty
		// Requests included (DeepEqual tells them apart).
		dec, err := DecodeTrialResults(bytes.NewReader(append(got, '\n')), 1)
		if err != nil {
			t.Fatalf("DecodeTrialResults(%s): %v", got, err)
		}
		if !reflect.DeepEqual(dec[0], tr) {
			t.Fatalf("TrialResult round trip:\n got %+v\nwant %+v", dec[0], tr)
		}
	}
}

// TestAppendEncodersRejectBadFloats pins the error path: NaN degrees
// must surface as encode errors (aborting the campaign), not corrupt
// lines.
func TestAppendEncodersRejectBadFloats(t *testing.T) {
	if _, err := AppendSurveyResult(nil, SurveyResult{TargetDegree: math.NaN()}); err == nil {
		t.Fatal("AppendSurveyResult: want error for NaN TargetDegree")
	}
	if _, err := AppendTrialResult(nil, TrialResult{HTMLDegree: math.Inf(1)}); err == nil {
		t.Fatal("AppendTrialResult: want error for +Inf HTMLDegree")
	}
}

// TestAppendLineZeroAllocs pins the steady-state allocation contract
// of the export fast path: appending a line into a pre-grown buffer
// allocates nothing.
func TestAppendLineZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sr := randomSurveyResult(rng)
	tr := randomTrialResult(rng)
	if tr.Requests == nil {
		tr.Requests = make([]h2sim.RequestLog, 4)
	}
	buf := make([]byte, 0, 1<<16)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = AppendSurveyResultLine(buf[:0], 0, CorpusTrialParams{}, sr)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendSurveyResultLine allocates %.1f/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		var err error
		buf, err = AppendTrialResultLine(buf[:0], 0, TrialParams{}, tr)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendTrialResultLine allocates %.1f/op, want 0", allocs)
	}
}

// extremeTrialResult sits on the edges of every number the decoder
// reads: int64 and uint32 limits, negative ints, exponent-form and
// negative-zero floats, and an empty (not nil) request log.
func extremeTrialResult() TrialResult {
	r := TrialResult{
		HTMLDegree:      math.Copysign(0, -1),
		Retransmissions: math.MaxInt,
		ReRequests:      math.MinInt,
		Resets:          -1,
		LoadTime:        math.MinInt64,
		Requests:        []h2sim.RequestLog{},
	}
	for k := range r.TruthOrder {
		r.TruthOrder[k] = -k
		r.PredOrder[k] = k * 1000003
	}
	return r
}

// canonicalTrialLine is the refusal table's base line: every field
// distinct enough that a mutation can name it.
func canonicalTrialLine(t testing.TB) string {
	r := TrialResult{
		HTMLCleanOrig:   true,
		HTMLDegree:      1.5,
		TruthOrder:      [website.PartyCount]int{7, 6, 5, 4, 3, 2, 1, 0},
		PredOrder:       [website.PartyCount]int{7, 6, 5, 4, 3, 2, 1, -1},
		ImageClean:      [website.PartyCount]bool{true},
		Retransmissions: 12,
		ReRequests:      0,
		Resets:          2,
		LoadTime:        4 * time.Second,
		Requests:        []h2sim.RequestLog{{Time: 5, ObjectID: 1, StreamID: 3}},
	}
	line, err := AppendTrialResult(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	return string(line) + "\n"
}

// TestDecodeTrialResultsRefusesNonCanonical pins the accept-only-what-
// we-write contract: each non-canonical form is refused with the
// record index and the byte offset of the first offending byte, many
// of them forms encoding/json would have accepted.
func TestDecodeTrialResultsRefusesNonCanonical(t *testing.T) {
	line := canonicalTrialLine(t)
	if _, err := DecodeTrialResults(strings.NewReader(line), 1); err != nil {
		t.Fatalf("canonical line refused: %v", err)
	}
	// mut replaces the first old in line; after is the offset just
	// past old in the canonical line.
	mut := func(old, new string) string {
		if !strings.Contains(line, old) {
			t.Fatalf("base line has no %q", old)
		}
		return strings.Replace(line, old, new, 1)
	}
	after := func(old string) int { return strings.Index(line, old) + len(old) }
	end := len(line) - 1 // offset of the newline
	cases := []struct {
		name string
		bad  string
		at   int
	}{
		{"space after colon", mut(`"Broken":`, `"Broken": `), after(`"Broken":`)},
		{"leading space", " " + line, 0},
		{"reordered keys", mut(`"HTMLCleanAny":false,"HTMLCleanOrig":true`, `"HTMLCleanOrig":true,"HTMLCleanAny":false`), after(`"HTMLClean`)},
		{"unknown key", mut(`{"Broken"`, `{"Extra":1,"Broken"`), 2},
		{"case-folded key", mut(`"Resets"`, `"resets"`), strings.Index(line, `"Resets"`) + 1},
		{"leading zero", mut(`"Resets":2`, `"Resets":02`), after(`"Resets":`) + 1},
		{"negative zero", mut(`"ReRequests":0`, `"ReRequests":-0`), after(`"ReRequests":`)},
		{"plus sign", mut(`"Resets":2`, `"Resets":+2`), after(`"Resets":`)},
		{"int as float", mut(`"Resets":2`, `"Resets":2.0`), after(`"Resets":2`)},
		{"float trailing zero", mut(`"HTMLDegree":1.5`, `"HTMLDegree":1.50`), after(`"HTMLDegree":`)},
		{"float exponent form", mut(`"HTMLDegree":1.5`, `"HTMLDegree":15e-1`), after(`"HTMLDegree":`)},
		{"float out of range", mut(`"HTMLDegree":1.5`, `"HTMLDegree":1e999`), after(`"HTMLDegree":`)},
		{"uint32 out of range", mut(`"StreamID":3`, `"StreamID":4294967296`), after(`"StreamID":`)},
		{"negative uint32", mut(`"StreamID":3`, `"StreamID":-3`), after(`"StreamID":`)},
		{"int64 out of range", mut(`"LoadTime":4000000000`, `"LoadTime":9223372036854775808`), after(`"LoadTime":`)},
		{"short array", mut(`1,0],"PredOrder"`, `1],"PredOrder"`), after(`"TruthOrder":[7,6,5,4,3,2,1`)},
		{"long array", mut(`1,0],"PredOrder"`, `1,0,9],"PredOrder"`), after(`"TruthOrder":[7,6,5,4,3,2,1,0`)},
		{"bool as number", mut(`"Broken":false`, `"Broken":0`), after(`"Broken":`)},
		{"string for number", mut(`"Resets":2`, `"Resets":"2"`), after(`"Resets":`)},
		{"Requests object", mut(`"Requests":[`, `"Requests":{`), after(`"Requests":`)},
		{"Requests trailing comma", mut(`false}]}`, `false},]}`), after(`"ReIssue":false}`) + 1},
		{"trailing bytes", mut("}\n", "} \n"), end},
		{"CRLF", mut("}\n", "}\r\n"), end},
		{"two records on a line", line[:end] + line, end},
		{"missing newline", line[:end], end},
		{"truncated", line[:end-10], end - 10},
		{"blank line", "\n", 0},
	}
	for _, c := range cases {
		_, err := DecodeTrialResults(strings.NewReader(c.bad), 1)
		if err == nil {
			t.Errorf("%s: accepted %q", c.name, c.bad)
			continue
		}
		if want := fmt.Sprintf("trial record 0 at byte %d:", c.at); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q, want it to contain %q", c.name, err, want)
		}
	}

	// Offsets count from the start of the stream, records from 0.
	bad := line + mut(`"Broken":`, `"Broken": `)
	_, err := DecodeTrialResults(strings.NewReader(bad), 2)
	if want := fmt.Sprintf("trial record 1 at byte %d:", len(line)+after(`"Broken":`)); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("second record: error %v, want it to contain %q", err, want)
	}
	// The record count is exact both ways.
	for _, n := range []int{1, 3} {
		if _, err := DecodeTrialResults(strings.NewReader(line+line), n); err == nil {
			t.Errorf("two records decoded as %d", n)
		}
	}
}

// TestDecodeTrialResultAllocs pins the decoder's allocation contract:
// a line costs at most its Requests backing array, and a null or empty
// request log costs nothing.
func TestDecodeTrialResultAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := randomTrialResult(rng)
	tr.Requests = make([]h2sim.RequestLog, 40)
	for _, c := range []struct {
		reqs []h2sim.RequestLog
		max  float64
	}{{tr.Requests, 1}, {nil, 0}, {[]h2sim.RequestLog{}, 0}} {
		tr.Requests = c.reqs
		line, err := AppendTrialResult(nil, tr)
		if err != nil {
			t.Fatal(err)
		}
		line = append(line, '\n')
		var d trialDecoder
		var r TrialResult
		allocs := testing.AllocsPerRun(200, func() {
			if err := d.decode(line, &r); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.max {
			t.Fatalf("decoding a line with %d requests allocates %.1f/op, want <= %.0f", len(c.reqs), allocs, c.max)
		}
	}
}

// FuzzDecodeTrialResult feeds arbitrary bytes to the decoder: it must
// refuse or accept, never panic, and what it accepts must be exactly
// one canonical line — AppendTrialResult re-encodes it to the same
// bytes and encoding/json decodes it to the same value.
func FuzzDecodeTrialResult(f *testing.F) {
	w := NewWorld()
	seeds := []TrialResult{
		w.RunTrial(tableIIDef(1, 1).Params(0)),
		{},
		{Requests: []h2sim.RequestLog{}},
		extremeTrialResult(),
		{HTMLDegree: 1e21, Requests: []h2sim.RequestLog{{Time: -1, ObjectID: -2, CopyID: 3, StreamID: math.MaxUint32, ReIssue: true}}},
		{HTMLDegree: 2.5e-7, PredOrder: [website.PartyCount]int{-1, -1}},
	}
	for _, r := range seeds {
		line, err := AppendTrialResult(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		line = append(line, '\n')
		if _, err := DecodeTrialResults(bytes.NewReader(line), 1); err != nil {
			f.Fatalf("seed %s refused: %v", line, err)
		}
		f.Add(line)
	}
	f.Add([]byte(canonicalTrialLine(f)))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeTrialResults(bytes.NewReader(data), 1)
		if err != nil {
			return
		}
		line, err := AppendTrialResult(nil, res[0])
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		if !bytes.Equal(append(line, '\n'), data) {
			t.Fatalf("accepted %q, re-encodes as %q", data, line)
		}
		var want TrialResult
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("accepted %q, encoding/json refuses it: %v", data, err)
		}
		if !reflect.DeepEqual(res[0], want) {
			t.Fatalf("decoded %+v, encoding/json decodes %+v", res[0], want)
		}
	})
}
