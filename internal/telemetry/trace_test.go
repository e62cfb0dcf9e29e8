package telemetry

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/obs"
)

// traceDoc mirrors the trace_event JSON-object format for decoding
// in tests.
type traceDoc struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Name string         `json:"name"`
	S    string         `json:"s"`
	Args map[string]any `json:"args"`
}

// sampleEvents builds a plausible trial ring exercising every span
// reconstruction: a completed download, a refetched download, attack
// phase boundaries, reset rounds, and instants on all five layers.
func sampleEvents() []obs.Event {
	ms := func(n int64) time.Duration { return time.Duration(n) * time.Millisecond }
	return []obs.Event{
		{At: ms(1), Kind: obs.EvH2Request, A: 1, B: 10},
		{At: ms(2), Kind: obs.EvNetemDrop, A: 0, B: 1460},
		{At: ms(3), Kind: obs.EvTCPFastRetx, A: 4096, B: 8192},
		{At: ms(5), Kind: obs.EvH2ObjComplete, A: 10, B: 30000},
		{At: ms(6), Kind: obs.EvAtkPhase, A: 2},
		{At: ms(7), Kind: obs.EvH2Request, A: 3, B: 11},
		{At: ms(8), Kind: obs.EvH2Stall, A: 1},
		{At: ms(9), Kind: obs.EvH2ResetRound, A: 1, B: 1},
		{At: ms(10), Kind: obs.EvH2Refetch, A: 11},
		{At: ms(11), Kind: obs.EvH2Request, A: 5, B: 11},
		{At: ms(12), Kind: obs.EvTCPTimeoutRetx, A: 9000, B: 1},
		{At: ms(14), Kind: obs.EvH2ResetRound, A: 1, B: 2},
		{At: ms(15), Kind: obs.EvAtkPhase, A: 3},
		{At: ms(16), Kind: obs.EvPredRun, A: 30000, B: 10},
		{At: ms(17), Kind: obs.EvH2SrvDupCopy, A: 11, B: 1},
	}
}

// TestAppendTraceValidJSON pins the acceptance criterion: the output
// is valid trace_event JSON with one named track per layer.
func TestAppendTraceValidJSON(t *testing.T) {
	out := AppendTrace(nil, sampleEvents(), "seed 7")
	var doc traceDoc
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, out)
	}
	tracks := map[int]string{}
	var processName string
	for _, e := range doc.TraceEvents {
		if e.Ph != "M" {
			continue
		}
		switch e.Name {
		case "thread_name":
			tracks[e.Tid] = e.Args["name"].(string)
		case "process_name":
			processName = e.Args["name"].(string)
		}
	}
	want := map[int]string{1: "netem", 2: "tcp", 3: "h2", 4: "attack", 5: "predictor"}
	if len(tracks) != len(want) {
		t.Fatalf("got %d named tracks %v, want %d", len(tracks), tracks, len(want))
	}
	for tid, name := range want {
		if tracks[tid] != name {
			t.Errorf("tid %d named %q, want %q", tid, tracks[tid], name)
		}
	}
	if processName != "h2attack seed 7" {
		t.Errorf("process name %q", processName)
	}
}

// TestAppendTraceSpans verifies the duration reconstruction: the
// request→complete pair becomes one X span of the right length and
// track, phases and reset rounds tile the timeline, and non-paired
// events appear as thread-scoped instants on their layer's track.
func TestAppendTraceSpans(t *testing.T) {
	out := AppendTrace(nil, sampleEvents(), "seed 7")
	var doc traceDoc
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatal(err)
	}

	var spans, instants []traceEvent
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			if e.Dur < 0 {
				t.Errorf("span %q has negative dur %v", e.Name, e.Dur)
			}
			spans = append(spans, e)
		case "i":
			if e.S != "t" {
				t.Errorf("instant %q scope %q, want thread", e.Name, e.S)
			}
			instants = append(instants, e)
		}
	}

	find := func(name string, arg string, val float64) *traceEvent {
		for i := range spans {
			if spans[i].Name == name && spans[i].Args[arg] == val {
				return &spans[i]
			}
		}
		return nil
	}

	// Object 10: requested at 1ms, complete at 5ms → 4000µs span on h2.
	if sp := find("h2.obj", "object", 10); sp == nil {
		t.Error("no h2.obj span for object 10")
	} else {
		if sp.Tid != 3 || sp.Ts != 1000 || sp.Dur != 4000 {
			t.Errorf("object 10 span tid=%d ts=%v dur=%v, want 3/1000/4000", sp.Tid, sp.Ts, sp.Dur)
		}
	}
	// Object 11 was requested twice (refetch at 11ms) and never
	// completed → a zero-length h2.obj_incomplete marker at the last
	// request.
	if sp := find("h2.obj_incomplete", "object", 11); sp == nil {
		t.Error("no h2.obj_incomplete span for object 11")
	} else if sp.Ts != 11000 || sp.Dur != 0 {
		t.Errorf("object 11 marker ts=%v dur=%v, want 11000/0", sp.Ts, sp.Dur)
	}

	// Phases: 1 spans [0,6ms), 2 spans [6,15ms), 3 spans [15,17ms].
	for _, want := range []struct{ phase, ts, dur float64 }{
		{1, 0, 6000}, {2, 6000, 9000}, {3, 15000, 2000},
	} {
		sp := find("attack.phase", "phase", want.phase)
		if sp == nil {
			t.Errorf("no span for phase %v", want.phase)
			continue
		}
		if sp.Tid != 4 || sp.Ts != want.ts || sp.Dur != want.dur {
			t.Errorf("phase %v: tid=%d ts=%v dur=%v, want 4/%v/%v",
				want.phase, sp.Tid, sp.Ts, sp.Dur, want.ts, want.dur)
		}
	}

	// Reset rounds tile: round 1 [0,9ms), round 2 [9,14ms).
	if sp := find("h2.reset_round", "round", 1); sp == nil || sp.Ts != 0 || sp.Dur != 9000 {
		t.Errorf("round 1 span = %+v, want ts 0 dur 9000", sp)
	}
	if sp := find("h2.reset_round", "round", 2); sp == nil || sp.Ts != 9000 || sp.Dur != 5000 {
		t.Errorf("round 2 span = %+v, want ts 9000 dur 5000", sp)
	}

	// Instants land on their layer's track.
	wantTid := map[string]int{
		"netem.drop":       1,
		"tcp.fast_retx":    2,
		"tcp.timeout_retx": 2,
		"h2.stall":         3,
		"h2.refetch":       3,
		"h2.srv_dup_copy":  3,
		"attack.pred.run":  5,
	}
	seen := map[string]bool{}
	for _, in := range instants {
		if tid, ok := wantTid[in.Name]; ok {
			seen[in.Name] = true
			if in.Tid != tid {
				t.Errorf("instant %q on tid %d, want %d", in.Name, in.Tid, tid)
			}
		}
	}
	for name := range wantTid {
		if !seen[name] {
			t.Errorf("instant %q missing from trace", name)
		}
	}
}

// TestAppendTraceEmpty verifies an empty ring still renders a valid
// document (metadata only).
func TestAppendTraceEmpty(t *testing.T) {
	out := AppendTrace(nil, nil, "seed 0")
	var doc traceDoc
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("empty trace invalid: %v\n%s", err, out)
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "M" {
			t.Errorf("empty trace contains non-metadata event %+v", e)
		}
	}
}

// TestAppendTraceDeterministic pins that the same ring renders the
// same bytes — including the sorted flush of never-completed
// requests, which iterates a map.
func TestAppendTraceDeterministic(t *testing.T) {
	events := sampleEvents()
	// Add several never-completed requests to exercise the sorted
	// flush path.
	for i := int64(0); i < 8; i++ {
		events = append(events, obs.Event{At: time.Duration(20+i) * time.Millisecond, Kind: obs.EvH2Request, A: i, B: 100 + (7 - i)})
	}
	first := string(AppendTrace(nil, events, "seed 1"))
	for i := 0; i < 10; i++ {
		if got := string(AppendTrace(nil, events, "seed 1")); got != first {
			t.Fatal("trace bytes differ across renders of the same events")
		}
	}
}
