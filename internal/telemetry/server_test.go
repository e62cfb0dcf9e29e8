package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// startTestServer binds a loopback server with a populated plane and
// tears it down with the test.
func startTestServer(t *testing.T, events func(int64) ([]obs.Event, error)) (*Server, *Gauges, *Tracker) {
	t.Helper()
	g := &Gauges{}
	tr := &Tracker{}
	s, err := StartServer(ServerConfig{Addr: "127.0.0.1:0", Gauges: g, Tracker: tr, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, g, tr
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestServerMetricsAndStatus drives the two sampling endpoints
// against live gauge and tracker values.
func TestServerMetricsAndStatus(t *testing.T) {
	s, g, tr := startTestServer(t, nil)
	g.Set(GWorkers, 8)
	g.Set(GExportBytes, 13)
	g.Add(GTrialsDone, 250)
	tr.SetCampaign("survey", "survey/sites=1000", "", 4000)
	tr.SetProgress(250, 1, 4000, 125.5, 30*time.Second)

	code, body := get(t, "http://"+s.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"h2attack_runner_workers 8\n",
		"h2attack_pipeline_export_bytes 13\n",
		"h2attack_runner_trials_done_total 250\n",
		"h2attack_trials_done 250\n",
		"h2attack_trials_total 4000\n",
		"h2attack_trials_per_sec 125.5\n",
		"# TYPE h2attack_runner_workers gauge\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body = get(t, "http://"+s.Addr()+"/status")
	if code != http.StatusOK {
		t.Fatalf("/status status %d", code)
	}
	var st statusResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/status not JSON: %v\n%s", err, body)
	}
	if st.Campaign != "survey" || st.Fingerprint != "survey/sites=1000" {
		t.Errorf("campaign identity = %q/%q", st.Campaign, st.Fingerprint)
	}
	if st.TrialsDone != 250 || st.TrialsTotal != 4000 || st.TrialsFailed != 1 {
		t.Errorf("progress = %d/%d failed %d", st.TrialsDone, st.TrialsTotal, st.TrialsFailed)
	}
	if st.TrialsPerSec != 125.5 {
		t.Errorf("trials/s = %v", st.TrialsPerSec)
	}
	if st.ETASeconds != 30 {
		t.Errorf("eta = %v", st.ETASeconds)
	}
	if st.Gauges["runner_workers"] != 8 || st.Gauges["pipeline_export_bytes"] != 13 {
		t.Errorf("gauge snapshot = %v", st.Gauges)
	}
	if st.Runtime.GoMaxProcs < 1 || st.Runtime.Goroutines < 1 {
		t.Errorf("runtime stats = %+v", st.Runtime)
	}
}

// TestServerEvents drives /events in both formats through a stub
// replay hook.
func TestServerEvents(t *testing.T) {
	var gotSeed int64
	s, _, _ := startTestServer(t, func(seed int64) ([]obs.Event, error) {
		gotSeed = seed
		if seed == 666 {
			return nil, fmt.Errorf("no such trial")
		}
		return sampleEvents(), nil
	})

	code, body := get(t, "http://"+s.Addr()+"/events?seed=42")
	if code != http.StatusOK {
		t.Fatalf("/events status %d: %s", code, body)
	}
	if gotSeed != 42 {
		t.Errorf("replay hook saw seed %d", gotSeed)
	}
	if !strings.Contains(body, "h2.request") || !strings.Contains(body, "attack.phase") {
		t.Errorf("text dump missing event kinds:\n%s", body)
	}

	code, body = get(t, "http://"+s.Addr()+"/events?seed=42&format=trace")
	if code != http.StatusOK {
		t.Fatalf("/events trace status %d", code)
	}
	var doc traceDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/events trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace has no events")
	}

	if code, _ = get(t, "http://"+s.Addr()+"/events"); code != http.StatusBadRequest {
		t.Errorf("missing seed: status %d, want 400", code)
	}
	if code, _ = get(t, "http://"+s.Addr()+"/events?seed=666"); code != http.StatusInternalServerError {
		t.Errorf("replay error: status %d, want 500", code)
	}
}

// TestServerEventsDisabled verifies /events 404s when the campaign
// provides no replay hook.
func TestServerEventsDisabled(t *testing.T) {
	s, _, _ := startTestServer(t, nil)
	if code, _ := get(t, "http://"+s.Addr()+"/events?seed=1"); code != http.StatusNotFound {
		t.Errorf("status %d, want 404", code)
	}
}
