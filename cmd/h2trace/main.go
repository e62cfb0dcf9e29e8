// Command h2trace replays one campaign trial and exports it: as CSV
// for external analysis or plotting (the middlebox's record
// observations, the server's ground-truth frame events, the per-copy
// multiplexing analysis and the predictor's inferences), as a
// Perfetto timeline, as the flight-recorder event dump or as a
// narrated summary.
//
// The trial is the one a campaign counts at that seed: -mode passive
// is Table I's 0 ms column trial, -mode jitter its 50 ms column trial,
// and -mode attack Table II's trial.
//
// Usage:
//
//	h2trace -seed 7 -mode attack -out trace        # writes trace-*.csv
//	h2trace -seed 7 -mode passive -out -           # records CSV to stdout
//	h2trace -seed 42 -format trial                 # narrate the trial
//	h2trace -seed 42 -format events                # flight-recorder dump
//
// -format perfetto writes a single Perfetto/Chrome trace_event JSON
// timeline of the trial's flight-recorder events, one track per
// simulated layer — load it at https://ui.perfetto.dev or
// chrome://tracing:
//
//	h2trace -seed 7 -format perfetto -out trial.json
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/h2sim"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/website"
)

// modes maps -mode to the campaign trial it replays and the name the
// events and trial headers give it.
var modes = map[string]struct {
	params experiment.TrialParams
	name   string
}{
	"passive": {experiment.TrialParams{Mode: experiment.ModePassive}, "passive eavesdropper"},
	"jitter":  {experiment.TrialParams{Mode: experiment.ModeJitter, Spacing: 50 * time.Millisecond}, "50ms request jitter"},
	"attack":  {experiment.TrialParams{Mode: experiment.ModeFullAttack}, "full paper attack"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// formats lists the -format values; events and trial print to
// stdout.
var formats = []string{"csv", "perfetto", "events", "trial"}

// cliFlags holds every h2trace flag value.
type cliFlags struct {
	seed              int64
	mode, out, format string
}

// defineFlags registers every h2trace flag on fs (the README flag
// table is checked against this set).
func defineFlags(fs *flag.FlagSet) *cliFlags {
	c := &cliFlags{}
	fs.Int64Var(&c.seed, "seed", 1, "trial seed")
	fs.StringVar(&c.mode, "mode", "attack", "trial replayed: passive (Table I, 0 ms) | jitter (Table I, 50 ms) | attack (Table II)")
	fs.StringVar(&c.out, "out", "trace", "output prefix (csv) or file (perfetto); - for stdout")
	fs.StringVar(&c.format, "format", "csv", "export format: "+strings.Join(formats, " | ")+" (events and trial print to stdout)")
	return c
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("h2trace", flag.ContinueOnError)
	cli := defineFlags(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if !slices.Contains(formats, cli.format) {
		fmt.Fprintf(os.Stderr, "h2trace: unknown format %q (want %s)\n", cli.format, strings.Join(formats, ", "))
		return 2
	}
	m, ok := modes[cli.mode]
	if !ok {
		fmt.Fprintf(os.Stderr, "h2trace: unknown mode %q\n", cli.mode)
		return 2
	}

	p := m.params
	p.Seed = cli.seed
	w, rec, r := replay(p)
	var err error
	switch cli.format {
	case "events":
		fmt.Fprintf(stdout, "seed %d: flight recorder, %s (broken=%v resets=%d re-requests=%d retransmissions=%d)\n",
			cli.seed, m.name, r.Broken, r.Resets, r.ReRequests, r.Retransmissions)
		_, err = io.WriteString(stdout, rec.Dump())
	case "trial":
		writeTrial(stdout, cli.seed, m.name, r)
	case "perfetto":
		err = writePerfetto(stdout, rec, cli.seed, cli.out)
	default:
		sess, atk := w.Last()
		err = writeCSV(stdout, sess, atk, cli.out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "h2trace: %v\n", err)
		return 1
	}
	return 0
}

// replay runs trial p in a world with a 4096-event flight recorder
// attached. The world's Last holds the trial's session and adversary,
// and the recorder its events.
func replay(p experiment.TrialParams) (*experiment.World, *obs.Recorder, experiment.TrialResult) {
	w, rec := experiment.NewWorld(), obs.NewRecorder(4096)
	w.SetRecorder(rec)
	return w, rec, w.RunTrial(p)
}

// writeTrial narrates the trial's outcome.
func writeTrial(w io.Writer, seed int64, name string, r experiment.TrialResult) {
	fmt.Fprintf(w, "seed %d: %s on the survey site\n", seed, name)
	fmt.Fprintf(w, "  connection broken:        %v\n", r.Broken)
	fmt.Fprintf(w, "  page completed:           %v (load time %v)\n", r.PageComplete, r.LoadTime)
	fmt.Fprintf(w, "  stream resets forced:     %d\n", r.Resets)
	fmt.Fprintf(w, "  duplicate requests:       %d\n", r.ReRequests)
	fmt.Fprintf(w, "  total retransmissions:    %d\n", r.Retransmissions)
	fmt.Fprintf(w, "  result HTML clean copy:   %v (degree of original %.2f)\n", r.HTMLCleanAny, r.HTMLDegree)
	fmt.Fprintf(w, "  result HTML identified:   %v\n", r.HTMLIdentified)
	fmt.Fprintf(w, "  survey outcome (truth):   %s\n", partyNames(r.TruthOrder))
	fmt.Fprintf(w, "  adversary's prediction:   %s\n", partyNames(r.PredOrder))
	correct := 0
	for i := range r.TruthOrder {
		if r.ImageSuccess(i) {
			correct++
		}
	}
	fmt.Fprintf(w, "  positions recovered:      %d/%d\n", correct, website.PartyCount)
}

func partyNames(order [website.PartyCount]int) string {
	s := ""
	for i, p := range order {
		if i > 0 {
			s += " > "
		}
		if p < 0 || p >= website.PartyCount {
			s += "?"
			continue
		}
		s += website.PartyLabels[p]
	}
	return s
}

// writeCSV writes the four CSV exports as out-records.csv and so on,
// or only the records CSV to stdout when out is -.
func writeCSV(stdout io.Writer, sess *h2sim.Session, atk *core.Attack, out string) error {
	if out == "-" {
		return writeRecords(stdout, atk)
	}
	files := []struct {
		suffix string
		write  func(io.Writer) error
	}{
		{"-records.csv", func(w io.Writer) error { return writeRecords(w, atk) }},
		{"-frames.csv", func(w io.Writer) error { return writeFrames(w, sess) }},
		{"-copies.csv", func(w io.Writer) error { return writeCopies(w, sess) }},
		{"-inferences.csv", func(w io.Writer) error { return writeInferences(w, atk) }},
	}
	for _, file := range files {
		name := out + file.suffix
		f, err := os.Create(name)
		if err != nil {
			return err
		}
		werr := file.write(f)
		cerr := f.Close()
		if werr != nil || cerr != nil {
			return fmt.Errorf("writing %s: %v %v", name, werr, cerr)
		}
		fmt.Fprintf(stdout, "wrote %s\n", name)
	}
	return nil
}

// writePerfetto renders the trial's flight-recorder ring as
// trace_event JSON. out is the target file (".json" is appended to a
// bare prefix so the default -out writes trace.json), or - for stdout.
func writePerfetto(stdout io.Writer, rec *obs.Recorder, seed int64, out string) error {
	data := telemetry.AppendTrace(nil, rec.Events(), fmt.Sprintf("seed %d", seed))
	data = append(data, '\n')
	if out == "-" {
		_, err := stdout.Write(data)
		return err
	}
	if !strings.HasSuffix(out, ".json") {
		out += ".json"
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", out)
	return nil
}

// writeRecords dumps the adversary's record observations.
func writeRecords(w io.Writer, atk *core.Attack) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_us", "dir", "content_type", "cipher_len"}); err != nil {
		return err
	}
	for _, r := range atk.Monitor.Records {
		if err := cw.Write([]string{
			strconv.FormatInt(r.Time.Microseconds(), 10),
			r.Dir.String(),
			strconv.Itoa(int(r.ContentType)),
			strconv.Itoa(r.Length),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeFrames dumps the server's ground-truth frame events.
func writeFrames(w io.Writer, sess *h2sim.Session) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_us", "object", "copy", "stream", "len", "offset", "end"}); err != nil {
		return err
	}
	for _, f := range sess.GroundTruth.Frames {
		if err := cw.Write([]string{
			strconv.FormatInt(f.Time.Microseconds(), 10),
			strconv.Itoa(f.ObjectID),
			strconv.Itoa(f.CopyID),
			strconv.FormatUint(uint64(f.StreamID), 10),
			strconv.Itoa(f.Len),
			strconv.FormatInt(f.Offset, 10),
			strconv.FormatBool(f.End),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeCopies dumps the per-copy multiplexing analysis.
func writeCopies(w io.Writer, sess *h2sim.Session) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"object", "label", "copy", "bytes", "complete", "degree", "start_us", "end_us"}); err != nil {
		return err
	}
	for _, c := range analysis.CopyTransmissions(sess.GroundTruth) {
		obj, _ := sess.Site.Object(c.Key.ObjectID)
		if err := cw.Write([]string{
			strconv.Itoa(c.Key.ObjectID),
			obj.Label,
			strconv.Itoa(c.Key.CopyID),
			strconv.Itoa(c.Bytes),
			strconv.FormatBool(c.Complete),
			strconv.FormatFloat(c.Degree, 'f', 3, 64),
			strconv.FormatInt(c.StartTime.Microseconds(), 10),
			strconv.FormatInt(c.EndTime.Microseconds(), 10),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeInferences dumps what the adversary concluded.
func writeInferences(w io.Writer, atk *core.Attack) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"start_us", "end_us", "records", "est_size", "identified"}); err != nil {
		return err
	}
	for _, inf := range atk.Infer() {
		id := ""
		if inf.Object != nil {
			id = inf.Object.Label
		}
		if err := cw.Write([]string{
			strconv.FormatInt(inf.Start.Microseconds(), 10),
			strconv.FormatInt(inf.End.Microseconds(), 10),
			strconv.Itoa(inf.Records),
			strconv.Itoa(inf.EstSize),
			id,
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
