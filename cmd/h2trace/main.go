// Command h2trace runs one simulated trial and exports its traces as
// CSV for external analysis or plotting: the middlebox's record
// observations (the adversary's view), the server's ground-truth
// frame events, and the predictor's inferences.
//
// Usage:
//
//	h2trace -seed 7 -mode attack -out trace        # writes trace-*.csv
//	h2trace -seed 7 -mode passive -out -           # records CSV to stdout
//
// -format perfetto switches from the CSV exports to a single
// Perfetto/Chrome trace_event JSON timeline of the trial's
// flight-recorder events, one track per simulated layer — load it at
// https://ui.perfetto.dev or chrome://tracing:
//
//	h2trace -seed 7 -format perfetto -out trial.json
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/h2sim"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/website"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("h2trace", flag.ContinueOnError)
	var (
		seed   = fs.Int64("seed", 1, "trial seed")
		mode   = fs.String("mode", "attack", "adversary: passive | jitter | attack")
		out    = fs.String("out", "trace", "output prefix (csv) or file (perfetto); - for stdout")
		format = fs.String("format", "csv", "export format: csv | perfetto")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	var rec *obs.Recorder
	cfg := h2sim.SessionConfig{Seed: *seed}
	switch *format {
	case "csv":
	case "perfetto":
		// The timeline renders the flight-recorder ring, so the trial
		// runs with a recording sink attached (CSV mode keeps the zero
		// sink — its exports read the ground-truth structures directly).
		rec = obs.NewRecorder(4096)
		cfg.Obs = obs.Sink{}.WithRecorder(rec)
	default:
		fmt.Fprintf(os.Stderr, "h2trace: unknown format %q (want csv or perfetto)\n", *format)
		return 2
	}

	site := website.Survey(website.IdentityPermutation())
	sess := h2sim.NewSession(site, cfg)
	var atk *core.Attack
	switch *mode {
	case "passive":
		atk = core.InstallPassive(sess)
	case "jitter":
		atk = core.Install(sess, core.AttackConfig{Phase1Spacing: 50 * time.Millisecond})
	case "attack":
		atk = core.Install(sess, core.PaperAttack())
	default:
		fmt.Fprintf(os.Stderr, "h2trace: unknown mode %q\n", *mode)
		return 2
	}
	if rec != nil {
		atk.Obs = cfg.Obs
	}
	sess.Run()

	if rec != nil {
		if err := writePerfetto(stdout, rec, *seed, *mode, *out); err != nil {
			fmt.Fprintf(os.Stderr, "h2trace: %v\n", err)
			return 1
		}
		return 0
	}

	if *out == "-" {
		if err := writeRecords(stdout, atk); err != nil {
			fmt.Fprintf(os.Stderr, "h2trace: %v\n", err)
			return 1
		}
		return 0
	}
	files := []struct {
		suffix string
		write  func(io.Writer) error
	}{
		{"-records.csv", func(w io.Writer) error { return writeRecords(w, atk) }},
		{"-frames.csv", func(w io.Writer) error { return writeFrames(w, sess) }},
		{"-copies.csv", func(w io.Writer) error { return writeCopies(w, sess, site) }},
		{"-inferences.csv", func(w io.Writer) error { return writeInferences(w, atk) }},
	}
	for _, file := range files {
		name := *out + file.suffix
		f, err := os.Create(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "h2trace: %v\n", err)
			return 1
		}
		werr := file.write(f)
		cerr := f.Close()
		if werr != nil || cerr != nil {
			fmt.Fprintf(os.Stderr, "h2trace: writing %s: %v %v\n", name, werr, cerr)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", name)
	}
	return 0
}

// writePerfetto renders the trial's flight-recorder ring as
// trace_event JSON. out is the target file (".json" is appended to a
// bare prefix so the default -out writes trace.json), or - for stdout.
func writePerfetto(stdout io.Writer, rec *obs.Recorder, seed int64, mode, out string) error {
	data := telemetry.AppendTrace(nil, rec.Events(), fmt.Sprintf("seed %d %s", seed, mode))
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
func writeCopies(w io.Writer, sess *h2sim.Session, site *website.Site) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"object", "label", "copy", "bytes", "complete", "degree", "start_us", "end_us"}); err != nil {
		return err
	}
	for _, c := range analysis.CopyTransmissions(sess.GroundTruth) {
		obj, _ := site.Object(c.Key.ObjectID)
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
