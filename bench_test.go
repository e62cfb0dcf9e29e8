package repro

// The benchmarks in this file cover what the campaign benchmark
// (bench/run.sh, which drives real cmd/h2attack campaigns) does not:
// the passive baselines and ablations of DESIGN.md sections 4–5, with
// their headline numbers as custom metrics, and micro-benchmarks of
// the substrate and the export path. The worker pool's dispatch
// benchmark lives with the executor in internal/pipeline. The paper's
// sweep tables come from cmd/h2attack (EXPERIMENTS.md records a
// reference run) and their throughput from bench/run.sh's sweeps
// workload.
//
//	go test -bench=. -benchmem

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/h2"
	"repro/internal/h2sim"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/website"
	"repro/internal/wire"
)

// benchTrials is the per-configuration page-load count used by the
// experiment benches. The paper used 100; a smaller default keeps
// `go test -bench=.` under a few minutes while preserving the shapes.
const benchTrials = 40

// reportTrialsPerSec attaches the sweep throughput metric to an
// experiment bench: trialsPerIter simulated page loads ran per
// iteration (across all configurations of the sweep), fanned over the
// default worker pool (internal/pipeline, GOMAXPROCS workers).
func reportTrialsPerSec(b *testing.B, trialsPerIter int) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(trialsPerIter*b.N)/s, "trials/s")
	}
}

// BenchmarkBaselineMultiplexing reproduces the section IV preamble:
// the default degree of multiplexing of the result HTML (paper: ~98%
// when multiplexed, not multiplexed in ~32% of loads).
func BenchmarkBaselineMultiplexing(b *testing.B) {
	w := experiment.NewWorld()
	for i := 0; i < b.N; i++ {
		clean, mux := 0, 0
		var degSum float64
		for t := 0; t < benchTrials; t++ {
			r := w.RunTrial(experiment.TrialParams{
				Seed: int64(40000 + t), Mode: experiment.ModePassive,
			})
			if r.HTMLCleanAny {
				clean++
			} else if r.HTMLDegree > 0 {
				mux++
				degSum += r.HTMLDegree
			}
		}
		b.ReportMetric(100*float64(clean)/benchTrials, "clean%")
		if mux > 0 {
			b.ReportMetric(100*degSum/float64(mux), "meanDegree%")
		}
	}
	reportTrialsPerSec(b, benchTrials)
}

// BenchmarkFig1PassiveBaseline reproduces the Figure 1 contrast on a
// two-object page: sequential transmissions leak exact sizes,
// multiplexed ones do not.
func BenchmarkFig1PassiveBaseline(b *testing.B) {
	site := website.TwoObject(7300, 12100)
	sess := h2sim.NewSession(site, h2sim.SessionConfig{Seed: 100})
	atk := core.NewAttack(sess)
	for i := 0; i < b.N; i++ {
		identified := 0
		for t := 0; t < benchTrials; t++ {
			sess.Reset(site, h2sim.SessionConfig{Seed: int64(100 + t)})
			atk.ArmPassive()
			sess.Run()
			for _, inf := range atk.Infer() {
				if inf.Object != nil {
					identified++
				}
			}
		}
		b.ReportMetric(float64(identified)/(2*benchTrials)*100, "passiveIdentified%")
	}
	reportTrialsPerSec(b, benchTrials)
}

// --- Ablation benches (DESIGN.md section 5) ---

// BenchmarkAblationNoBackpressure measures how baseline multiplexing
// collapses when server workers ignore the socket buffer.
func BenchmarkAblationNoBackpressure(b *testing.B) {
	w := experiment.NewWorld()
	for i := 0; i < b.N; i++ {
		clean := 0
		for t := 0; t < benchTrials; t++ {
			r := w.RunTrial(experiment.TrialParams{
				Seed: int64(47000 + t), Mode: experiment.ModePassive,
				Server: h2sim.ServerConfig{DisableBackpressure: true},
			})
			if r.HTMLCleanAny {
				clean++
			}
		}
		b.ReportMetric(100*float64(clean)/benchTrials, "clean%")
	}
}

// BenchmarkAblationNoReset measures the composed attack without the
// client's reset-streams behaviour.
func BenchmarkAblationNoReset(b *testing.B) {
	w := experiment.NewWorld()
	for i := 0; i < b.N; i++ {
		succ := 0
		for t := 0; t < benchTrials; t++ {
			r := w.RunTrial(experiment.TrialParams{
				Seed: int64(49000 + t), Mode: experiment.ModeFullAttack,
				Client: h2sim.ClientConfig{DisableReset: true},
			})
			if r.HTMLSuccess() {
				succ++
			}
		}
		b.ReportMetric(100*float64(succ)/benchTrials, "success%")
	}
}

// BenchmarkAblationWideRefetch measures the image-sequence accuracy
// cost of a wide post-reset refetch window.
func BenchmarkAblationWideRefetch(b *testing.B) {
	w := experiment.NewWorld()
	for i := 0; i < b.N; i++ {
		okPos := 0
		for t := 0; t < benchTrials; t++ {
			r := w.RunTrial(experiment.TrialParams{
				Seed: int64(50000 + t), Mode: experiment.ModeFullAttack,
				Client: h2sim.ClientConfig{RefetchWindow: 24},
			})
			for k := 0; k < website.PartyCount; k++ {
				if r.ImageSuccess(k) {
					okPos++
				}
			}
		}
		b.ReportMetric(100*float64(okPos)/float64(benchTrials*website.PartyCount), "posAccuracy%")
	}
}

// --- Substrate micro-benchmarks ---

// BenchmarkFullAttackTrial measures the wall-clock cost of one
// complete simulated attack trial (the unit of every sweep above),
// in the steady state the sweeps actually run in: one reusable world
// per worker, reset per trial.
func BenchmarkFullAttackTrial(b *testing.B) {
	w := experiment.NewWorld()
	for i := 0; i < b.N; i++ {
		w.RunTrial(experiment.TrialParams{
			Seed: int64(90000 + i), Mode: experiment.ModeFullAttack,
		})
	}
}

// BenchmarkFullAttackTrialFresh is the cold-path control for
// BenchmarkFullAttackTrial: a brand-new world per trial, what every
// sweep paid per trial before worlds became reusable.
func BenchmarkFullAttackTrialFresh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.RunTrial(experiment.TrialParams{
			Seed: int64(90000 + i), Mode: experiment.ModeFullAttack,
		})
	}
}

// BenchmarkBaselineTrial measures one passive page-load trial
// (reused world, like the sweeps).
func BenchmarkBaselineTrial(b *testing.B) {
	w := experiment.NewWorld()
	for i := 0; i < b.N; i++ {
		w.RunTrial(experiment.TrialParams{
			Seed: int64(91000 + i), Mode: experiment.ModePassive,
		})
	}
}

// BenchmarkFramerRoundTrip measures frame encode+decode throughput.
func BenchmarkFramerRoundTrip(b *testing.B) {
	f := &h2.DataFrame{StreamID: 1, Len: 1400}
	var sc h2.FrameScanner
	var stream wire.Bytes
	emit := func(h2.Frame) error { return nil }
	b.SetBytes(1400)
	for i := 0; i < b.N; i++ {
		stream.Reset()
		h2.AppendFrame(&stream, f)
		if err := sc.FeedInto(stream, emit); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHpackEncode measures header-block compression.
func BenchmarkHpackEncode(b *testing.B) {
	enc := h2.NewHpackEncoder(4096)
	fields := []h2.HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "www.isidewith.test"},
		{Name: ":path", Value: "/img/emblems/party-C.png"},
		{Name: "accept", Value: "image/png"},
	}
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = enc.AppendHeaderBlock(buf[:0], fields)
	}
}

// BenchmarkHpackDecode measures header-block decompression.
func BenchmarkHpackDecode(b *testing.B) {
	enc := h2.NewHpackEncoder(4096)
	block := enc.AppendHeaderBlock(nil, []h2.HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "www.isidewith.test"},
		{Name: ":path", Value: "/img/emblems/party-C.png"},
	})
	dec := h2.NewHpackDecoder(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.DecodeFull(block); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHuffman measures HPACK string coding.
func BenchmarkHuffman(b *testing.B) {
	const s = "/results/2020-presidential-quiz?session=abcdef0123456789"
	b.SetBytes(int64(len(s)))
	for i := 0; i < b.N; i++ {
		enc := h2.AppendHuffmanString(nil, s)
		if _, err := h2.HuffmanDecode(nil, enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDegreeOfMultiplexing measures the trace analysis on a
// full-attack ground-truth trace.
func BenchmarkDegreeOfMultiplexing(b *testing.B) {
	site := website.Survey(website.IdentityPermutation())
	sess := h2sim.NewSession(site, h2sim.SessionConfig{Seed: 42})
	core.InstallPassive(sess)
	sess.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.CopyTransmissions(sess.GroundTruth)
	}
}

// BenchmarkInferStreaming measures the inference engine over one
// full-attack trial's observed record stream: Start + Observe per
// record + Inferences, with primed table and reused buffers
// (zero-alloc steady state).
func BenchmarkInferStreaming(b *testing.B) {
	site := website.Survey(website.IdentityPermutation())
	sess := h2sim.NewSession(site, h2sim.SessionConfig{Seed: 42, RandomizeAmbient: true})
	atk := core.Install(sess, core.PaperAttack())
	sess.Run()
	recs := append([]trace.RecordObs(nil), atk.Monitor.Records...)
	if len(recs) == 0 {
		b.Fatal("captured no records")
	}
	p := core.NewPredictor(site)
	var eng core.StreamInference
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Start(p, obs.Sink{})
		for _, r := range recs {
			eng.Observe(r)
		}
		if len(eng.Inferences()) == 0 {
			b.Fatal("no inferences")
		}
	}
}

// benchSurveyResult is a representative survey line for the export
// benches: every field populated, a realistic mix of bools, ints, and
// floats, ~330 bytes encoded.
func benchSurveyResult() experiment.SurveyResult {
	return experiment.SurveyResult{
		SiteSpec: website.SiteSpec{
			Index: 12345, Seed: 0xfeedface12345678, Objects: 48,
			Shape: "front-loaded", TargetID: 7, TargetSize: 73219,
			TotalBytes: 2310441,
		},
		Rep: 3, TrialSeed: 987654321, Broken: false, PageComplete: true,
		TargetClean: true, TargetCleanOrig: false, TargetIdentified: true,
		TargetDegree: 12.5, Success: true, Inferences: 51, Identified: 44,
		Retransmissions: 6, ReRequests: 2, Resets: 9, LoadTimeMs: 1872.25,
	}
}

// BenchmarkExportLine measures one JSONL line encode: the append fast
// path against the reflection path it replaced. The append encoder's
// zero-allocation steady state is pinned by TestAppendLineZeroAllocs;
// here -benchmem shows the same contrast as allocs/op.
func BenchmarkExportLine(b *testing.B) {
	r := benchSurveyResult()
	p := experiment.CorpusTrialParams{Site: 12345, Rep: 3, Seed: 987654321}
	b.Run("append", func(b *testing.B) {
		buf := make([]byte, 0, 1024)
		var err error
		for i := 0; i < b.N; i++ {
			buf, err = experiment.AppendSurveyResultLine(buf[:0], i, p, r)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(buf)))
		reportLinesPerSec(b, 1)
	})
	b.Run("marshal", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			data, err := json.Marshal(r)
			if err != nil {
				b.Fatal(err)
			}
			n = len(data)
		}
		b.SetBytes(int64(n))
		reportLinesPerSec(b, 1)
	})
}

// reportLinesPerSec attaches the export throughput metric: linesPerIter
// JSONL lines were produced per iteration.
func reportLinesPerSec(b *testing.B, linesPerIter int) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(linesPerIter*b.N)/s, "lines/s")
	}
}

// benchExportDir returns a scratch directory for export benchmarks,
// preferring tmpfs (/dev/shm) so the measurement tracks the export
// stack — encode and syscall batching — rather than the
// machine's disk bandwidth, which would cap both configurations
// identically.
func benchExportDir(b *testing.B) string {
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		dir, err := os.MkdirTemp("/dev/shm", "h2attack-bench-")
		if err == nil {
			b.Cleanup(func() { os.RemoveAll(dir) })
			return dir
		}
	}
	return b.TempDir()
}

// benchTrialResult is a representative sweep line for the campaign
// export bench: a full emblem verdict set plus a 56-entry request log,
// the shape a shard sweep actually streams to its bundle (~2.5 KB
// encoded). The nested slice is where reflection encoding hurts most,
// so this is also where the append fast path pays off most.
func benchTrialResult() experiment.TrialResult {
	r := experiment.TrialResult{
		HTMLCleanAny: true, HTMLCleanOrig: true, HTMLIdentified: true,
		HTMLDegree: 3.25, Retransmissions: 7, ReRequests: 2, Resets: 4,
		PageComplete: true, LoadTime: 1872250 * time.Microsecond,
	}
	for i := range r.TruthOrder {
		r.TruthOrder[i] = (i * 3) % website.PartyCount
		r.PredOrder[i] = (i * 5) % website.PartyCount
		r.ImageClean[i] = i%2 == 0
	}
	for i := 0; i < 56; i++ {
		r.Requests = append(r.Requests, h2sim.RequestLog{
			Time:     time.Duration(i) * 13 * time.Millisecond,
			ObjectID: i % 48, CopyID: i % 3, StreamID: uint32(1 + 2*i), ReIssue: i%7 == 0,
		})
	}
	return r
}

// BenchmarkCampaignExport measures the full export leg at campaign
// scale with a near-free trial body, so encode+write dominate: the
// zero-alloc appender with the shard writer buffer ("fast", the
// sharded sweep's production configuration) against the reflection
// encoder with the default 64 KiB buffer ("baseline", the
// pre-fast-path configuration).
func BenchmarkCampaignExport(b *testing.B) {
	const lines = 1 << 13
	r := benchTrialResult()
	gen := pipeline.Fixed[experiment.TrialParams]{
		CampaignName: "bench-export", N: lines,
		Fn: func(i int) experiment.TrialParams {
			return experiment.TrialParams{Seed: int64(i)}
		},
	}
	trial := func(_ struct{}, p experiment.TrialParams) experiment.TrialResult {
		out := r
		out.Resets = int(p.Seed)
		return out
	}
	noState := func() struct{} { return struct{}{} }
	run := func(b *testing.B, mk func(path string) *pipeline.JSONL[experiment.TrialParams, experiment.TrialResult]) {
		dir := benchExportDir(b)
		for i := 0; i < b.N; i++ {
			// Alternate between two output paths and reclaim the stale
			// one off the clock: freeing the previous iteration's ~20 MB
			// of pages is harness housekeeping, not export work.
			path := filepath.Join(dir, "out-"+strconv.Itoa(i&1)+".jsonl")
			b.StopTimer()
			os.Remove(path)
			b.StartTimer()
			sum, err := pipeline.Run(pipeline.Config{Workers: 1}, gen, noState, trial, mk(path))
			if err != nil {
				b.Fatal(err)
			}
			if !sum.Done || sum.Exported != lines {
				b.Fatalf("summary %+v", sum)
			}
		}
		reportLinesPerSec(b, lines)
	}
	b.Run("fast", func(b *testing.B) {
		run(b, func(path string) *pipeline.JSONL[experiment.TrialParams, experiment.TrialResult] {
			return pipeline.NewJSONL(path, func(i int, p experiment.TrialParams, r experiment.TrialResult) (any, error) {
				return r, nil
			}).WithAppender(pipeline.AppendFunc[experiment.TrialParams, experiment.TrialResult](experiment.AppendTrialResultLine)).
				WithBufferSize(experiment.ShardWriterBuf)
		})
	})
	b.Run("baseline", func(b *testing.B) {
		run(b, func(path string) *pipeline.JSONL[experiment.TrialParams, experiment.TrialResult] {
			return pipeline.NewJSONL(path, func(i int, p experiment.TrialParams, r experiment.TrialResult) (any, error) {
				return r, nil
			})
		})
	})
}

// BenchmarkPairInference measures the paper's section VII "partly
// multiplexed" extension: identification rate of a two-object
// multiplexed page, basic vs pair-sum inference.
func BenchmarkPairInference(b *testing.B) {
	site := website.TwoObject(7300, 12100)
	sess := h2sim.NewSession(site, h2sim.SessionConfig{Seed: 300})
	atk := core.NewAttack(sess)
	for i := 0; i < b.N; i++ {
		basic, paired := 0, 0
		for t := 0; t < benchTrials; t++ {
			sess.Reset(site, h2sim.SessionConfig{Seed: int64(300 + t)})
			atk.ArmPassive()
			sess.Run()
			recs := atk.Monitor.ResponseRecords()
			for _, inf := range atk.Predictor.Infer(recs) {
				if inf.Object != nil && inf.Object.ID == 1 {
					basic++
					break
				}
			}
			if core.IdentifiedInPairs(atk.Predictor.InferPairs(recs), 1) {
				paired++
			}
		}
		b.ReportMetric(100*float64(basic)/benchTrials, "basic%")
		b.ReportMetric(100*float64(paired)/benchTrials, "paired%")
	}
}
