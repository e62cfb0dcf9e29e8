package experiment

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/h2sim"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/website"
)

// This file is the survey-campaign surface: it runs the paper's
// attack against a synthetic site corpus (internal/website.Corpus)
// through the streaming pipeline (internal/pipeline), measuring
// Table II-style attack accuracy across thousands of sites instead of
// the one survey site. The pieces are a Generator over (site, rep)
// trials, a World-based trial executor with per-worker site caching,
// and the campaign exporters (JSONL lines, a checkpointable summary
// table); metrics ride ObsState like every other campaign's.

// CorpusTrialParams identifies one survey-campaign trial: repetition
// Rep of the attack against corpus site Site. It is the pipeline's P
// type — a cheap pure function of the trial index; the site model
// itself is built (and cached) in the worker state.
type CorpusTrialParams struct {
	// Site is the corpus site index.
	Site int

	// Rep is the repetition number for this site (0-based).
	Rep int

	// Seed drives all per-trial randomness (ambient network
	// conditions, packet noise).
	Seed int64

	// Mode selects the adversary; zero means ModeFullAttack.
	Mode AdversaryMode
}

// SurveyResult is one survey-campaign trial outcome. It embeds the
// generated site's spec so each JSONL line is self-describing — per-
// site accuracy can be grouped by object count, shape, or size
// without rebuilding the corpus.
type SurveyResult struct {
	website.SiteSpec

	// Rep and TrialSeed identify the trial within the site.
	Rep       int   `json:"rep"`
	TrialSeed int64 `json:"trial_seed"`

	// Broken reports a torn-down connection (or a panicked trial).
	Broken bool `json:"broken"`

	// PageComplete reports whether every scheduled object completed.
	PageComplete bool `json:"complete"`

	// TargetClean reports a clean (non-multiplexed, complete) copy of
	// the target document on the wire; TargetCleanOrig restricts that
	// to the original transmission.
	TargetClean     bool `json:"target_clean"`
	TargetCleanOrig bool `json:"target_clean_orig"`

	// TargetIdentified reports whether the predictor matched the
	// target's size from the encrypted traffic.
	TargetIdentified bool `json:"target_identified"`

	// TargetDegree is the original copy's degree of multiplexing.
	TargetDegree float64 `json:"target_degree"`

	// Success is the paper's criterion on the target: clean AND
	// identified, on an unbroken connection.
	Success bool `json:"success"`

	// Inferences counts delimiter-bounded runs the predictor saw;
	// Identified counts those matched to some site object.
	Inferences int `json:"inferences"`
	Identified int `json:"identified"`

	// Traffic counters, as in TrialResult.
	Retransmissions int `json:"retransmissions"`
	ReRequests      int `json:"re_requests"`
	Resets          int `json:"resets"`

	// LoadTimeMs is when the last scheduled object completed (0 when
	// it never did).
	LoadTimeMs float64 `json:"load_time_ms"`
}

// objectBucketLabels are the site-size segments survey metrics and
// summaries aggregate by (object count).
var objectBucketLabels = []string{"1-16 objects", "17-32 objects", "33-48 objects", "49-64 objects", "65+ objects"}

// objectBucket maps an object count to its segment index.
func objectBucket(n int) int {
	b := (n - 1) / 16
	if b < 0 {
		b = 0
	}
	if b >= len(objectBucketLabels) {
		b = len(objectBucketLabels) - 1
	}
	return b
}

// RunSiteTrial executes one attack trial against a generated corpus
// site in this world, the corpus counterpart of RunTrial. The full
// attack triggers on the site's target document (TriggerGet =
// Spec.TargetID) and the predictor scores against the site's own size
// table.
func (w *World) RunSiteTrial(gs *website.GeneratedSite, p CorpusTrialParams) SurveyResult {
	rng := w.begin(p.Seed)
	defer w.unlock()
	path, _ := ambient(rng) // think time is baked into the site's schedule
	sink := w.setup(gs.Site, h2sim.SessionConfig{Seed: p.Seed, Path: path}, objectBucket(gs.Spec.Objects))
	sess, atk := w.sess, w.atk

	mode := p.Mode
	if mode == 0 {
		mode = ModeFullAttack
	}
	switch mode {
	case ModePassive:
		atk.ArmPassive()
	default:
		cfg := core.PaperAttack()
		cfg.TriggerGet = gs.Spec.TargetID
		atk.Arm(cfg)
	}

	copies := w.run(sink)
	targetID := gs.Spec.TargetID
	res := SurveyResult{
		SiteSpec:        gs.Spec,
		Rep:             p.Rep,
		TrialSeed:       p.Seed,
		Broken:          sess.Broken(),
		PageComplete:    sess.Client.AllScheduledComplete(),
		Retransmissions: sess.TotalRetransmissions(),
		ReRequests:      sess.Client.Stats.ReRequests,
		Resets:          sess.Client.Stats.Resets,
	}
	lastID := gs.Spec.Objects // IDs are 1..Objects in schedule order
	if lt := sess.Client.CompletedAt(lastID); lt > 0 {
		res.LoadTimeMs = float64(lt) / float64(time.Millisecond)
	}
	res.TargetClean, res.TargetCleanOrig = analysis.CleanCopy(copies, targetID)
	res.TargetDegree = analysis.OriginalDegree(copies, targetID)

	infs := atk.Infer()
	res.Inferences = len(infs)
	for _, inf := range infs {
		if inf.Object == nil {
			continue
		}
		res.Identified++
		if inf.Object.ID == targetID {
			res.TargetIdentified = true
		}
	}
	res.Success = !res.Broken && res.TargetClean && res.TargetIdentified
	return res
}

// SurveyConfig configures a survey campaign over a synthetic corpus.
type SurveyConfig struct {
	// Corpus is the site population (see website.CorpusConfig; the
	// zero value plus Sites is valid).
	Corpus website.CorpusConfig

	// SiteTrials is the number of attack repetitions per site
	// (distinct trial seeds). Zero means 1.
	SiteTrials int

	// Seed offsets the per-trial seeds: trial i runs with Seed+i.
	Seed int64

	// Mode selects the adversary; zero means ModeFullAttack.
	Mode AdversaryMode
}

// Survey is a configured survey campaign: a pipeline generator over
// (site, rep) trials plus the worker-state factory that executes
// them. Feed it to pipeline.Run directly or use its Run convenience.
type Survey struct {
	cfg     SurveyConfig
	corpus  *website.Corpus
	metrics *obs.Registry
}

// NewSurvey builds a survey campaign.
func NewSurvey(cfg SurveyConfig) *Survey {
	if cfg.SiteTrials <= 0 {
		cfg.SiteTrials = 1
	}
	return &Survey{cfg: cfg, corpus: website.NewCorpus(cfg.Corpus)}
}

// Corpus returns the campaign's site population.
func (s *Survey) Corpus() *website.Corpus { return s.corpus }

// SetMetrics collects the campaign's cross-layer metrics into reg,
// segmented by site-size bucket (as SweepDef.Collect's reg is by
// configuration).
// A registry only sees the trials this process runs; to cover a
// campaign across checkpointed resumes, pass an ObsState's Reg and
// add its ObsStateExporter to Run's exporters.
func (s *Survey) SetMetrics(reg *obs.Registry) {
	if reg != nil {
		reg.SetSegments(objectBucketLabels...)
	}
	s.metrics = reg
}

// Name implements pipeline.Generator.
func (s *Survey) Name() string { return "survey" }

// Trials implements pipeline.Generator: sites × repetitions.
func (s *Survey) Trials() int { return s.corpus.Len() * s.cfg.SiteTrials }

// Params implements pipeline.Generator. Consecutive indices cover one
// site's repetitions before moving to the next site, so a worker's
// cached site model serves runs of trials.
func (s *Survey) Params(i int) CorpusTrialParams {
	return CorpusTrialParams{
		Site: i / s.cfg.SiteTrials,
		Rep:  i % s.cfg.SiteTrials,
		Seed: s.cfg.Seed + int64(i),
		Mode: s.cfg.Mode,
	}
}

// Fingerprint implements pipeline.Generator.
func (s *Survey) Fingerprint() string {
	return fmt.Sprintf("%s reps=%d seed0=%d mode=%d",
		s.corpus.Config().Fingerprint(), s.cfg.SiteTrials, s.cfg.Seed, s.cfg.Mode)
}

// surveyWorker is one worker's reusable state: a trial world plus the
// most recently built site (trials against the same site are adjacent
// in index order, so the cache hit rate is (SiteTrials-1)/SiteTrials
// or better).
type surveyWorker struct {
	w    *World
	s    *Survey
	site *website.GeneratedSite
}

func (sw *surveyWorker) run(p CorpusTrialParams) SurveyResult {
	if sw.site == nil || sw.site.Spec.Index != p.Site {
		sw.site = sw.s.corpus.Build(p.Site)
	}
	return sw.w.RunSiteTrial(sw.site, p)
}

// PanicResult implements pipeline.PanicResulter: a panicked trial is
// exported as broken, with its site's spec, as a sweep's is by
// brokenOnPanic, and pipeline.Run still reports it in
// Summary.Failures. If building the site is what panicked, the spec
// keeps only the site's index and seed.
func (s *Survey) PanicResult(p CorpusTrialParams) SurveyResult {
	return SurveyResult{SiteSpec: s.siteSpec(p.Site), Rep: p.Rep, TrialSeed: p.Seed, Broken: true}
}

// siteSpec returns site i's spec, or only its index and seed when its
// build panics.
func (s *Survey) siteSpec(i int) (spec website.SiteSpec) {
	defer func() {
		if recover() != nil {
			spec = website.SiteSpec{Index: i, Seed: s.corpus.SiteSeed(i)}
		}
	}()
	return s.corpus.Build(i).Spec
}

// Run executes the campaign through pipeline.Run with the given
// pipeline configuration and exporters. Unless the caller set one,
// the worker claim batch defaults to SiteTrials, so all repetitions
// of a site run on the worker whose cache already holds that site's
// model and primed size table (batching never changes the exported
// bytes, only which worker runs which trial).
func (s *Survey) Run(cfg pipeline.Config, exporters ...pipeline.Exporter[CorpusTrialParams, SurveyResult]) (pipeline.Summary, error) {
	if cfg.Batch == 0 {
		cfg.Batch = s.cfg.SiteTrials
	}
	newWorld := worlds(s.metrics, cfg.Gauges)
	newState := func() *surveyWorker { return &surveyWorker{w: newWorld(), s: s} }
	return pipeline.Run(cfg, s, newState, (*surveyWorker).run, exporters...)
}

// SurveyJSONL returns the campaign's raw per-trial exporter: one JSON
// line per trial (the SurveyResult, which embeds the site spec). The
// zero-allocation append encoder is installed as the fast path; the
// json.Marshal closure remains the semantic reference the equivalence
// suite compares against.
func SurveyJSONL(path string) *pipeline.JSONL[CorpusTrialParams, SurveyResult] {
	return pipeline.NewJSONL(path, func(i int, p CorpusTrialParams, r SurveyResult) (any, error) {
		return r, nil
	}).WithAppender(pipeline.AppendFunc[CorpusTrialParams, SurveyResult](AppendSurveyResultLine))
}

// surveyAgg is one aggregation cell of the survey summary.
type surveyAgg struct {
	Trials     int `json:"trials"`
	Broken     int `json:"broken"`
	Complete   int `json:"complete"`
	Clean      int `json:"clean"`
	Identified int `json:"identified"`
	Success    int `json:"success"`
}

func (a *surveyAgg) add(r SurveyResult) {
	a.Trials++
	if r.Broken {
		a.Broken++
	}
	if r.PageComplete {
		a.Complete++
	}
	if r.TargetClean {
		a.Clean++
	}
	if r.TargetIdentified {
		a.Identified++
	}
	if r.Success {
		a.Success++
	}
}

func pct(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

// surveySummaryState is the summary's checkpoint/serialization form.
type surveySummaryState struct {
	Total   surveyAgg             `json:"total"`
	Buckets []surveyAgg           `json:"buckets"` // indexed like objectBucketLabels
	Shapes  map[string]*surveyAgg `json:"shapes"`
}

// SurveySummary is the campaign's aggregate exporter: attack accuracy
// by site-size bucket and by schedule shape. It is checkpointable —
// its counters serialize into the campaign checkpoint, so a resumed
// campaign's summary covers every trial, not just the resumed
// portion.
type SurveySummary struct {
	st surveySummaryState
}

// NewSurveySummary builds an empty summary exporter.
func NewSurveySummary() *SurveySummary {
	return &SurveySummary{st: surveySummaryState{
		Buckets: make([]surveyAgg, len(objectBucketLabels)),
		Shapes:  make(map[string]*surveyAgg),
	}}
}

// Name implements pipeline.Exporter.
func (s *SurveySummary) Name() string { return "summary" }

// Begin implements pipeline.Exporter.
func (s *SurveySummary) Begin(pipeline.Meta) error { return nil }

// Export implements pipeline.Exporter.
func (s *SurveySummary) Export(i int, p CorpusTrialParams, r SurveyResult) error {
	s.st.Total.add(r)
	s.st.Buckets[objectBucket(r.Objects)].add(r)
	agg := s.st.Shapes[r.Shape]
	if agg == nil {
		agg = &surveyAgg{}
		s.st.Shapes[r.Shape] = agg
	}
	agg.add(r)
	return nil
}

// Checkpoint implements pipeline.Exporter.
func (s *SurveySummary) Checkpoint() (json.RawMessage, error) {
	return json.Marshal(&s.st)
}

// Restore implements pipeline.Exporter.
func (s *SurveySummary) Restore(state json.RawMessage) error {
	st := surveySummaryState{Shapes: make(map[string]*surveyAgg)}
	if err := json.Unmarshal(state, &st); err != nil {
		return fmt.Errorf("summary state: %w", err)
	}
	if len(st.Buckets) > len(objectBucketLabels) {
		return fmt.Errorf("summary state: %d buckets, want at most %d", len(st.Buckets), len(objectBucketLabels))
	}
	for name, agg := range st.Shapes {
		if agg == nil {
			return fmt.Errorf("summary state: shape %q has no counters", name)
		}
	}
	for len(st.Buckets) < len(objectBucketLabels) {
		st.Buckets = append(st.Buckets, surveyAgg{})
	}
	if st.Shapes == nil {
		st.Shapes = make(map[string]*surveyAgg)
	}
	s.st = st
	return nil
}

// Close implements pipeline.Exporter.
func (s *SurveySummary) Close(bool) error { return nil }

// Total returns the campaign-wide aggregate counters
// (trials/broken/complete/clean/identified/success).
func (s *SurveySummary) Total() (trials, success int) {
	return s.st.Total.Trials, s.st.Total.Success
}

// Format renders the accuracy summary as a text table, rows in a
// fixed deterministic order (size buckets, then shapes sorted by
// name, then the total).
func (s *SurveySummary) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Survey campaign: attack accuracy across the synthetic corpus\n")
	fmt.Fprintf(&b, "%-16s %8s %8s %9s %8s %8s %8s\n",
		"segment", "trials", "broken%", "complete%", "clean%", "ident%", "success%")
	row := func(label string, a surveyAgg) {
		if a.Trials == 0 {
			return
		}
		fmt.Fprintf(&b, "%-16s %8d %8.1f %9.1f %8.1f %8.1f %8.1f\n",
			label, a.Trials, pct(a.Broken, a.Trials), pct(a.Complete, a.Trials),
			pct(a.Clean, a.Trials), pct(a.Identified, a.Trials), pct(a.Success, a.Trials))
	}
	for i, label := range objectBucketLabels {
		row(label, s.st.Buckets[i])
	}
	shapes := make([]string, 0, len(s.st.Shapes))
	for name := range s.st.Shapes {
		shapes = append(shapes, name)
	}
	sort.Strings(shapes)
	for _, name := range shapes {
		row("shape "+name, *s.st.Shapes[name])
	}
	row("total", s.st.Total)
	return b.String()
}
