package pipeline

// Generator describes one campaign: a name, a trial count, and the
// parameters of each trial. It is the pipeline's importer stage.
//
// Params must be a cheap pure function of the trial index — the
// pipeline calls it once on a worker to execute the trial and once at
// export time, and a resumed campaign calls it again for re-run
// indices. Anything expensive a trial needs (a built site model, a
// session stack) belongs in the worker state, derived from the
// parameters, not in the parameters themselves.
type Generator[P any] interface {
	// Name identifies the campaign (used in checkpoint files,
	// progress lines, and exporter metadata).
	Name() string

	// Trials is the campaign size.
	Trials() int

	// Params returns trial i's parameters.
	Params(i int) P

	// Fingerprint is a stable string identifying the campaign's full
	// configuration (generator parameters, seeds, trial counts). A
	// checkpoint records it and resume refuses to continue under a
	// different fingerprint, because mixed-configuration output would
	// be silently meaningless.
	Fingerprint() string
}

// PanicResulter is implemented by a Generator whose panicked trials
// export a verdict of their own: Run exports PanicResult(p) in place
// of R's zero value and still reports the trial in Summary.Failures.
// It runs on the export path, so it must not panic.
type PanicResulter[P, R any] interface {
	PanicResult(p P) R
}

// Fixed is the simplest Generator: n trials whose parameters come
// from a function of the index. The paper's six sweeps are Fixed
// generators over their configuration grids.
type Fixed[P any] struct {
	// CampaignName is the Name() value.
	CampaignName string

	// N is the trial count.
	N int

	// Fn builds trial i's parameters.
	Fn func(i int) P

	// FP is the Fingerprint() value; leave empty for campaigns that
	// never checkpoint (the in-memory sweeps).
	FP string
}

// Name implements Generator.
func (f Fixed[P]) Name() string { return f.CampaignName }

// Trials implements Generator.
func (f Fixed[P]) Trials() int { return f.N }

// Params implements Generator.
func (f Fixed[P]) Params(i int) P { return f.Fn(i) }

// Fingerprint implements Generator.
func (f Fixed[P]) Fingerprint() string { return f.FP }
