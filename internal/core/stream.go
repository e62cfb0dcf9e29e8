package core

import (
	"repro/internal/analysis"
	"repro/internal/obs"
	"repro/internal/trace"
)

// StreamInference is the adversary's inference engine: the paper's
// size side channel evaluated as the records appear on the wire. It
// feeds every tapped record through the incremental segmentation
// engine (analysis.Segmenter) and matches each completed run against
// the predictor's primed size table the moment its delimiting record
// arrives, counting it as identified or unknown and emitting an
// obs.EvPredRun flight-recorder event per run. An armed Attack runs
// one online; Predictor.Infer replays a stored record slice through a
// fresh one.
//
// The engine owns its inference slice and segmentation state and
// reuses both across trials, so once grown to a trial's high-water
// mark a steady-state trial infers without allocating.
type StreamInference struct {
	p    *Predictor
	seg  analysis.Segmenter
	infs []Inference
	sink obs.Sink
}

// Start rewinds the engine for a new trial: the predictor's size
// table is primed (a no-op when the site is unchanged, so a worker
// running K trials per site sorts it once), the segmenter reset and
// the inference buffer emptied.
func (s *StreamInference) Start(p *Predictor, sink obs.Sink) {
	s.p = p
	s.sink = sink
	p.Prime()
	s.seg.Reset(segmentConfig)
	s.infs = s.infs[:0]
}

// Observe ingests one tapped record observation in arrival order. The
// segmenter filters to server→client application data itself, so the
// monitor can hand over every record it parses.
func (s *StreamInference) Observe(r trace.RecordObs) {
	run, ok := s.seg.Feed(r)
	if !ok {
		return
	}
	inf := Inference{EstSize: run.Size, Start: run.Start, End: run.End, Records: run.Records}
	inf.Object = s.p.matchPrimed(run.Size)
	s.infs = append(s.infs, inf)
	obj := int64(-1)
	if inf.Object != nil {
		obj = int64(inf.Object.ID)
		s.sink.Inc(obs.CPredIdentified)
	} else {
		s.sink.Inc(obs.CPredUnknown)
	}
	s.sink.Event(run.End, obs.EvPredRun, int64(run.Size), obj)
}

// Inferences returns the runs classified so far. The slice is owned
// by the engine: valid until the next Start, not to be retained
// across trials.
func (s *StreamInference) Inferences() []Inference { return s.infs }
