package core

import (
	"repro/internal/trace"
	"repro/internal/website"
)

// PairInference identifies a *set* of objects from consecutive
// delimited runs whose individual sums match nothing: when two
// transmissions interleave (Figure 1 case 2), the bytes between
// delimiters are mixtures, but the total across the affected runs is
// still the sum of the objects' sizes. This implements the paper's
// section VII "possible extension... to infer the object identity
// even when the object is partly multiplexed".
type PairInference struct {
	// Objects are the identified set (unordered — interleaving
	// destroys order information).
	Objects []*website.Object

	// EstSize is the summed size of the spanned runs.
	EstSize int

	// Runs is how many consecutive runs the span covers.
	Runs int
}

// InferPairs post-processes the record stream: runs that match a
// single object are reported as usual; consecutive unmatched runs are
// tested as sums of two distinct site objects. Only unambiguous
// matches (a unique pair within tolerance) are reported.
func (p *Predictor) InferPairs(records []trace.RecordObs) []PairInference {
	base := p.Infer(records)
	var out []PairInference
	i := 0
	for i < len(base) {
		if base[i].Object != nil {
			out = append(out, PairInference{
				Objects: []*website.Object{base[i].Object},
				EstSize: base[i].EstSize,
				Runs:    1,
			})
			i++
			continue
		}
		// Grow a span of consecutive unmatched runs (up to 3) and try
		// pair decomposition on each prefix.
		matched := false
		total := 0
		for span := 1; span <= 3 && i+span <= len(base); span++ {
			if base[i+span-1].Object != nil {
				break
			}
			total += base[i+span-1].EstSize
			if pair, ok := p.uniquePair(total); ok {
				out = append(out, PairInference{Objects: pair, EstSize: total, Runs: span})
				i += span
				matched = true
				break
			}
		}
		if !matched {
			i++
		}
	}
	return out
}

// uniquePair finds the single unordered pair of distinct site objects
// whose sizes sum to total within twice the tolerance (each boundary
// contributes its own estimation error). Ambiguous totals return
// false.
func (p *Predictor) uniquePair(total int) ([]*website.Object, bool) {
	tol := 2 * tolerance
	var found []*website.Object
	objs := p.Site.Objects
	for a := 0; a < len(objs); a++ {
		for b := a + 1; b < len(objs); b++ {
			sum := objs[a].Size + objs[b].Size
			diff := sum - total
			if diff < 0 {
				diff = -diff
			}
			if diff <= tol {
				if found != nil {
					return nil, false // ambiguous
				}
				found = []*website.Object{&objs[a], &objs[b]}
			}
		}
	}
	return found, found != nil
}

// ContainsObject reports whether the inference set includes the
// object.
func (pi PairInference) ContainsObject(objectID int) bool {
	for _, o := range pi.Objects {
		if o != nil && o.ID == objectID {
			return true
		}
	}
	return false
}

// IdentifiedInPairs reports whether any (single or pair) inference
// includes the object.
func IdentifiedInPairs(infs []PairInference, objectID int) bool {
	for _, pi := range infs {
		if pi.ContainsObject(objectID) {
			return true
		}
	}
	return false
}
