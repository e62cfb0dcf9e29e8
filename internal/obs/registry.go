package obs

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"time"
)

// Registry is the merge point of one sweep's metrics: it hands out
// per-worker Shards (NewShard is safe to call from worker goroutines)
// and merges them into a Snapshot at sweep end. Segment labels, when
// set, give each configuration of a sweep its own aggregate (the
// jitter values of Table I, the drop rates of §IV-D, …), so the
// summary can show how a counter moves across the sweep axis.
//
// The registry also accumulates the only wall-clock metrics in the
// stack — per-trial latency samples fed by the runner — under its own
// lock, kept strictly apart from the deterministic sim-domain cells.
type Registry struct {
	mu     sync.Mutex
	labels []string
	shards []*Shard

	wallHist  Hist
	wallCount uint64
	start     time.Time
}

// NewRegistry returns an empty single-segment registry.
func NewRegistry() *Registry {
	return &Registry{labels: []string{"all"}, start: time.Now()}
}

// SetSegments declares the sweep's configuration axis: one label per
// segment, in sweep order. Must be called before any NewShard;
// calling it later panics, because existing shards were sized for the
// old segment count.
func (r *Registry) SetSegments(labels ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.shards) > 0 {
		panic("obs: SetSegments after NewShard")
	}
	if len(labels) == 0 {
		labels = []string{"all"}
	}
	r.labels = append([]string(nil), labels...)
}

// NewShard allocates one worker's shard, registered for the final
// merge. Safe for concurrent use (runner workers build their state
// concurrently).
func (r *Registry) NewShard() *Shard {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Shard{segs: make([]block, len(r.labels))}
	r.shards = append(r.shards, s)
	return s
}

// ObserveTrialWall folds one trial's wall-clock latency into the wall
// section under the registry lock. Safe for concurrent use, but the
// hot path should prefer the worker's Shard.ObserveTrialWall — the
// snapshot merges both.
func (r *Registry) ObserveTrialWall(d time.Duration) {
	r.mu.Lock()
	r.wallHist.Observe(int64(d))
	r.wallCount++
	r.mu.Unlock()
}

// Snapshot merges every shard into one aggregate. Because all cells
// are integers and merging is addition, the sim-domain sections are
// identical for any partition of the same trials across shards — the
// worker-count determinism guarantee. Each shard is merged under its
// trial lock, so a snapshot taken while workers run covers whole
// trials only.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := &Snapshot{Elapsed: time.Since(r.start)}
	merged := make([]block, len(r.labels))
	wall := r.wallHist
	trials := r.wallCount
	for _, s := range r.shards {
		s.Lock()
		for i := range merged {
			if i < len(s.segs) {
				merged[i].merge(&s.segs[i])
			}
		}
		wall.Merge(&s.wall)
		trials += s.wall.Count
		s.Unlock()
	}
	for i, label := range r.labels {
		snap.Segments = append(snap.Segments, segmentFromBlock(label, &merged[i]))
	}
	if trials > 0 {
		snap.Wall = &WallSnapshot{Trials: trials, Hist: wall}
	}
	return snap
}

// segmentFromBlock renders one merged block as a segment snapshot:
// only non-zero cells, in schema declaration order. Both
// Registry.Snapshot and Snapshot.Merge emit through this, so a merged
// snapshot is formatted exactly like a natively-collected one.
func segmentFromBlock(label string, merged *block) SegmentSnapshot {
	seg := SegmentSnapshot{Label: label}
	for c := Counter(0); c < counterCount; c++ {
		if v := merged.counters[c]; v != 0 {
			seg.Counters = append(seg.Counters, CounterValue{Name: c.String(), Value: v})
		}
	}
	for h := HistID(0); h < histCount; h++ {
		hv := merged.hists[h]
		if hv.Count != 0 {
			seg.Hists = append(seg.Hists, HistValue{Name: h.String(), Hist: hv})
		}
	}
	return seg
}

// CounterValue is one named counter total in a snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// HistValue is one named histogram in a snapshot.
type HistValue struct {
	Name string `json:"name"`
	Hist Hist   `json:"-"`
}

// histBucketJSON is the compressed on-wire form of one non-empty
// histogram bucket: the bucket's inclusive upper bound 2^i - 1 and
// its count. The bucket index is recoverable as bits.Len64(le), so
// the encoding is lossless.
type histBucketJSON struct {
	UpperBound uint64 `json:"le"`
	Count      uint64 `json:"count"`
}

// packBuckets compresses a histogram's non-empty buckets.
func packBuckets(h *Hist) []histBucketJSON {
	var bs []histBucketJSON
	for i, c := range h.Buckets {
		if c != 0 {
			bs = append(bs, histBucketJSON{UpperBound: 1<<uint(i) - 1, Count: c})
		}
	}
	return bs
}

// unpackBuckets reverses packBuckets into a zeroed histogram's bucket
// array. Count and sum are carried separately on the wire, so the
// bucket counts must sum to h.Count: a document where they do not is
// rejected rather than merged into nonsense quantiles.
func unpackBuckets(h *Hist, bs []histBucketJSON) error {
	var total, carry uint64
	for _, b := range bs {
		i := bits.Len64(b.UpperBound)
		if i >= histBuckets || b.UpperBound != 1<<uint(i)-1 {
			return fmt.Errorf("obs: bad histogram bucket bound %d", b.UpperBound)
		}
		if total, carry = bits.Add64(total, b.Count, 0); carry != 0 {
			return fmt.Errorf("obs: histogram bucket counts overflow")
		}
		h.Buckets[i] += b.Count
	}
	if total != h.Count {
		return fmt.Errorf("obs: histogram bucket counts sum to %d, count is %d", total, h.Count)
	}
	return nil
}

// MarshalJSON exports the histogram as summary statistics plus its
// non-empty buckets (bucket i covers [2^(i-1), 2^i), bucket 0 is
// exactly zero).
func (h HistValue) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Name    string           `json:"name"`
		Count   uint64           `json:"count"`
		Sum     uint64           `json:"sum"`
		P50     uint64           `json:"p50_le"`
		P99     uint64           `json:"p99_le"`
		Buckets []histBucketJSON `json:"buckets,omitempty"`
	}{h.Name, h.Hist.Count, h.Hist.Sum, h.Hist.Quantile(0.50), h.Hist.Quantile(0.99), packBuckets(&h.Hist)})
}

// UnmarshalJSON reverses MarshalJSON: the full histogram is
// reconstructed from the compressed bucket list plus count and sum
// (the quantile fields are derived and ignored). This is what makes a
// Snapshot round-trippable across a process boundary for shard-bundle
// merging.
func (h *HistValue) UnmarshalJSON(data []byte) error {
	var in struct {
		Name    string           `json:"name"`
		Count   uint64           `json:"count"`
		Sum     uint64           `json:"sum"`
		Buckets []histBucketJSON `json:"buckets"`
	}
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	h.Name = in.Name
	h.Hist = Hist{Count: in.Count, Sum: in.Sum}
	return unpackBuckets(&h.Hist, in.Buckets)
}

// SegmentSnapshot is the merged cells of one sweep configuration.
// Only non-zero metrics appear, in schema declaration order.
type SegmentSnapshot struct {
	Label    string         `json:"label"`
	Counters []CounterValue `json:"counters,omitempty"`
	Hists    []HistValue    `json:"histograms,omitempty"`
}

// Counter returns a segment counter's total by export name (0 when
// absent).
func (s *SegmentSnapshot) Counter(name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// WallSnapshot is the non-deterministic wall-clock section.
type WallSnapshot struct {
	Trials uint64 `json:"trials"`
	Hist   Hist   `json:"-"`
}

// MarshalJSON exports the wall section's summary statistics plus the
// full latency bucket list, so a serialized shard snapshot carries
// enough to aggregate wall sections across processes.
func (w *WallSnapshot) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Trials     uint64           `json:"trials"`
		SumNanos   uint64           `json:"sum_ns"`
		MeanNanos  uint64           `json:"mean_ns"`
		P50LENanos uint64           `json:"p50_le_ns"`
		P99LENanos uint64           `json:"p99_le_ns"`
		Buckets    []histBucketJSON `json:"buckets,omitempty"`
	}{w.Trials, w.Hist.Sum, uint64(w.Hist.Mean()), w.Hist.Quantile(0.50), w.Hist.Quantile(0.99), packBuckets(&w.Hist)})
}

// UnmarshalJSON reverses MarshalJSON (derived statistics are
// recomputed from the buckets, not trusted from the wire).
func (w *WallSnapshot) UnmarshalJSON(data []byte) error {
	var in struct {
		Trials   uint64           `json:"trials"`
		SumNanos uint64           `json:"sum_ns"`
		Buckets  []histBucketJSON `json:"buckets"`
	}
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	*w = WallSnapshot{Trials: in.Trials, Hist: Hist{Count: in.Trials, Sum: in.SumNanos}}
	return unpackBuckets(&w.Hist, in.Buckets)
}

// Snapshot is a merged view of one registry, produced by
// Registry.Snapshot. Segments are deterministic (sim-domain integer
// sums); Wall and Elapsed are wall-clock and excluded from
// DeterministicText.
type Snapshot struct {
	Segments []SegmentSnapshot `json:"segments"`
	Wall     *WallSnapshot     `json:"wall,omitempty"`
	Elapsed  time.Duration     `json:"elapsed_ns,omitempty"`
}

// Segment returns the snapshot segment with the given label, or nil.
func (s *Snapshot) Segment(label string) *SegmentSnapshot {
	for i := range s.Segments {
		if s.Segments[i].Label == label {
			return &s.Segments[i]
		}
	}
	return nil
}

// counterIndex and histIndex map export names back to schema indices,
// for folding a deserialized snapshot into block cells.
var counterIndex = func() map[string]Counter {
	m := make(map[string]Counter, counterCount)
	for c := Counter(0); c < counterCount; c++ {
		m[c.String()] = c
	}
	return m
}()

var histIndex = func() map[string]HistID {
	m := make(map[string]HistID, histCount)
	for h := HistID(0); h < histCount; h++ {
		m[h.String()] = h
	}
	return m
}()

// toBlock folds a segment snapshot back into raw metric cells. An
// export name absent from the compiled schema is an error: it means
// the snapshot came from a different build of the schema and integer
// merging would silently misattribute its cells.
func (s *SegmentSnapshot) toBlock() (*block, error) {
	var b block
	for _, c := range s.Counters {
		idx, ok := counterIndex[c.Name]
		if !ok {
			return nil, fmt.Errorf("obs: unknown counter %q in snapshot", c.Name)
		}
		b.counters[idx] += c.Value
	}
	for i := range s.Hists {
		h := &s.Hists[i]
		idx, ok := histIndex[h.Name]
		if !ok {
			return nil, fmt.Errorf("obs: unknown histogram %q in snapshot", h.Name)
		}
		b.hists[idx].Merge(&h.Hist)
	}
	return &b, nil
}

// Merge folds o's cells into s. Both snapshots must have the same
// segment labels in the same order (shards of one campaign share the
// registry's segment configuration). Segment cells merge by integer
// addition through the same block path Registry.Snapshot uses, so
// merging is commutative and partition-invariant: merging N shard
// snapshots of a campaign yields byte-identical DeterministicText to
// running the whole campaign in one process. Wall sections aggregate
// (histograms merge, trial counts add) rather than keeping one
// shard's values; Elapsed becomes the maximum, since shard processes
// run concurrently.
func (s *Snapshot) Merge(o *Snapshot) error {
	if len(s.Segments) != len(o.Segments) {
		return fmt.Errorf("obs: segment count mismatch: %d vs %d", len(s.Segments), len(o.Segments))
	}
	for i := range s.Segments {
		a, b := &s.Segments[i], &o.Segments[i]
		if a.Label != b.Label {
			return fmt.Errorf("obs: segment label mismatch at %d: %q vs %q", i, a.Label, b.Label)
		}
		ab, err := a.toBlock()
		if err != nil {
			return err
		}
		bb, err := b.toBlock()
		if err != nil {
			return err
		}
		ab.merge(bb)
		s.Segments[i] = segmentFromBlock(a.Label, ab)
	}
	if o.Wall != nil {
		if s.Wall == nil {
			s.Wall = &WallSnapshot{}
		}
		s.Wall.Trials += o.Wall.Trials
		s.Wall.Hist.Merge(&o.Wall.Hist)
	}
	if o.Elapsed > s.Elapsed {
		s.Elapsed = o.Elapsed
	}
	return nil
}

// Deterministic returns a copy of the snapshot with the wall-clock
// sections (Wall, Elapsed) dropped: the JSON-export view that must be
// byte-identical at any worker count and for any process sharding.
func (s *Snapshot) Deterministic() *Snapshot {
	return &Snapshot{Segments: s.Segments}
}

// DeterministicText renders only the sim-domain sections: identical
// strings for identical trial sets at any worker count. This is the
// artifact the determinism tests compare.
func (s *Snapshot) DeterministicText() string {
	var b strings.Builder
	s.writeSegments(&b)
	return b.String()
}

// Text renders the full summary: the deterministic segments plus the
// wall-clock section (per-trial latency and trials/s).
func (s *Snapshot) Text() string {
	var b strings.Builder
	s.writeSegments(&b)
	if s.Wall != nil {
		fmt.Fprintf(&b, "wall clock:\n")
		fmt.Fprintf(&b, "  %-28s %d\n", "trials", s.Wall.Trials)
		fmt.Fprintf(&b, "  %-28s mean=%s p50<=%s p99<=%s\n", "trial latency",
			time.Duration(s.Wall.Hist.Mean()).Round(time.Microsecond),
			time.Duration(s.Wall.Hist.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(s.Wall.Hist.Quantile(0.99)).Round(time.Microsecond))
		if s.Elapsed > 0 {
			fmt.Fprintf(&b, "  %-28s %.0f\n", "trials/s",
				float64(s.Wall.Trials)/s.Elapsed.Seconds())
		}
	}
	return b.String()
}

// writeSegments renders each segment's non-zero counters and
// histogram summaries.
func (s *Snapshot) writeSegments(b *strings.Builder) {
	for i := range s.Segments {
		seg := &s.Segments[i]
		fmt.Fprintf(b, "segment %s:\n", seg.Label)
		for _, c := range seg.Counters {
			fmt.Fprintf(b, "  %-28s %d\n", c.Name, c.Value)
		}
		for _, h := range seg.Hists {
			fmt.Fprintf(b, "  %-28s count=%d mean=%.0f p50<=%d p99<=%d\n",
				h.Name, h.Hist.Count, h.Hist.Mean(), h.Hist.Quantile(0.50), h.Hist.Quantile(0.99))
		}
	}
}

// MarshalSweeps serializes a map of sweep name → snapshot as stable,
// sorted JSON — the -metrics-json export, shaped like the BENCH_*.json
// flow (one object per sweep under a top-level key). Only the
// deterministic sections are exported (wall-clock stays in the
// human-readable -metrics text), so the file is byte-identical for
// the same trials at any worker count and for any process sharding —
// the property the shard-merge CI gate cmp's.
// The document is built by the append fast path (AppendSweeps); the
// equivalence test pins it byte-for-byte against the reflection
// encoding it replaced.
func MarshalSweeps(sweeps map[string]*Snapshot) ([]byte, error) {
	return AppendSweeps(nil, sweeps), nil
}
