// Package website models the content and client request behaviour of
// the target websites: object inventories (paths, sizes, kinds) and
// the schedule in which a browser requests them, including the
// isidewith.com-like survey site the paper attacks (result HTML of
// ~9500 bytes requested 6th, 47 embedded objects, and 8 party-emblem
// images of 5–16 KB requested in the survey-result order).
package website

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Kind classifies an object. The enum starts at 1 so the zero value
// is invalid.
type Kind uint8

const (
	KindHTML Kind = iota + 1
	KindScript
	KindStyle
	KindImage
	KindFont
)

var kindNames = map[Kind]string{
	KindHTML:   "html",
	KindScript: "js",
	KindStyle:  "css",
	KindImage:  "image",
	KindFont:   "font",
}

// String returns a short kind name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Object is one resource served by the site.
type Object struct {
	ID    int
	Path  string
	Size  int // plaintext body size in bytes
	Kind  Kind
	Label string // semantic identity, e.g. the party an emblem denotes
}

// RequestSpec is one entry of the client's request schedule.
type RequestSpec struct {
	ObjectID int

	// Gap is the interval between issuing the previous request and
	// this one (the paper's Table II inter-request times).
	Gap time.Duration
}

// Site is a website model: its objects and the default order a
// client requests them in.
type Site struct {
	Name     string
	Objects  []Object
	Schedule []RequestSpec

	// DisplayOrder is the survey outcome: DisplayOrder[i] is the party
	// displayed i-th on the result page. Under the canonical-order
	// defence this differs from the request order.
	DisplayOrder [PartyCount]int

	byPath map[string]int
}

// Finalize builds lookup indexes; call after constructing a Site by
// hand. Builders in this package return finalized sites.
func (s *Site) Finalize() {
	s.byPath = make(map[string]int, len(s.Objects))
	for i, o := range s.Objects {
		s.byPath[o.Path] = i
	}
}

// ObjectByPath returns the object served at path.
func (s *Site) ObjectByPath(path string) (Object, bool) {
	i, ok := s.byPath[path]
	if !ok {
		return Object{}, false
	}
	return s.Objects[i], true
}

// Object returns the object with the given ID.
func (s *Site) Object(id int) (Object, bool) {
	for _, o := range s.Objects {
		if o.ID == id {
			return o, true
		}
	}
	return Object{}, false
}

// ScheduleIndex returns the position (1-based) of the first request
// for objectID in the schedule, or 0 if absent.
func (s *Site) ScheduleIndex(objectID int) int {
	for i, r := range s.Schedule {
		if r.ObjectID == objectID {
			return i + 1
		}
	}
	return 0
}

// PartyCount is the number of political parties (emblem images) on
// the survey-result page.
const PartyCount = 8

// PartyLabels are the semantic identities of the emblem images.
var PartyLabels = [PartyCount]string{
	"party-A", "party-B", "party-C", "party-D",
	"party-E", "party-F", "party-G", "party-H",
}

// EmblemSizes are the unique image sizes (bytes), one per party,
// spanning the paper's 5–16 KB range. Every size leaves a healthy
// sub-chunk tail so the delimiting record is never mistaken for
// protocol chatter (the paper's "rarely equal to the MTU" caveat).
var EmblemSizes = [PartyCount]int{
	5243, 6781, 8012, 9318, 10842, 12207, 13956, 15580,
}

// ResultHTMLSize is the size of the survey-result HTML file the paper
// targets (~9500 bytes, the 6th object requested).
const ResultHTMLSize = 9500

// ResultHTMLID is the object ID of the result HTML.
const ResultHTMLID = 6

// EmblemID returns the object ID of the emblem for party p (0-based).
func EmblemID(p int) int { return 100 + p }

// msf converts fractional milliseconds to a Duration.
func msf(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}

// Survey builds the isidewith.com-like site model. order is the
// survey outcome: order[i] is the party (0-based) whose emblem the
// client requests i-th; it is also the display order on the result
// page. The embedded-object inventory is fixed; only the image
// request order varies between trials.
//
// The request schedule follows the paper's measured inter-request
// gaps (Table II): the result HTML is the 6th request, preceded by a
// 500 ms gap and followed after 160 ms by further embedded objects;
// the 8 emblem images arrive near the end in one sub-millisecond
// burst triggered by a script.
func Survey(order [PartyCount]int) *Site {
	return SurveyCustom(order, SurveyOptions{})
}

// SurveyOptions tune per-trial client-side variation of the survey
// site and the paper's section VII defence proposals.
type SurveyOptions struct {
	// HTMLGap is the pause before the result-HTML request (browser
	// parse/render and user think time; it varies widely between
	// sessions). Zero means 250ms.
	HTMLGap time.Duration

	// CanonicalImageOrder is the paper's section VII ordering defence:
	// the client requests the emblem images in a fixed canonical order
	// (party 0..7) instead of the display order, so the request
	// sequence carries no information about the survey outcome. The
	// display order (the secret) is still recorded in DisplayOrder.
	CanonicalImageOrder bool

	// PadBucket, when nonzero, pads every object size up to the next
	// multiple of PadBucket bytes — the classic size-obfuscation
	// defence. Colliding padded sizes make the adversary's size table
	// ambiguous.
	PadBucket int
}

// SurveyCustom builds the survey site with explicit options.
func SurveyCustom(order [PartyCount]int, opts SurveyOptions) *Site {
	if opts.HTMLGap == 0 {
		opts.HTMLGap = 250 * time.Millisecond
	}
	site := &Site{Name: "isidewith-survey", DisplayOrder: order}

	// Embedded support objects. Sizes are a fixed, deterministic
	// inventory of small-to-moderate assets; all sizes keep a >=150
	// byte distance from every emblem size so the adversary's
	// size->identity table is unambiguous. 47 embedded objects + the
	// result HTML, as in the paper.
	rng := sim.NewRand(20200622) // fixed: the site itself does not vary
	used := make(map[int]bool)
	for _, s := range EmblemSizes {
		used[s] = true
	}
	used[ResultHTMLSize] = true
	distinct := func(want int) int {
		for {
			ok := true
			for u := range used {
				d := want - u
				if d < 0 {
					d = -d
				}
				if d < 150 {
					ok = false
					break
				}
			}
			if ok {
				used[want] = true
				return want
			}
			want += 151
		}
	}
	addObj := func(id int, kind Kind, size int, label string) {
		site.Objects = append(site.Objects, Object{
			ID:    id,
			Path:  fmt.Sprintf("/assets/%s-%d.%s", kind, id, kind),
			Size:  distinct(size),
			Kind:  kind,
			Label: label,
		})
	}

	// Objects 1..5: the page skeleton fetched just before the result
	// HTML. Moderate sizes: their transmissions chain into the HTML's
	// window when the connection is congested, but an adversary
	// spacing requests ~50ms apart serializes them (paper Fig. 2).
	addObj(1, KindHTML, 2800, "shell")
	addObj(2, KindStyle, 14200, "main-css")
	addObj(3, KindScript, 17800, "app-js")
	addObj(4, KindScript, 12600, "vendor-js")
	addObj(5, KindImage, 9900, "banner")

	// Object 6: the result HTML the paper targets.
	site.Objects = append(site.Objects, Object{
		ID:    ResultHTMLID,
		Path:  "/results/2020-presidential-quiz",
		Size:  ResultHTMLSize,
		Kind:  KindHTML,
		Label: "result-html",
	})

	// Objects 7..44: remaining embedded assets (38 of them), small to
	// moderate sizes.
	for id := 7; id <= 44; id++ {
		kind := KindImage
		switch id % 4 {
		case 0:
			kind = KindScript
		case 1:
			kind = KindStyle
		}
		addObj(id, kind, 1200+rng.Intn(11000), fmt.Sprintf("asset-%d", id))
	}

	// Objects 100..107: the 8 party emblems, unique sizes 5-16 KB.
	for p := 0; p < PartyCount; p++ {
		site.Objects = append(site.Objects, Object{
			ID:    EmblemID(p),
			Path:  fmt.Sprintf("/img/emblems/%s.png", PartyLabels[p]),
			Size:  EmblemSizes[p],
			Kind:  KindImage,
			Label: PartyLabels[p],
		})
	}

	// Request schedule. The image-burst gaps follow Table II; the gap
	// before the result HTML is a small parser pause (see
	// EXPERIMENTS.md for why the paper's 500 ms reading is modelled
	// this way), and the asset wave resumes 160 ms after the HTML.
	sched := []RequestSpec{
		{ObjectID: 1, Gap: 0},
		{ObjectID: 2, Gap: msf(8)},
		{ObjectID: 3, Gap: msf(1.5)},
		{ObjectID: 4, Gap: msf(0.8)},
		{ObjectID: 5, Gap: msf(6)},
		{ObjectID: ResultHTMLID, Gap: opts.HTMLGap},
	}
	// 160 ms after the HTML, the embedded-asset burst resumes.
	gap := 160.0
	for id := 7; id <= 44; id++ {
		sched = append(sched, RequestSpec{ObjectID: id, Gap: msf(gap)})
		// Bursty: most assets follow within a millisecond, with
		// occasional parser pauses.
		switch id % 7 {
		case 0:
			gap = 18
		case 3:
			gap = 5
		default:
			gap = 0.6
		}
	}
	// The script-triggered image burst (Table II gaps):
	// I1 arrives 780 ms after its predecessor, then
	// 0.4, 2, 0.3, 0.1, 0.3, 2, 0.5 ms between successive images.
	imageGaps := [PartyCount]float64{780, 0.4, 2, 0.3, 0.1, 0.3, 2, 0.5}
	reqOrder := order
	if opts.CanonicalImageOrder {
		reqOrder = IdentityPermutation()
	}
	for i, p := range reqOrder {
		sched = append(sched, RequestSpec{ObjectID: EmblemID(p), Gap: msf(imageGaps[i])})
	}
	// A trailing beacon request 26 ms after the last image (Table II).
	site.Objects = append(site.Objects, Object{
		ID: 45, Path: "/metrics/beacon", Size: 900, Kind: KindScript, Label: "beacon",
	})
	sched = append(sched, RequestSpec{ObjectID: 45, Gap: msf(26)})

	site.Schedule = sched
	if opts.PadBucket > 0 {
		for i := range site.Objects {
			site.Objects[i].Size = padTo(site.Objects[i].Size, opts.PadBucket)
		}
	}
	site.Finalize()
	return site
}

// SurveyBuilder caches one built survey site and applies the
// per-trial variation in place, so a reused trial world does not pay
// the full SurveyCustom construction (object inventory, paths, size
// de-collision) on every trial. Only three things vary between trials
// of the same sweep: the display order, the order the emblem images
// are requested in, and the think-time gap before the result HTML —
// all of which Build rewrites on the cached site. A change of
// PadBucket changes object sizes and forces a rebuild.
//
// The returned site is shared across Build calls: callers must treat
// it as valid only until the next Build.
type SurveyBuilder struct {
	site      *Site
	padBucket int
}

// Build returns the survey site for the given outcome and options,
// reusing the cached site when only per-trial fields changed. It is
// equivalent to SurveyCustom(order, opts) by construction.
func (b *SurveyBuilder) Build(order [PartyCount]int, opts SurveyOptions) *Site {
	if opts.HTMLGap == 0 {
		opts.HTMLGap = 250 * time.Millisecond
	}
	if b.site == nil || b.padBucket != opts.PadBucket {
		b.site = SurveyCustom(order, opts)
		b.padBucket = opts.PadBucket
		return b.site
	}
	site := b.site
	site.DisplayOrder = order
	sched := site.Schedule
	// Schedule layout (see SurveyCustom): the result HTML is entry 5,
	// the emblem burst occupies the 8 entries before the trailing
	// beacon.
	sched[5].Gap = opts.HTMLGap
	reqOrder := order
	if opts.CanonicalImageOrder {
		reqOrder = IdentityPermutation()
	}
	base := len(sched) - 1 - PartyCount
	for i, p := range reqOrder {
		sched[base+i].ObjectID = EmblemID(p)
	}
	return site
}

// padTo rounds n up to the next multiple of bucket.
func padTo(n, bucket int) int {
	if bucket <= 0 {
		return n
	}
	if rem := n % bucket; rem != 0 {
		n += bucket - rem
	}
	return n
}

// IdentityPermutation is the unpermuted survey outcome.
func IdentityPermutation() [PartyCount]int {
	var p [PartyCount]int
	for i := range p {
		p[i] = i
	}
	return p
}

// Shuffler is a generator a survey outcome can be drawn from: the
// trial path's *sim.Rand, or a *math/rand.Rand seeded alike, whose
// Shuffle draws the same permutation (the campaign benchmark's probe
// passes one).
type Shuffler interface {
	Shuffle(n int, swap func(i, j int))
}

// RandomPermutation draws a survey outcome from rng. A *sim.Rand's
// concrete Shuffle keeps the swap closure, and so the permutation, on
// the stack; any other Shuffler costs them a heap allocation.
func RandomPermutation(rng Shuffler) [PartyCount]int {
	if r, ok := rng.(*sim.Rand); ok {
		p := IdentityPermutation()
		r.Shuffle(PartyCount, func(i, j int) { p[i], p[j] = p[j], p[i] })
		return p
	}
	p := IdentityPermutation()
	rng.Shuffle(PartyCount, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// TwoObject builds the minimal two-object page used by the Figure 1
// passive-baseline demonstration.
func TwoObject(sizeA, sizeB int) *Site {
	s := &Site{
		Name: "two-object",
		Objects: []Object{
			{ID: 1, Path: "/o1", Size: sizeA, Kind: KindImage, Label: "O1"},
			{ID: 2, Path: "/o2", Size: sizeB, Kind: KindImage, Label: "O2"},
		},
		Schedule: []RequestSpec{
			{ObjectID: 1, Gap: 0},
			{ObjectID: 2, Gap: 200 * time.Microsecond},
		},
	}
	s.Finalize()
	return s
}
