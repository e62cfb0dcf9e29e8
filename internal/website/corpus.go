package website

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/sim"
)

// ScheduleShape classifies the request-timing profile of a synthetic
// site: how a browser paces the object requests after the page
// skeleton lands.
type ScheduleShape uint8

const (
	// ShapeBurst issues almost everything in sub-millisecond bursts
	// with occasional parser pauses — the asset waterfall of a
	// script-heavy page.
	ShapeBurst ScheduleShape = iota + 1

	// ShapePaced spreads requests 5–40 ms apart — sequential parsing
	// with little concurrency.
	ShapePaced

	// ShapeWaves groups requests into bursts of 4–8 separated by
	// 50–300 ms pauses — progressive rendering in stages.
	ShapeWaves
)

var shapeNames = map[ScheduleShape]string{
	ShapeBurst: "burst",
	ShapePaced: "paced",
	ShapeWaves: "waves",
}

// String returns a short shape name.
func (s ScheduleShape) String() string {
	if n, ok := shapeNames[s]; ok {
		return n
	}
	return fmt.Sprintf("ScheduleShape(%d)", uint8(s))
}

// AllShapes lists every schedule shape, the mix corpus sites are drawn
// from.
var AllShapes = []ScheduleShape{ShapeBurst, ShapePaced, ShapeWaves}

// CorpusConfig parameterizes a synthetic site population. Every field
// has a usable default (see Normalize); the zero value plus a Sites
// count is a valid corpus.
type CorpusConfig struct {
	// Seed is the corpus master seed. Site i derives its own seed
	// from (Seed, i) with a splitmix64 step, so the population is
	// identical no matter which sites are built, in which order, on
	// how many workers.
	Seed uint64

	// Sites is the population size.
	Sites int

	// MinObjects/MaxObjects bound the per-site object count
	// (inclusive). Defaults 8 and 64.
	MinObjects int
	MaxObjects int
}

// The corpus's object-size model. Every site draws from the same
// range and the AllShapes schedule mix, so these are constants, not
// knobs.
const (
	// minSize/maxSize bound object body sizes in bytes; sizes are
	// drawn log-uniformly so small assets dominate, as in real
	// inventories.
	minSize = 300
	maxSize = 150000

	// minSizeGap is the minimum pairwise distance between object
	// sizes on one site. It keeps every site's size table unambiguous
	// under the predictor's ±32-byte record-matching tolerance, so
	// identification failures measure the attack, not corpus
	// degeneracy.
	minSizeGap = 48
)

// Normalize fills defaults and returns the effective configuration.
func (c CorpusConfig) Normalize() CorpusConfig {
	if c.MinObjects <= 0 {
		c.MinObjects = 8
	}
	if c.MaxObjects <= 0 {
		c.MaxObjects = 64
	}
	if c.MaxObjects < c.MinObjects {
		c.MaxObjects = c.MinObjects
	}
	return c
}

// Fingerprint is a stable one-line description of the full
// configuration, recorded in campaign checkpoints to refuse resuming
// under a different population. It also prints the size-model
// constants, so it names the whole population.
func (c CorpusConfig) Fingerprint() string {
	c = c.Normalize()
	shapes := ""
	for i, s := range AllShapes {
		if i > 0 {
			shapes += ","
		}
		shapes += s.String()
	}
	return fmt.Sprintf("corpus{seed=%d sites=%d objects=%d..%d size=%d..%d gap=%d shapes=%s}",
		c.Seed, c.Sites, c.MinObjects, c.MaxObjects, minSize, maxSize, minSizeGap, shapes)
}

// SiteSpec summarizes one generated site — the fields a survey
// campaign wants alongside each trial result without re-building the
// site.
type SiteSpec struct {
	// Index is the site's position in the corpus.
	Index int `json:"site"`

	// Seed is the site's derived generation seed.
	Seed uint64 `json:"seed"`

	// Objects is the object count.
	Objects int `json:"objects"`

	// Shape is the schedule shape.
	Shape string `json:"shape"`

	// TargetID is the object ID of the attacked HTML document; it
	// equals its 1-based schedule position (IDs are assigned in
	// request order), so an attacker triggering on the N-th GET sets
	// TriggerGet = TargetID.
	TargetID int `json:"target_id"`

	// TargetSize is the target's body size in bytes.
	TargetSize int `json:"target_size"`

	// TotalBytes is the site's summed object size.
	TotalBytes int `json:"total_bytes"`
}

// GeneratedSite couples a built site model with its spec.
type GeneratedSite struct {
	*Site
	Spec SiteSpec
}

// Corpus is a deterministic synthetic site population. It holds no
// built sites — Build(i) derives site i from scratch every call, a
// pure function of (config, i) — so a million-site corpus costs
// nothing until sites are built, and per-worker caching is the
// caller's choice.
type Corpus struct {
	cfg CorpusConfig
}

// NewCorpus builds a corpus handle with defaults applied.
func NewCorpus(cfg CorpusConfig) *Corpus {
	return &Corpus{cfg: cfg.Normalize()}
}

// Config returns the effective (normalized) configuration.
func (c *Corpus) Config() CorpusConfig { return c.cfg }

// Len returns the population size.
func (c *Corpus) Len() int { return c.cfg.Sites }

// splitmix64 is the standard splitmix64 finalizer, mixing the corpus
// seed with a site index into an independent per-site seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SiteSeed returns site i's derived generation seed.
func (c *Corpus) SiteSeed(i int) uint64 {
	return splitmix64(c.cfg.Seed ^ splitmix64(uint64(i)+1))
}

// Build generates site i. The result is freshly allocated — callers
// running many trials against the same site should cache it keyed on
// the index (the survey worker state does).
func (c *Corpus) Build(i int) *GeneratedSite {
	cfg := c.cfg
	seed := c.SiteSeed(i)
	var rng sim.Rand // on the stack: a site costs no generator allocation
	rng.Seed(int64(seed))

	nObjects := cfg.MinObjects + rng.Intn(cfg.MaxObjects-cfg.MinObjects+1)
	shape := AllShapes[rng.Intn(len(AllShapes))]

	// The attacked HTML document sits mid-schedule — late enough that
	// skeleton objects precede it (the attack throttles during them),
	// early enough that a tail of embedded objects follows.
	targetPos := 2 + rng.Intn(max(1, nObjects-4)) // 0-based, in [2, nObjects-3]
	if targetPos > nObjects-2 {
		targetPos = nObjects - 2
	}
	if targetPos < 0 {
		targetPos = 0
	}

	// Draw object sizes log-uniformly, keeping every pair at least
	// minSizeGap apart so the site's size table stays unambiguous.
	logMin, logMax := math.Log(minSize), math.Log(maxSize)
	used := make(map[int]bool, nObjects)
	distinct := func(want int) int {
		for {
			ok := true
			for u := range used {
				d := want - u
				if d < 0 {
					d = -d
				}
				if d < minSizeGap {
					ok = false
					break
				}
			}
			if ok {
				used[want] = true
				return want
			}
			want += minSizeGap + 1
		}
	}
	drawSize := func() int {
		u := rng.Float64()
		return distinct(int(math.Round(math.Exp(logMin + u*(logMax-logMin)))))
	}

	// The site's name and its objects' labels and paths are appended
	// to one buffer, which becomes one string that each name slices;
	// ends records where each name ends. Both buffers sit on the stack
	// up to the default MaxObjects.
	var nameArr [4096]byte
	var endArr [1 + 2*64]int
	buf := strconv.AppendInt(append(nameArr[:0], "corpus-"...), int64(i), 10)
	ends := append(endArr[:0], len(buf))
	site := &Site{Objects: make([]Object, 0, nObjects)}
	total := 0
	var targetSize int
	for j := 0; j < nObjects; j++ {
		id := j + 1
		size := drawSize()
		total += size
		kind := KindImage
		if j == targetPos {
			kind = KindHTML
			buf = append(buf, "target-html"...)
			targetSize = size
		} else {
			buf = strconv.AppendInt(append(buf, "asset-"...), int64(id), 10)
			switch rng.Intn(5) {
			case 0:
				kind = KindScript
			case 1:
				kind = KindStyle
			case 2:
				kind = KindHTML
			}
		}
		ends = append(ends, len(buf))
		buf = strconv.AppendInt(append(buf, "/corpus/"...), int64(i), 10)
		buf = strconv.AppendInt(append(append(append(buf, '/'), kind.String()...), '-'), int64(id), 10)
		ends = append(ends, len(buf))
		site.Objects = append(site.Objects, Object{ID: id, Size: size, Kind: kind})
	}
	names := string(buf)
	site.Name = names[:ends[0]]
	for j := range site.Objects {
		o := &site.Objects[j]
		o.Label, o.Path = names[ends[2*j]:ends[2*j+1]], names[ends[2*j+1]:ends[2*j+2]]
	}

	// Request schedule: IDs in order, gaps by shape, with a think-time
	// pause (parse/render, 150–600 ms) before the target document as
	// on the survey site.
	site.Schedule = make([]RequestSpec, 0, nObjects)
	wave := 0
	for j := 0; j < nObjects; j++ {
		var gap time.Duration
		switch {
		case j == 0:
			gap = 0
		case j == targetPos:
			gap = time.Duration(150+rng.Intn(451)) * time.Millisecond
		default:
			switch shape {
			case ShapePaced:
				gap = time.Duration(5+rng.Intn(36)) * time.Millisecond
			case ShapeWaves:
				if wave <= 0 {
					wave = 4 + rng.Intn(5)
					gap = time.Duration(50+rng.Intn(251)) * time.Millisecond
				} else {
					gap = time.Duration(100+rng.Intn(900)) * time.Microsecond
				}
				wave--
			default: // ShapeBurst
				if rng.Intn(7) == 0 {
					gap = time.Duration(5+rng.Intn(16)) * time.Millisecond
				} else {
					gap = time.Duration(100+rng.Intn(900)) * time.Microsecond
				}
			}
		}
		site.Schedule = append(site.Schedule, RequestSpec{ObjectID: j + 1, Gap: gap})
	}
	site.Finalize()

	return &GeneratedSite{
		Site: site,
		Spec: SiteSpec{
			Index:      i,
			Seed:       seed,
			Objects:    nObjects,
			Shape:      shape.String(),
			TargetID:   targetPos + 1,
			TargetSize: targetSize,
			TotalBytes: total,
		},
	}
}
