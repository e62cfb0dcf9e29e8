package website

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestSurveyStructureMatchesPaper(t *testing.T) {
	site := Survey(IdentityPermutation())

	// 5 skeleton objects + result HTML + 47 embedded objects
	// (38 assets + 8 emblems + beacon), as in the paper's page.
	if got := len(site.Objects); got != 5+1+47 {
		t.Errorf("object count = %d, want 53", got)
	}
	embedded := 0
	for _, o := range site.Objects {
		if o.ID >= 7 { // after the result HTML
			embedded++
		}
	}
	if embedded != 47 {
		t.Errorf("embedded object count = %d, want 47", embedded)
	}

	html, ok := site.Object(ResultHTMLID)
	if !ok {
		t.Fatal("result HTML missing")
	}
	if html.Size != ResultHTMLSize {
		t.Errorf("HTML size = %d, want %d", html.Size, ResultHTMLSize)
	}
	// The HTML is the 6th request (paper: "the object of interest is
	// the 6th object downloaded by the client").
	if idx := site.ScheduleIndex(ResultHTMLID); idx != 6 {
		t.Errorf("HTML schedule index = %d, want 6", idx)
	}

	// 8 emblem images, 5-16 KB, unique sizes.
	seen := map[int]bool{}
	for p := 0; p < PartyCount; p++ {
		o, ok := site.Object(EmblemID(p))
		if !ok {
			t.Fatalf("emblem %d missing", p)
		}
		if o.Size < 5000 || o.Size > 16000 {
			t.Errorf("emblem %d size %d outside 5-16KB", p, o.Size)
		}
		if seen[o.Size] {
			t.Errorf("duplicate emblem size %d", o.Size)
		}
		seen[o.Size] = true
	}
}

func TestSurveySizesUnambiguous(t *testing.T) {
	// Every pair of object sizes must differ by >= 64 bytes so the
	// predictor's size table has no collisions within tolerance.
	site := Survey(IdentityPermutation())
	for i, a := range site.Objects {
		for _, b := range site.Objects[i+1:] {
			d := a.Size - b.Size
			if d < 0 {
				d = -d
			}
			if d < 64 {
				t.Errorf("objects %d and %d sizes %d/%d differ by %d < 64",
					a.ID, b.ID, a.Size, b.Size, d)
			}
		}
	}
}

func TestSurveyScheduleGapsFollowTableII(t *testing.T) {
	site := Survey(IdentityPermutation())
	// Image burst gaps: 780, 0.4, 2, 0.3, 0.1, 0.3, 2, 0.5 ms.
	want := []time.Duration{
		msf(780), msf(0.4), msf(2), msf(0.3), msf(0.1), msf(0.3), msf(2), msf(0.5),
	}
	var gaps []time.Duration
	for _, spec := range site.Schedule {
		if spec.ObjectID >= EmblemID(0) && spec.ObjectID < EmblemID(PartyCount) {
			gaps = append(gaps, spec.Gap)
		}
	}
	if len(gaps) != PartyCount {
		t.Fatalf("found %d image requests, want %d", len(gaps), PartyCount)
	}
	for i := range gaps {
		if gaps[i] != want[i] {
			t.Errorf("image %d gap = %v, want %v", i+1, gaps[i], want[i])
		}
	}
}

func TestSurveyPermutationControlsImageOrder(t *testing.T) {
	perm := [PartyCount]int{3, 1, 4, 0, 5, 2, 7, 6}
	site := Survey(perm)
	pos := 0
	for _, spec := range site.Schedule {
		if spec.ObjectID >= EmblemID(0) && spec.ObjectID < EmblemID(PartyCount) {
			if want := EmblemID(perm[pos]); spec.ObjectID != want {
				t.Errorf("image position %d requests object %d, want %d", pos, spec.ObjectID, want)
			}
			pos++
		}
	}
}

func TestSurveyDeterministicInventory(t *testing.T) {
	a := Survey(IdentityPermutation())
	b := Survey([PartyCount]int{7, 6, 5, 4, 3, 2, 1, 0})
	if len(a.Objects) != len(b.Objects) {
		t.Fatal("object counts differ between permutations")
	}
	for i := range a.Objects {
		if a.Objects[i] != b.Objects[i] {
			t.Errorf("object %d differs across permutations: %+v vs %+v",
				i, a.Objects[i], b.Objects[i])
		}
	}
}

func TestSurveyCustomHTMLGap(t *testing.T) {
	site := SurveyCustom(IdentityPermutation(), SurveyOptions{HTMLGap: 123 * time.Millisecond})
	for _, spec := range site.Schedule {
		if spec.ObjectID == ResultHTMLID {
			if spec.Gap != 123*time.Millisecond {
				t.Errorf("HTML gap = %v, want 123ms", spec.Gap)
			}
			return
		}
	}
	t.Fatal("HTML not in schedule")
}

func TestLookupHelpers(t *testing.T) {
	site := Survey(IdentityPermutation())
	html, ok := site.ObjectByPath("/results/2020-presidential-quiz")
	if !ok || html.ID != ResultHTMLID {
		t.Errorf("ObjectByPath = %+v, %v", html, ok)
	}
	if _, ok := site.ObjectByPath("/nope"); ok {
		t.Error("unknown path resolved")
	}
	if _, ok := site.Object(99999); ok {
		t.Error("unknown id resolved")
	}
	if site.ScheduleIndex(-5) != 0 {
		t.Error("ScheduleIndex of absent object should be 0")
	}
}

// TestRandomPermutationIsPermutation draws through both of
// RandomPermutation's paths, a *sim.Rand and a *math/rand.Rand seeded
// alike, which must give the same permutations.
func TestRandomPermutationIsPermutation(t *testing.T) {
	rng, ref := sim.NewRand(42), rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		p := RandomPermutation(rng)
		if q := RandomPermutation(ref); p != q {
			t.Fatalf("trial %d: sim.Rand draws %v, math/rand %v", trial, p, q)
		}
		var seen [PartyCount]bool
		for _, v := range p {
			if v < 0 || v >= PartyCount || seen[v] {
				t.Fatalf("invalid permutation %v", p)
			}
			seen[v] = true
		}
	}
}

func TestTwoObjectSite(t *testing.T) {
	site := TwoObject(4000, 9000)
	if len(site.Objects) != 2 || len(site.Schedule) != 2 {
		t.Fatalf("site = %+v", site)
	}
	if o, ok := site.ObjectByPath("/o1"); !ok || o.Size != 4000 {
		t.Errorf("o1 = %+v, %v", o, ok)
	}
}

func TestKindString(t *testing.T) {
	if KindHTML.String() != "html" || KindImage.String() != "image" {
		t.Error("Kind.String broken")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind must render")
	}
}

func TestSurveyCanonicalOrderDefence(t *testing.T) {
	perm := [PartyCount]int{3, 1, 4, 0, 5, 2, 7, 6}
	site := SurveyCustom(perm, SurveyOptions{CanonicalImageOrder: true})
	if site.DisplayOrder != perm {
		t.Errorf("display order = %v, want %v", site.DisplayOrder, perm)
	}
	pos := 0
	for _, spec := range site.Schedule {
		if spec.ObjectID >= EmblemID(0) && spec.ObjectID < EmblemID(PartyCount) {
			if want := EmblemID(pos); spec.ObjectID != want {
				t.Errorf("canonical position %d requests %d, want %d", pos, spec.ObjectID, want)
			}
			pos++
		}
	}
}

func TestSurveyPadBucketDefence(t *testing.T) {
	site := SurveyCustom(IdentityPermutation(), SurveyOptions{PadBucket: 4096})
	for _, o := range site.Objects {
		if o.Size%4096 != 0 {
			t.Errorf("object %d size %d not padded to 4096", o.ID, o.Size)
		}
	}
	// Padding must create collisions (that is the defence).
	seen := map[int]int{}
	for _, o := range site.Objects {
		seen[o.Size]++
	}
	collided := false
	for _, n := range seen {
		if n > 1 {
			collided = true
		}
	}
	if !collided {
		t.Error("padding produced no size collisions")
	}
}

func TestPadTo(t *testing.T) {
	cases := []struct{ n, bucket, want int }{
		{1, 4096, 4096},
		{4096, 4096, 4096},
		{4097, 4096, 8192},
		{100, 0, 100},
	}
	for _, c := range cases {
		if got := padTo(c.n, c.bucket); got != c.want {
			t.Errorf("padTo(%d,%d) = %d, want %d", c.n, c.bucket, got, c.want)
		}
	}
}
