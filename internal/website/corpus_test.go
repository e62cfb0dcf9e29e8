package website

import (
	"reflect"
	"sync"
	"testing"
)

func TestCorpusDeterministicAnyOrder(t *testing.T) {
	cfg := CorpusConfig{Seed: 7, Sites: 40}
	forward := NewCorpus(cfg)
	backward := NewCorpus(cfg)

	want := make([]*GeneratedSite, cfg.Sites)
	for i := 0; i < cfg.Sites; i++ {
		want[i] = forward.Build(i)
	}
	for i := cfg.Sites - 1; i >= 0; i-- {
		got := backward.Build(i)
		if !reflect.DeepEqual(got.Spec, want[i].Spec) {
			t.Fatalf("site %d spec differs by build order:\ngot  %+v\nwant %+v", i, got.Spec, want[i].Spec)
		}
		if !sitesEqual(got.Site, want[i].Site) {
			t.Fatalf("site %d model differs by build order", i)
		}
	}
}

func TestCorpusDeterministicParallel(t *testing.T) {
	cfg := CorpusConfig{Seed: 99, Sites: 64}
	serial := NewCorpus(cfg)
	want := make([]*GeneratedSite, cfg.Sites)
	for i := range want {
		want[i] = serial.Build(i)
	}

	got := make([]*GeneratedSite, cfg.Sites)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := NewCorpus(cfg) // one handle per worker, as the pipeline does
			for i := w; i < cfg.Sites; i += 8 {
				got[i] = c.Build(i)
			}
		}(w)
	}
	wg.Wait()
	for i := range got {
		if !reflect.DeepEqual(got[i].Spec, want[i].Spec) || !sitesEqual(got[i].Site, want[i].Site) {
			t.Fatalf("site %d differs when built on 8 workers", i)
		}
	}
}

func sitesEqual(a, b *Site) bool {
	return a.Name == b.Name &&
		reflect.DeepEqual(a.Objects, b.Objects) &&
		reflect.DeepEqual(a.Schedule, b.Schedule)
}

func TestCorpusSiteInvariants(t *testing.T) {
	cfg := CorpusConfig{Seed: 3, Sites: 100}.Normalize()
	c := NewCorpus(cfg)
	shapes := map[string]int{}
	for i := 0; i < cfg.Sites; i++ {
		gs := c.Build(i)
		spec, site := gs.Spec, gs.Site
		if spec.Objects < cfg.MinObjects || spec.Objects > cfg.MaxObjects {
			t.Fatalf("site %d: %d objects outside [%d,%d]", i, spec.Objects, cfg.MinObjects, cfg.MaxObjects)
		}
		if len(site.Objects) != spec.Objects || len(site.Schedule) != spec.Objects {
			t.Fatalf("site %d: inventory/schedule size mismatch", i)
		}
		shapes[spec.Shape]++

		// IDs are 1..n in schedule order, so the target's schedule
		// position equals its ID.
		for j, o := range site.Objects {
			if o.ID != j+1 {
				t.Fatalf("site %d: object %d has ID %d", i, j, o.ID)
			}
			if o.Size < minSize {
				t.Fatalf("site %d: object %d size %d below min", i, j, o.Size)
			}
		}
		for j, r := range site.Schedule {
			if r.ObjectID != j+1 {
				t.Fatalf("site %d: schedule entry %d requests %d", i, j, r.ObjectID)
			}
		}
		target, ok := site.Object(spec.TargetID)
		if !ok || target.Kind != KindHTML || target.Label != "target-html" || target.Size != spec.TargetSize {
			t.Fatalf("site %d: bad target object %+v (spec %+v)", i, target, spec)
		}
		if site.ScheduleIndex(spec.TargetID) != spec.TargetID {
			t.Fatalf("site %d: target schedule position != ID", i)
		}

		// Pairwise size separation keeps the size table unambiguous.
		for a := 0; a < len(site.Objects); a++ {
			for b := a + 1; b < len(site.Objects); b++ {
				d := site.Objects[a].Size - site.Objects[b].Size
				if d < 0 {
					d = -d
				}
				if d < minSizeGap {
					t.Fatalf("site %d: sizes %d and %d closer than %d",
						i, site.Objects[a].Size, site.Objects[b].Size, minSizeGap)
				}
			}
		}
	}
	for _, s := range AllShapes {
		if shapes[s.String()] == 0 {
			t.Fatalf("shape %s never drawn across 100 sites: %v", s, shapes)
		}
	}
}

func TestCorpusFingerprintReflectsConfig(t *testing.T) {
	a := CorpusConfig{Seed: 1, Sites: 10}.Fingerprint()
	b := CorpusConfig{Seed: 2, Sites: 10}.Fingerprint()
	c := CorpusConfig{Seed: 1, Sites: 11}.Fingerprint()
	if a == b || a == c {
		t.Fatalf("fingerprints must differ: %q %q %q", a, b, c)
	}
	if a != (CorpusConfig{Seed: 1, Sites: 10}.Fingerprint()) {
		t.Fatal("fingerprint not stable")
	}
}

// TestCorpusBuildAllocs pins what building a site allocates: the site,
// its objects, one string holding every name, its schedule and its
// maps, and no random generator, whose 4.9 KB register lives on Build's
// stack. A generator allocated per site would add one object, and a
// sixth of a survey's bytes; a string allocated per name would make
// the count grow with the site's objects (17 at site 1, 47 at 42).
func TestCorpusBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race changes what escapes")
	}
	c := NewCorpus(CorpusConfig{Seed: 9, Sites: 100})
	for _, tc := range []struct {
		site int
		want float64
	}{{1, 12}, {42, 12}} {
		if got := testing.AllocsPerRun(20, func() { c.Build(tc.site) }); got > tc.want {
			t.Errorf("Build(%d) allocates %.0f objects, want %.0f", tc.site, got, tc.want)
		}
	}
}
