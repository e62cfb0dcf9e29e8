package analysis

import (
	"testing"
	"time"

	"repro/internal/trace"
)

// mkFrame is a test helper for ground-truth events.
func mkFrame(obj, cp int, stream uint32, off int64, n int, at time.Duration, end bool) trace.FrameEvent {
	return trace.FrameEvent{
		Time: at, StreamID: stream, ObjectID: obj, CopyID: cp,
		Len: n, Offset: off, WireLen: n + 38, End: end,
	}
}

func TestSequentialTransmissionsNotMultiplexed(t *testing.T) {
	tr := &trace.Trace{}
	// Object 1 fully transmitted, then object 2 (Figure 1 case 1).
	tr.AddFrame(mkFrame(1, 0, 1, 0, 1400, 0, false))
	tr.AddFrame(mkFrame(1, 0, 1, 1438, 600, time.Millisecond, true))
	tr.AddFrame(mkFrame(2, 0, 3, 2076, 1400, 2*time.Millisecond, false))
	tr.AddFrame(mkFrame(2, 0, 3, 3514, 900, 3*time.Millisecond, true))
	copies := CopyTransmissions(tr)
	if len(copies) != 2 {
		t.Fatalf("got %d copies", len(copies))
	}
	for _, c := range copies {
		if c.Degree != 0 {
			t.Errorf("copy %+v degree = %v, want 0", c.Key, c.Degree)
		}
		if !c.Complete {
			t.Errorf("copy %+v not complete", c.Key)
		}
	}
	if copies[0].Bytes != 2000 || copies[1].Bytes != 2300 {
		t.Errorf("bytes = %d, %d", copies[0].Bytes, copies[1].Bytes)
	}
}

func TestInterleavedTransmissionsFullyMultiplexed(t *testing.T) {
	tr := &trace.Trace{}
	// O1Seg1 O2Seg1 O1Seg2 O2Seg2 (Figure 1 case 2).
	tr.AddFrame(mkFrame(1, 0, 1, 0, 1400, 0, false))
	tr.AddFrame(mkFrame(2, 0, 3, 1438, 1400, 1, false))
	tr.AddFrame(mkFrame(1, 0, 1, 2876, 600, 2, true))
	tr.AddFrame(mkFrame(2, 0, 3, 4314, 900, 3, true))
	copies := CopyTransmissions(tr)
	if d := OriginalDegree(copies, 1); d != 1 {
		t.Errorf("O1 degree = %v, want 1", d)
	}
	if d := OriginalDegree(copies, 2); d != 1 {
		t.Errorf("O2 degree = %v, want 1", d)
	}
}

func TestPartialInterleaving(t *testing.T) {
	tr := &trace.Trace{}
	// O1 has 4 frames; only the 3rd lies inside O2's span.
	tr.AddFrame(mkFrame(1, 0, 1, 0, 1000, 0, false))
	tr.AddFrame(mkFrame(1, 0, 1, 1038, 1000, 1, false))
	tr.AddFrame(mkFrame(2, 0, 3, 2076, 1000, 2, false))
	tr.AddFrame(mkFrame(1, 0, 1, 3114, 1000, 3, false))
	tr.AddFrame(mkFrame(2, 0, 3, 4152, 1000, 4, true))
	tr.AddFrame(mkFrame(1, 0, 1, 5190, 1000, 5, true))
	copies := CopyTransmissions(tr)
	// O1's first frame borders only its own successor: clean. The
	// other three border O2 frames while the spans overlap: 3/4.
	if d := OriginalDegree(copies, 1); d != 0.75 {
		t.Errorf("O1 degree = %v, want 0.75", d)
	}
	// Both O2 frames border O1 frames: fully interleaved.
	if d := OriginalDegree(copies, 2); d != 1 {
		t.Errorf("O2 degree = %v, want 1", d)
	}
}

func TestDuplicateCopiesInterfere(t *testing.T) {
	tr := &trace.Trace{}
	// Copy 0 and copy 1 of the same object interleave: both count as
	// "another object" for each other (paper: retransmitted objects
	// interleave with the object of interest).
	tr.AddFrame(mkFrame(7, 0, 1, 0, 1000, 0, false))
	tr.AddFrame(mkFrame(7, 1, 3, 1038, 1000, 1, false))
	tr.AddFrame(mkFrame(7, 0, 1, 2076, 1000, 2, true))
	tr.AddFrame(mkFrame(7, 1, 3, 3114, 1000, 3, true))
	copies := CopyTransmissions(tr)
	if len(copies) != 2 {
		t.Fatalf("copies = %d, want 2", len(copies))
	}
	anyClean, origClean := CleanCopy(copies, 7)
	if anyClean || origClean {
		t.Error("interleaved duplicates reported clean")
	}
	if len(CopiesOf(copies, 7)) != 2 {
		t.Error("copy count wrong")
	}
}

func TestCleanCopyViaDuplicate(t *testing.T) {
	tr := &trace.Trace{}
	// Original interleaved with object 9; a later duplicate is clean.
	tr.AddFrame(mkFrame(7, 0, 1, 0, 1000, 0, false))
	tr.AddFrame(mkFrame(9, 0, 5, 1038, 1000, 1, false))
	tr.AddFrame(mkFrame(7, 0, 1, 2076, 1000, 2, true))
	tr.AddFrame(mkFrame(9, 0, 5, 3114, 1000, 3, true))
	tr.AddFrame(mkFrame(7, 1, 7, 5000, 2000, 4, true))
	copies := CopyTransmissions(tr)
	anyClean, origClean := CleanCopy(copies, 7)
	if !anyClean {
		t.Error("clean duplicate not detected")
	}
	if origClean {
		t.Error("original wrongly reported clean")
	}
}

func TestIncompleteCopyNeverClean(t *testing.T) {
	tr := &trace.Trace{}
	tr.AddFrame(mkFrame(7, 0, 1, 0, 1000, 0, false)) // no End frame
	copies := CopyTransmissions(tr)
	anyClean, _ := CleanCopy(copies, 7)
	if anyClean {
		t.Error("incomplete copy reported clean")
	}
	if copies[0].Complete {
		t.Error("copy marked complete without End frame")
	}
}

func TestHeadersMarkersIgnored(t *testing.T) {
	tr := &trace.Trace{}
	tr.AddFrame(trace.FrameEvent{ObjectID: 7, CopyID: 0, Len: 0, Offset: 0, WireLen: 70})
	tr.AddFrame(mkFrame(7, 0, 1, 70, 1000, 1, true))
	copies := CopyTransmissions(tr)
	if len(copies) != 1 || copies[0].Bytes != 1000 {
		t.Errorf("copies = %+v", copies)
	}
	if copies[0].Start != 70 {
		t.Errorf("start = %d, want 70 (HEADERS record excluded)", copies[0].Start)
	}
}

func TestOriginalDegreeMissingObject(t *testing.T) {
	if d := OriginalDegree(nil, 42); d != -1 {
		t.Errorf("missing object degree = %v, want -1", d)
	}
}

func TestCopiesOrderedByWireOffset(t *testing.T) {
	tr := &trace.Trace{}
	tr.AddFrame(mkFrame(2, 0, 3, 5000, 100, 5, true))
	tr.AddFrame(mkFrame(1, 0, 1, 0, 100, 0, true))
	copies := CopyTransmissions(tr)
	if copies[0].Key.ObjectID != 1 || copies[1].Key.ObjectID != 2 {
		t.Errorf("copies not offset-ordered: %+v", copies)
	}
}
