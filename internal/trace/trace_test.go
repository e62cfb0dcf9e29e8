package trace

import (
	"testing"
	"time"
)

func TestDirectionHelpers(t *testing.T) {
	if ClientToServer.String() != "c->s" || ServerToClient.String() != "s->c" {
		t.Error("Direction.String broken")
	}
	if Direction(9).String() == "" {
		t.Error("unknown direction must render")
	}
	if ClientToServer.Reverse() != ServerToClient || ServerToClient.Reverse() != ClientToServer {
		t.Error("Reverse broken")
	}
}

func TestRecordObsIsAppData(t *testing.T) {
	if !(RecordObs{ContentType: 23}).IsAppData() {
		t.Error("content type 23 is app data")
	}
	if (RecordObs{ContentType: 22}).IsAppData() {
		t.Error("content type 22 is not app data")
	}
}

func TestTraceAccumulators(t *testing.T) {
	tr := &Trace{}
	tr.AddFrame(FrameEvent{Time: time.Second, ObjectID: 1, Len: 100})
	tr.AddFrame(FrameEvent{Time: 2 * time.Second, ObjectID: 2, CopyID: 1, Len: 0})
	tr.AddFrame(FrameEvent{Time: 3 * time.Second, ObjectID: 1, Len: 50, End: true})

	if len(tr.Frames) != 3 {
		t.Fatalf("frames = %d, want 3", len(tr.Frames))
	}
	if tr.Frames[1].CopyID != 1 || !tr.Frames[2].End || tr.Frames[2].Time != 3*time.Second {
		t.Errorf("frames not kept in order: %+v", tr.Frames)
	}
}

// TestTraceResetKeepsCapacity pins the reuse contract: Reset empties
// the frame log but keeps its backing array, so a reused trace
// records allocation-free at its high-water mark.
func TestTraceResetKeepsCapacity(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 100; i++ {
		tr.AddFrame(FrameEvent{ObjectID: i})
	}
	cf := cap(tr.Frames)
	tr.Reset()
	if len(tr.Frames) != 0 {
		t.Fatal("Reset must empty the frame log")
	}
	if cap(tr.Frames) != cf {
		t.Error("Reset must keep the backing array")
	}
	allocs := testing.AllocsPerRun(10, func() {
		tr.Reset()
		for i := 0; i < 100; i++ {
			tr.AddFrame(FrameEvent{ObjectID: i})
		}
	})
	if allocs != 0 {
		t.Errorf("reused trace allocates %.0f objects/run at its high-water mark, want 0", allocs)
	}
}
