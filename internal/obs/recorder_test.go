package obs

import (
	"testing"
	"time"
)

// TestRecorderWraparound pins the eviction order across multiple full
// wraps of the ring: after recording k·cap+r events, the ring holds
// exactly the last cap of them, in arrival order, with the write
// cursor anywhere in the ring (the multi-wrap case TestRecorderRing's
// single overflow doesn't reach).
func TestRecorderWraparound(t *testing.T) {
	const capacity = 4
	r := NewRecorder(capacity)
	for _, total := range []int{9, 12, 103} { // mid-ring, on-boundary, far wrap
		r.Reset()
		for i := 0; i < total; i++ {
			r.Record(time.Duration(i), EvH2Request, int64(i), 0)
		}
		ev := r.Events()
		if len(ev) != capacity {
			t.Fatalf("total %d: len(Events) = %d, want %d", total, len(ev), capacity)
		}
		for i, e := range ev {
			if want := int64(total - capacity + i); e.A != want {
				t.Errorf("total %d: event %d: A = %d, want %d", total, i, e.A, want)
			}
		}
		if got, want := r.Dropped(), uint64(total-capacity); got != want {
			t.Errorf("total %d: Dropped = %d, want %d", total, got, want)
		}
		if got := r.Total(); got != uint64(total) {
			t.Errorf("total %d: Total = %d, want %d", total, got, total)
		}
	}
}
