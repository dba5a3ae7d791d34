package history

import (
	"runtime"
	"strings"
	"testing"

	"robustmon/internal/obs"
)

// TestWithObsCountsRecordPath drives every instrumented layer of the
// record path — appends, slab growth, partial and full drains, slab
// recycling — and checks the registry against the exactly-known
// traffic. Each cycle records 600 events and drains them in 256-event
// batches, the smallest pool class, so the hit/miss sequence is
// deterministic outside -race once the pools start empty: every class
// is missed the first time it is asked for, and recycled slabs hit.
func TestWithObsCountsRecordPath(t *testing.T) {
	// One P: sync.Pool parks a slab in a per-P slot no other P can take
	// from, so a goroutine that migrated could miss a recycled slab.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	emptyPools()
	reg := obs.NewRegistry()
	db := New(WithObs(reg))
	cycle := func(n int) {
		for i := int64(1); i <= 600; i++ {
			db.Append(ev(i))
		}
		horizon := db.LastSeq()
		for _, want := range []int{256, 256, 88} {
			seg, more := db.DrainMonitorUpTo("m", horizon, 256)
			if len(seg) != want || more != (want == 256) {
				t.Fatalf("cycle %d: cut of %d events, more=%v; want %d", n, len(seg), more, want)
			}
			if want < 256 && cap(seg) != 1024 {
				t.Fatalf("cycle %d: final batch cap %d, want the shard's 1024-event class", n, cap(seg))
			}
			Recycle(seg)
		}
	}
	// Cycle 1, cold pools. Growth takes 256, 512 and 1,024 (three
	// misses) and recycles the first two; both cuts take the recycled
	// 256-event slab (two hits); the final drain's replacement holds
	// the 600-event interval, a 1,024 class nothing has recycled yet
	// (a miss).
	cycle(1)
	// Cycle 2 records into that replacement without growing: the cuts
	// and the replacement all hit (three hits).
	cycle(2)

	snap := reg.Snapshot()
	for _, c := range []struct {
		metric string
		want   int64
	}{
		{"history_append_total", 1200},
		{"history_pool_miss_total", 4},
		{"history_pool_hit_total", 5},
	} {
		if raceEnabled && strings.HasPrefix(c.metric, "history_pool_") {
			continue // checked as a sum below
		}
		if got, ok := snap.Counter(c.metric); !ok || got != c.want {
			t.Errorf("%s = %d (ok=%v), want %d", c.metric, got, ok, c.want)
		}
	}
	if raceEnabled {
		// Under -race sync.Pool drops Puts at random, so which requests
		// hit is not deterministic. Each of the nine slab requests still
		// counts once, as a hit or a miss, and the four cold ones miss.
		hit, _ := snap.Counter("history_pool_hit_total")
		miss, _ := snap.Counter("history_pool_miss_total")
		if miss < 4 || hit+miss != 9 {
			t.Errorf("pool hits %d, misses %d: want nine requests counted once each, at least four of them misses", hit, miss)
		}
	}
	h, ok := snap.Histogram("history_drain_events")
	if !ok || h.Count != 6 || h.Sum != 1200 {
		t.Errorf("history_drain_events count=%d sum=%d (ok=%v), want 6 drains totalling 1200", h.Count, h.Sum, ok)
	}
}
