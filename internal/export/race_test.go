package export

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"robustmon/internal/event"
	"robustmon/internal/history"
)

// TestConcurrentDrainsNeverDupOrDropSeqs tails a live database with a
// read-only drain tee while appenders and two per-monitor drain sweeps
// all race, and the drainers recycle every segment they drained: every
// sequence number the database assigned must be observed exactly once.
// This is the correctness contract of the drain tee — each event is
// drained once (segments are swapped out under the shard lock) and
// teed once, during the drain, before its drainer can hand the slab
// back to the pool.
func TestConcurrentDrainsNeverDupOrDropSeqs(t *testing.T) {
	t.Parallel()
	// global=false: the sharded layout, one lock per monitor.
	t.Run("global=false", func(t *testing.T) {
		t.Parallel()
		db := history.New()
		var mu sync.Mutex
		seen := make(map[int64]int)
		db.AddDrainTee(func(_ string, seg event.Seq) {
			mu.Lock()
			defer mu.Unlock()
			for _, e := range seg {
				seen[e.Seq]++
			}
		})

		const (
			monitors = 4
			appends  = 500
		)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		// Appenders: one per monitor.
		for m := 0; m < monitors; m++ {
			name := fmt.Sprintf("m%d", m)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < appends; i++ {
					db.Append(tev(name, 0)) // Seq assigned by the DB
				}
			}()
		}
		// Two per-monitor drain sweeps race the appenders (and each
		// other) until the appenders finish: one drains each monitor
		// up to the database's last seq at the time of its call, the
		// other drains everything buffered.
		sweep := func(horizon func() int64) {
			for m := 0; m < monitors; m++ {
				seg, _ := db.DrainMonitorUpTo(fmt.Sprintf("m%d", m), horizon(), 0)
				history.Recycle(seg)
			}
		}
		unbounded := func() int64 { return math.MaxInt64 }
		var drainers sync.WaitGroup
		for _, horizon := range []func() int64{db.LastSeq, unbounded} {
			drainers.Add(1)
			go func() {
				defer drainers.Done()
				for {
					sweep(horizon)
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		wg.Wait()
		close(stop)
		drainers.Wait()
		sweep(unbounded) // final sweep for anything still buffered

		want := db.LastSeq()
		if want != monitors*appends {
			t.Fatalf("LastSeq = %d, want %d", want, monitors*appends)
		}
		for seq := int64(1); seq <= want; seq++ {
			switch seen[seq] {
			case 1:
			case 0:
				t.Fatalf("seq %d was recorded but never observed (dropped)", seq)
			default:
				t.Fatalf("seq %d observed %d times (duplicated)", seq, seen[seq])
			}
		}
		if len(seen) != int(want) {
			t.Fatalf("observed %d distinct seqs, want %d", len(seen), want)
		}
	})
}
