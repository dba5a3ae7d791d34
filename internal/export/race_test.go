package export

import (
	"fmt"
	"sync"
	"testing"

	"robustmon/internal/event"
	"robustmon/internal/history"
)

// TestConcurrentDrainsNeverDupOrDropSeqs tails a live database with a
// read-only drain tee while appenders, global Drains and per-monitor
// DrainMonitors all race, and the drainers recycle every segment they
// drained: every sequence number the database assigned must be
// observed exactly once. This is the correctness contract of the drain
// tee — each event is drained once (segments are swapped out under the
// shard lock) and teed once, during the drain, before its drainer can
// hand the slab back to the pool.
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
		// A global drainer and a per-monitor drainer race the
		// appenders (and each other) until the appenders finish.
		var drainers sync.WaitGroup
		drainers.Add(2)
		go func() {
			defer drainers.Done()
			for {
				history.Recycle(db.Drain())
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
		go func() {
			defer drainers.Done()
			for {
				for m := 0; m < monitors; m++ {
					history.Recycle(db.DrainMonitor(fmt.Sprintf("m%d", m)))
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
		wg.Wait()
		close(stop)
		drainers.Wait()
		db.Drain() // final sweep for anything still buffered

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
