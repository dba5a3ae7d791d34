package export

import (
	"fmt"
	"io"
	"math"
	"testing"

	"robustmon/internal/event"
	"robustmon/internal/history"
)

// At high event counts the streaming exporter keeps the database
// bounded (each drained segment is written out and its slab recycled),
// while WithFullTrace accumulates the entire run in memory and pays a
// full-trace merge on export. Compare with
//
//	go test -bench 'FullTraceExport|StreamingExport' -benchmem ./internal/export
//
// and watch B/op: full-trace grows linearly with the event count,
// streaming stays flat per drain cycle.

const benchDrainEvery = 1024

// driveDB appends n events round-robin over four monitors, draining
// every monitor every benchDrainEvery appends — the checkpoint rhythm —
// and handing each drained segment to consume, which owns it.
func driveDB(db *history.DB, n int, consume func(monitor string, seg event.Seq)) {
	names := [4]string{"m0", "m1", "m2", "m3"}
	drain := func() {
		for _, m := range names {
			seg, _ := db.DrainMonitorUpTo(m, math.MaxInt64, 0)
			consume(m, seg)
		}
	}
	for i := 0; i < n; i++ {
		db.Append(tev(names[i%len(names)], 0))
		if i%benchDrainEvery == benchDrainEvery-1 {
			drain()
		}
	}
	drain()
}

func BenchmarkFullTraceExport(b *testing.B) {
	for _, events := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("events=%d", events), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db := history.New(history.WithFullTrace())
				driveDB(db, events, func(_ string, seg event.Seq) { history.Recycle(seg) })
				if err := event.WriteBinary(io.Discard, db.Full()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStreamingExport(b *testing.B) {
	for _, events := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("events=%d", events), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink, err := NewWALSink(b.TempDir(), WALConfig{})
				if err != nil {
					b.Fatal(err)
				}
				exp := New(sink, Config{Policy: Block})
				driveDB(history.New(), events, exp.Consume)
				if err := exp.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
