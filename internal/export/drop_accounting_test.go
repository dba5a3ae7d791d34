package export

import (
	"sync"
	"testing"

	"robustmon/internal/obs"
)

// snapCounter reads a counter from a snapshot, treating "never
// registered" as zero — the obs contract for a path that never ran.
func snapCounter(s obs.Snapshot, name string) int64 {
	v, _ := s.Counter(name)
	return v
}

// TestExporterDropAccountingMatchesMetrics drives a Drop-policy
// exporter into sustained backpressure (a parked sink, a tiny buffer,
// many concurrent producers) and asserts that the obs registry's
// by-reason drop counters agree with Stats exactly — not
// approximately. The two surfaces are separate counters bumped at the
// same call sites, so any divergence is a lost or double count in the
// accounting itself.
// Run with -race: the producers, the writer goroutine and the
// post-close stragglers all touch the counters concurrently.
func TestExporterDropAccountingMatchesMetrics(t *testing.T) {
	t.Parallel()
	const (
		producers   = 8
		perProducer = 200
		segEvents   = 3
	)
	reg := obs.NewRegistry()
	sink := &blockingSink{gate: make(chan struct{})}
	exp := New(sink, Config{Buffer: 2, Policy: Drop, Obs: reg})

	// Phase 1: sustained "full" backpressure. The sink is parked for
	// the whole phase, so after one in-flight segment and two buffered
	// ones, every further Consume must drop with reason "full".
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			base := int64(p) * perProducer * segEvents
			for i := int64(0); i < perProducer; i++ {
				lo := base + i*segEvents + 1
				exp.Consume("m", tseq("m", lo, lo+segEvents-1))
			}
		}(p)
	}
	wg.Wait()
	close(sink.gate)
	if err := exp.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Phase 2: "closed" drops — stragglers racing past Close.
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			lo := int64(1_000_000 + p*segEvents)
			exp.Consume("m", tseq("m", lo, lo+segEvents-1))
		}(p)
	}
	wg.Wait()

	st := exp.Stats()
	snap := reg.Snapshot()

	// The backpressure must have been real on both sides of Close.
	if st.DroppedSegmentsFull == 0 {
		t.Fatalf("stats = %+v: no full-buffer drops — backpressure never happened", st)
	}
	if st.DroppedSegmentsClosed != producers {
		t.Fatalf("stats = %+v: %d post-close drops, want %d", st, st.DroppedSegmentsClosed, producers)
	}

	// Conservation: every produced segment was accepted or dropped-full
	// (pre-close) or dropped-closed (post-close), with proportional
	// event counts.
	if st.Segments+st.DroppedSegmentsFull != producers*perProducer {
		t.Fatalf("stats = %+v: accepted+droppedFull = %d, want %d",
			st, st.Segments+st.DroppedSegmentsFull, producers*perProducer)
	}
	if st.Events+st.DroppedEventsFull != producers*perProducer*segEvents {
		t.Fatalf("stats = %+v: event ledger does not balance", st)
	}
	if st.DroppedEventsFull != segEvents*st.DroppedSegmentsFull ||
		st.DroppedEventsClosed != segEvents*st.DroppedSegmentsClosed {
		t.Fatalf("stats = %+v: dropped events not proportional to dropped segments", st)
	}
	if st.DroppedSegments != st.DroppedSegmentsFull+st.DroppedSegmentsClosed ||
		st.DroppedEvents != st.DroppedEventsFull+st.DroppedEventsClosed {
		t.Fatalf("stats = %+v: by-reason split does not sum to the totals", st)
	}

	// The contract under test: registry counters equal Stats exactly.
	for _, c := range []struct {
		metric string
		want   int64
	}{
		{`export_dropped_segments_total{reason="full"}`, st.DroppedSegmentsFull},
		{`export_dropped_segments_total{reason="closed"}`, st.DroppedSegmentsClosed},
		{`export_dropped_events_total{reason="full"}`, st.DroppedEventsFull},
		{`export_dropped_events_total{reason="closed"}`, st.DroppedEventsClosed},
		{"export_segments_total", st.Segments},
		{"export_events_total", st.Events},
		{"export_written_total", st.Written},
	} {
		if got := snapCounter(snap, c.metric); got != c.want {
			t.Errorf("%s = %d, stats say %d — surfaces disagree", c.metric, got, c.want)
		}
	}

	// What the sink persisted is what the stats say was written.
	if got := int64(len(sink.Segments())); got != st.Written {
		t.Errorf("sink holds %d segments, stats say %d written", got, st.Written)
	}
}
