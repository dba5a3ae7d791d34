package export

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"robustmon/internal/event"
	"robustmon/internal/obs"
)

// tev builds a test event with the given monitor and seq.
func tev(monitor string, seq int64) event.Event {
	return event.Event{
		Seq:     seq,
		Monitor: monitor,
		Type:    event.Enter,
		Pid:     seq,
		Proc:    "Op",
		Flag:    event.Completed,
		Time:    time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(seq) * time.Millisecond),
	}
}

// tseq builds a seq-sorted segment for one monitor covering [from, to].
func tseq(monitor string, from, to int64) event.Seq {
	var s event.Seq
	for i := from; i <= to; i++ {
		s = append(s, tev(monitor, i))
	}
	return s
}

func TestExporterDeliversAllSegments(t *testing.T) {
	t.Parallel()
	sink := &MemorySink{}
	exp := New(sink, Config{Buffer: 4})
	exp.Consume("a", tseq("a", 1, 5))
	exp.Consume("b", tseq("b", 6, 8))
	exp.Consume("a", nil) // empty segments are ignored
	if err := exp.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := exp.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := exp.Stats()
	if st.Segments != 2 || st.Events != 8 || st.Written != 2 {
		t.Fatalf("stats = %+v, want 2 segments / 8 events / 2 written", st)
	}
	if st.DroppedSegments != 0 || st.WriteErrors != 0 {
		t.Fatalf("stats = %+v, want no drops or errors", st)
	}
	merged := sink.Events()
	if len(merged) != 8 {
		t.Fatalf("sink holds %d events, want 8", len(merged))
	}
	if err := merged.Validate(); err != nil {
		t.Fatalf("merged sink events invalid: %v", err)
	}
}

// blockingSink parks every write until released, to force a full
// exporter buffer.
type blockingSink struct {
	MemorySink
	gate chan struct{}
}

func (b *blockingSink) WriteSegment(seg Segment) error {
	<-b.gate
	return b.MemorySink.WriteSegment(seg)
}

func TestExporterDropPolicyCountsDrops(t *testing.T) {
	t.Parallel()
	sink := &blockingSink{gate: make(chan struct{})}
	exp := New(sink, Config{Buffer: 1, Policy: Drop})
	// One segment parks in the sink, one fills the buffer; everything
	// after that must be dropped, not block.
	for i := int64(0); i < 10; i++ {
		exp.Consume("m", tseq("m", i*10+1, i*10+3))
	}
	close(sink.gate)
	if err := exp.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := exp.Stats()
	if st.DroppedSegments == 0 || st.DroppedEvents != 3*st.DroppedSegments {
		t.Fatalf("stats = %+v, want proportional drops under Drop policy", st)
	}
	if st.Segments+st.DroppedSegments != 10 {
		t.Fatalf("stats = %+v: accepted+dropped = %d, want 10", st, st.Segments+st.DroppedSegments)
	}
	if got := int64(len(sink.Segments())); got != st.Written {
		t.Fatalf("sink holds %d segments, stats say %d written", got, st.Written)
	}
}

func TestExporterBlockPolicyIsLossless(t *testing.T) {
	t.Parallel()
	sink := &blockingSink{gate: make(chan struct{})}
	exp := New(sink, Config{Buffer: 1, Policy: Block})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(0); i < 20; i++ {
			exp.Consume("m", tseq("m", i*5+1, i*5+5))
		}
	}()
	select {
	case <-done:
		t.Fatal("20 segments through a 1-slot buffer did not block")
	case <-time.After(20 * time.Millisecond):
	}
	close(sink.gate)
	<-done
	if err := exp.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := exp.Stats()
	if st.DroppedSegments != 0 || st.Written != 20 || st.Events != 100 {
		t.Fatalf("stats = %+v, want 20/100 written with zero drops", st)
	}
}

func TestExporterConsumeAfterCloseDrops(t *testing.T) {
	t.Parallel()
	sink := &MemorySink{}
	exp := New(sink, Config{})
	exp.Consume("m", tseq("m", 1, 2))
	if err := exp.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	exp.Consume("m", tseq("m", 3, 4)) // must not panic or write
	if err := exp.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := exp.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close = %v, want ErrClosed", err)
	}
	st := exp.Stats()
	if st.Written != 1 || st.DroppedSegments != 1 || st.DroppedEvents != 2 {
		t.Fatalf("stats = %+v, want 1 written and the post-close segment dropped", st)
	}
}

// failingSink fails every write.
type failingSink struct{ MemorySink }

func (f *failingSink) WriteSegment(Segment) error { return fmt.Errorf("disk on fire") }

func TestExporterSurfacesWriteErrors(t *testing.T) {
	t.Parallel()
	exp := New(&failingSink{}, Config{})
	exp.Consume("m", tseq("m", 1, 3))
	if err := exp.Flush(); err == nil {
		t.Fatal("Flush returned nil after a failed write")
	}
	// The error is sticky: every later Flush and Close keeps reporting
	// it, so no caller path (e.g. a detector's shutdown flush) can
	// swallow a failed export.
	if err := exp.Flush(); err == nil {
		t.Fatal("second Flush = nil, want the sticky write error")
	}
	if err := exp.Close(); err == nil {
		t.Fatal("Close = nil, want the sticky write error")
	}
	st := exp.Stats()
	if st.WriteErrors != 1 || st.Written != 0 {
		t.Fatalf("stats = %+v, want 1 write error and nothing written", st)
	}
}

func TestExporterBackgroundCompactionTrigger(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	var mu sync.Mutex
	runs := 0
	// MaxFileBytes 1 seals a file per segment, so the sealed backlog
	// is the number of segments written.
	sink, err := NewWALSink(t.TempDir(), WALConfig{
		MaxFileBytes: 1,
		CompactEvery: 3,
		Compact: func(string) error {
			mu.Lock()
			runs++
			mu.Unlock()
			return nil
		},
		Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	exp := New(sink, Config{})
	passes := reg.Counter("export_compactions_total")
	// Below the threshold: no compaction.
	exp.Consume("a", tseq("a", 1, 2))
	exp.Consume("a", tseq("a", 3, 4))
	if err := exp.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := passes.Value(); n != 0 {
		t.Fatalf("%d compactions launched below threshold", n)
	}
	// At the threshold: exactly one launch, awaited by Close.
	exp.Consume("a", tseq("a", 5, 6))
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	errs := reg.Counter("export_compact_errors_total").Value()
	mu.Lock()
	defer mu.Unlock()
	if runs != 1 || passes.Value() != 1 || errs != 0 {
		t.Fatalf("runs=%d compactions=%d errors=%d, want exactly one clean compaction",
			runs, passes.Value(), errs)
	}
}

func TestExporterCompactionErrorNotSticky(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	errBoom := errors.New("boom")
	var got error
	var mu sync.Mutex
	sink, err := NewWALSink(t.TempDir(), WALConfig{
		MaxFileBytes: 1,
		CompactEvery: 1,
		Compact:      func(string) error { return errBoom },
		OnSealError: func(err error) {
			mu.Lock()
			got = err
			mu.Unlock()
		},
		Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	exp := New(sink, Config{})
	exp.Consume("a", tseq("a", 1, 2))
	// A failed background compaction is reported and counted but must
	// not fail the export path itself.
	if err := exp.Flush(); err != nil {
		t.Fatalf("Flush poisoned by a compaction error: %v", err)
	}
	if err := exp.Close(); err != nil {
		t.Fatalf("Close poisoned by a compaction error: %v", err)
	}
	passes := reg.Counter("export_compactions_total").Value()
	errs := reg.Counter("export_compact_errors_total").Value()
	if passes < 1 || errs < 1 {
		t.Fatalf("compactions=%d errors=%d, want the failed compaction counted", passes, errs)
	}
	mu.Lock()
	defer mu.Unlock()
	if got != errBoom {
		t.Fatalf("OnSealError saw %v, want %v", got, errBoom)
	}
}
