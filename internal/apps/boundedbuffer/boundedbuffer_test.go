package boundedbuffer

import (
	"testing"
	"time"

	"robustmon/internal/clock"
	"robustmon/internal/detect"
	"robustmon/internal/faults"
	"robustmon/internal/history"
	"robustmon/internal/monitor"
	"robustmon/internal/proc"
	"robustmon/internal/rules"
)

var epoch = time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC)

func TestNewValidation(t *testing.T) {
	t.Parallel()
	if _, err := New(0); err == nil {
		t.Fatal("capacity 0 accepted")
	}
	if _, err := New(-1); err == nil {
		t.Fatal("negative capacity accepted")
	}
	b, err := New(3, WithName("b3"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if b.Capacity() != 3 || b.Monitor().Name() != "b3" {
		t.Fatalf("Capacity=%d Name=%q", b.Capacity(), b.Monitor().Name())
	}
}

func TestFIFOTransfer(t *testing.T) {
	t.Parallel()
	b, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	r := proc.NewRuntime()
	const n = 100
	got := make([]int, 0, n)
	done := make(chan struct{})
	r.Spawn("consumer", func(p *proc.P) {
		defer close(done)
		for i := 0; i < n; i++ {
			v, err := b.Receive(p)
			if err != nil {
				t.Errorf("Receive: %v", err)
				return
			}
			got = append(got, v)
		}
	})
	r.Spawn("producer", func(p *proc.P) {
		for i := 0; i < n; i++ {
			if err := b.Send(p, i); err != nil {
				t.Errorf("Send: %v", err)
				return
			}
		}
	})
	r.Join()
	<-done
	if len(got) != n {
		t.Fatalf("received %d items, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d (FIFO order)", i, v, i)
		}
	}
	if b.Len() != 0 {
		t.Fatalf("Len = %d after drain, want 0", b.Len())
	}
}

// TestSendReceiveAllocatesNothing pins that a Send+Receive pair on a
// bare buffer reuses the buffer's backing array. Receive used to
// reslice past the head, so once the first capacity slots were used up
// every Send's append allocated a new one-element array.
func TestSendReceiveAllocatesNothing(t *testing.T) {
	// Not parallel: AllocsPerRun measures the whole process heap.
	const capacity = 4
	b, err := New(capacity)
	if err != nil {
		t.Fatal(err)
	}
	r := proc.NewRuntime()
	var avg float64
	r.Spawn("pair", func(p *proc.P) {
		i := 0
		pair := func() {
			i++
			if err := b.Send(p, i); err != nil {
				t.Errorf("Send: %v", err)
			}
			if v, err := b.Receive(p); err != nil || v != i {
				t.Errorf("Receive = %d, %v; want %d", v, err, i)
			}
		}
		// Use up the first capacity slots before measuring: AllocsPerRun
		// rounds down, so pairs that do not allocate would hide those
		// that do.
		for j := 0; j < capacity; j++ {
			pair()
		}
		avg = testing.AllocsPerRun(1000, pair)
	})
	r.Join()
	if avg != 0 {
		t.Fatalf("a Send+Receive pair allocates %.2f times, want 0", avg)
	}
}

func TestManyProducersManyConsumers(t *testing.T) {
	t.Parallel()
	b, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	r := proc.NewRuntime()
	const producers, perProducer = 4, 25
	total := producers * perProducer
	sum := make(chan int, total)
	for c := 0; c < 2; c++ {
		r.Spawn("consumer", func(p *proc.P) {
			for i := 0; i < total/2; i++ {
				v, err := b.Receive(p)
				if err != nil {
					return
				}
				sum <- v
			}
		})
	}
	for pr := 0; pr < producers; pr++ {
		base := pr * perProducer
		r.Spawn("producer", func(p *proc.P) {
			for i := 0; i < perProducer; i++ {
				if err := b.Send(p, base+i); err != nil {
					return
				}
			}
		})
	}
	r.Join()
	close(sum)
	seen := make(map[int]bool, total)
	for v := range sum {
		if seen[v] {
			t.Fatalf("value %d delivered twice", v)
		}
		seen[v] = true
	}
	if len(seen) != total {
		t.Fatalf("delivered %d distinct values, want %d", len(seen), total)
	}
}

func TestSendBlocksWhenFull(t *testing.T) {
	t.Parallel()
	b, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	r := proc.NewRuntime()
	r.Spawn("filler", func(p *proc.P) {
		if err := b.Send(p, 1); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	r.Join()

	blocked := r.Spawn("blocked", func(p *proc.P) {
		_ = b.Send(p, 2)
	})
	deadline := time.Now().Add(5 * time.Second)
	for blocked.Status() != proc.Parked {
		if time.Now().After(deadline) {
			t.Fatal("second Send never blocked on a full buffer")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if got := b.Monitor().CondLen(CondNotFull); got != 1 {
		t.Fatalf("CondLen(notFull) = %d, want 1", got)
	}
	// A receive unblocks it.
	r.Spawn("drain", func(p *proc.P) {
		if _, err := b.Receive(p); err != nil {
			t.Errorf("Receive: %v", err)
		}
	})
	r.Join()
	if b.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (the unblocked send completed)", b.Len())
	}
}

// newDetected builds a buffer wired to a detector with a virtual clock.
func newDetected(t *testing.T, capacity int, inj *faults.Injector) (*Buffer, *detect.Detector, *proc.Runtime) {
	t.Helper()
	db := history.New(history.WithFullTrace())
	clk := clock.NewVirtual(epoch)
	opts := []Option{WithMonitorOptions(monitor.WithRecorder(db), monitor.WithClock(clk))}
	if inj != nil {
		opts = append(opts, WithInjector(inj))
	}
	b, err := New(capacity, opts...)
	if err != nil {
		t.Fatal(err)
	}
	det := detect.New(db, detect.Config{Clock: clk, HoldWorld: true}, b.Monitor())
	return b, det, proc.NewRuntime()
}

func TestCleanRunPassesDetection(t *testing.T) {
	t.Parallel()
	b, det, r := newDetected(t, 2, nil)
	r.Spawn("producer", func(p *proc.P) {
		for i := 0; i < 10; i++ {
			if err := b.Send(p, i); err != nil {
				return
			}
		}
	})
	r.Spawn("consumer", func(p *proc.P) {
		for i := 0; i < 10; i++ {
			if _, err := b.Receive(p); err != nil {
				return
			}
		}
	})
	r.Join()
	if vs := det.CheckNow(); len(vs) != 0 {
		t.Fatalf("clean run produced violations: %v", vs)
	}
}

func TestInjectedSendOverflowDetected(t *testing.T) {
	t.Parallel()
	inj := faults.NewInjector(faults.SendOverflow)
	b, det, r := newDetected(t, 1, inj)
	// Fill the buffer, then arm: the next send must overflow.
	r.Spawn("filler", func(p *proc.P) { _ = b.Send(p, 1) })
	r.Join()
	inj.Arm()
	r.Spawn("overflower", func(p *proc.P) { _ = b.Send(p, 2) })
	r.Join()
	if inj.Fired() == 0 {
		t.Fatal("injection never fired")
	}
	vs := det.CheckNow()
	if !rules.HasRule(vs, rules.ST7a) || !rules.HasFault(vs, faults.SendOverflow) {
		t.Fatalf("violations = %v, want ST-7a/SendOverflow", vs)
	}
}

func TestInjectedReceiveOvertakeDetected(t *testing.T) {
	t.Parallel()
	inj := faults.NewInjector(faults.ReceiveOvertake)
	b, det, r := newDetected(t, 1, inj)
	inj.Arm()
	r.Spawn("thief", func(p *proc.P) { _, _ = b.Receive(p) }) // empty buffer
	r.Join()
	vs := det.CheckNow()
	if !rules.HasRule(vs, rules.ST7a) || !rules.HasFault(vs, faults.ReceiveOvertake) {
		t.Fatalf("violations = %v, want ST-7a/ReceiveOvertake", vs)
	}
}

func TestInjectedSendSpuriousDelayDetected(t *testing.T) {
	t.Parallel()
	inj := faults.NewInjector(faults.SendSpuriousDelay)
	b, det, r := newDetected(t, 2, inj)
	inj.Arm()
	victim := r.Spawn("victim", func(p *proc.P) { _ = b.Send(p, 1) })
	deadline := time.Now().Add(5 * time.Second)
	for victim.Status() != proc.Parked {
		if time.Now().After(deadline) {
			t.Fatal("spuriously delayed send never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}
	vs := det.CheckNow()
	if !rules.HasRule(vs, rules.ST7c) || !rules.HasFault(vs, faults.SendSpuriousDelay) {
		t.Fatalf("violations = %v, want ST-7c/SendSpuriousDelay", vs)
	}
	r.AbortAll()
	r.Join()
}

func TestInjectedReceiveSpuriousDelayDetected(t *testing.T) {
	t.Parallel()
	inj := faults.NewInjector(faults.ReceiveSpuriousDelay)
	b, det, r := newDetected(t, 2, inj)
	r.Spawn("filler", func(p *proc.P) { _ = b.Send(p, 1) })
	r.Join()
	inj.Arm()
	victim := r.Spawn("victim", func(p *proc.P) { _, _ = b.Receive(p) })
	deadline := time.Now().Add(5 * time.Second)
	for victim.Status() != proc.Parked {
		if time.Now().After(deadline) {
			t.Fatal("spuriously delayed receive never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}
	vs := det.CheckNow()
	if !rules.HasRule(vs, rules.ST7d) || !rules.HasFault(vs, faults.ReceiveSpuriousDelay) {
		t.Fatalf("violations = %v, want ST-7d/ReceiveSpuriousDelay", vs)
	}
	r.AbortAll()
	r.Join()
}
