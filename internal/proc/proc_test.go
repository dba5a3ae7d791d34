package proc

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestSpawnAssignsSequentialPids(t *testing.T) {
	t.Parallel()
	r := NewRuntime()
	a := r.Spawn("a", func(*P) {})
	b := r.Spawn("b", func(*P) {})
	if a.ID() != 1 || b.ID() != 2 {
		t.Fatalf("pids = %d,%d, want 1,2", a.ID(), b.ID())
	}
	r.Join()
}

func TestParkUnparkRoundTrip(t *testing.T) {
	t.Parallel()
	r := NewRuntime()
	var woke atomic.Bool
	p := r.Spawn("sleeper", func(p *P) {
		if got := p.Park(); got != Resumed {
			t.Errorf("Park = %v, want Resumed", got)
		}
		woke.Store(true)
	})
	waitStatus(t, p, Parked)
	p.Unpark()
	r.Join()
	if !woke.Load() {
		t.Fatal("process never resumed")
	}
}

func TestUnparkBeforeParkIsNotLost(t *testing.T) {
	t.Parallel()
	r := NewRuntime()
	gate := make(chan struct{})
	p := r.Spawn("late-parker", func(p *P) {
		<-gate
		if got := p.Park(); got != Resumed {
			t.Errorf("Park = %v, want Resumed", got)
		}
	})
	p.Unpark() // wake-up delivered before the process even parks
	close(gate)
	r.Join()
}

func TestAbortWakesParked(t *testing.T) {
	t.Parallel()
	r := NewRuntime()
	p := r.Spawn("victim", func(p *P) {
		if got := p.Park(); got != Aborted {
			t.Errorf("Park = %v, want Aborted", got)
		}
	})
	waitStatus(t, p, Parked)
	p.Abort()
	r.Join()
}

func TestAbortAllOnlyTouchesParked(t *testing.T) {
	t.Parallel()
	r := NewRuntime()
	parked := r.Spawn("parked", func(p *P) {
		if got := p.Park(); got != Aborted {
			t.Errorf("parked: Park = %v, want Aborted", got)
		}
	})
	resumedNormally := r.Spawn("normal", func(p *P) {
		if got := p.Park(); got != Resumed {
			t.Errorf("normal: Park = %v, want Resumed", got)
		}
	})
	waitStatus(t, parked, Parked)
	waitStatus(t, resumedNormally, Parked)
	resumedNormally.Unpark()
	// Wait until the normally-resumed process finished so AbortAll sees
	// it in Done state, not Parked.
	waitStatus(t, resumedNormally, Done)
	r.AbortAll()
	r.Join()
}

// TestAbortAllIsSticky: processes that park only after AbortAll has
// returned — its scan found them still running — do not block: one
// with a wake-up pending gets it, the other is aborted, so Join
// returns instead of waiting forever.
func TestAbortAllIsSticky(t *testing.T) {
	t.Parallel()
	r := NewRuntime()
	gate := make(chan struct{})
	r.Spawn("late", func(p *P) {
		<-gate
		if got := p.Park(); got != Aborted {
			t.Errorf("late: Park after AbortAll = %v, want Aborted", got)
		}
	})
	pending := r.Spawn("pending", func(p *P) {
		<-gate
		if got := p.Park(); got != Resumed {
			t.Errorf("pending: Park after AbortAll = %v, want its pending Resumed", got)
		}
	})
	r.AbortAll()
	pending.Unpark()
	close(gate)
	joined := make(chan struct{})
	go func() {
		r.Join()
		close(joined)
	}()
	select {
	case <-joined:
	case <-time.After(5 * time.Second):
		t.Fatal("Join still waiting 5 s after AbortAll: a process that parked after its scan was never woken")
	}
}

func TestOutcomeNormalReturn(t *testing.T) {
	t.Parallel()
	r := NewRuntime()
	p := r.Spawn("ok", func(*P) {})
	r.Join()
	o, ok := r.Outcome(p.ID())
	if !ok || o.Err != nil {
		t.Fatalf("Outcome = %+v,%v, want nil error", o, ok)
	}
	if p.Status() != Done {
		t.Fatalf("Status = %v, want Done", p.Status())
	}
}

func TestOutcomePanicCaptured(t *testing.T) {
	t.Parallel()
	r := NewRuntime()
	p := r.Spawn("boom", func(*P) { panic("kaboom") })
	r.Join()
	o, ok := r.Outcome(p.ID())
	if !ok || o.Err == nil || !strings.Contains(o.Err.Error(), "kaboom") {
		t.Fatalf("Outcome = %+v,%v, want recorded panic", o, ok)
	}
	if p.Status() != Panicked {
		t.Fatalf("Status = %v, want Panicked", p.Status())
	}
}

func TestOutcomeUnknownPid(t *testing.T) {
	t.Parallel()
	r := NewRuntime()
	if _, ok := r.Outcome(42); ok {
		t.Fatal("Outcome(42) reported ok for unknown pid")
	}
}

func TestGetAndProcsOrdered(t *testing.T) {
	t.Parallel()
	r := NewRuntime()
	var ps []*P
	for i := 0; i < 5; i++ {
		ps = append(ps, r.Spawn("w", func(*P) {}))
	}
	r.Join()
	if p, ok := r.Get(3); !ok || p != ps[2] {
		t.Fatal("Get(3) did not return the third process")
	}
	if _, ok := r.Get(99); ok {
		t.Fatal("Get(99) reported ok")
	}
}

func TestStatusString(t *testing.T) {
	t.Parallel()
	cases := map[Status]string{
		Ready:      "ready",
		Parked:     "parked",
		Done:       "done",
		Panicked:   "panicked",
		Status(42): "Status(42)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", int32(s), got, want)
		}
	}
}

func TestPString(t *testing.T) {
	t.Parallel()
	r := NewRuntime()
	p := r.Spawn("producer", func(*P) {})
	r.Join()
	if got := p.String(); got != "P1(producer)" {
		t.Fatalf("String = %q, want P1(producer)", got)
	}
}

// waitStatus polls until the process reaches the wanted status; the
// park transition happens on another goroutine, so tests must
// synchronise on the observable state instead of sleeping a guess.
func waitStatus(t *testing.T, p *P, want Status) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Status() != want {
		if time.Now().After(deadline) {
			t.Fatalf("process %v never reached status %v (now %v)", p, want, p.Status())
		}
		time.Sleep(100 * time.Microsecond)
	}
}
