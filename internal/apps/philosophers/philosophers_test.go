package philosophers

import (
	"sync"
	"testing"
	"time"

	"robustmon/internal/clock"
	"robustmon/internal/detect"
	"robustmon/internal/history"
	"robustmon/internal/monitor"
	"robustmon/internal/proc"
	"robustmon/internal/rules"
)

var epoch = time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC)

func TestNewValidation(t *testing.T) {
	t.Parallel()
	if _, err := New(1); err == nil {
		t.Fatal("1 seat accepted")
	}
	tb, err := New(5, WithName("t5"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if tb.Seats() != 5 || tb.Monitor().Name() != "t5" {
		t.Fatalf("Seats=%d Name=%q", tb.Seats(), tb.Monitor().Name())
	}
}

func TestSeatRangeChecked(t *testing.T) {
	t.Parallel()
	tb, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	r := proc.NewRuntime()
	r.Spawn("p", func(p *proc.P) {
		if err := tb.PickUp(p, -1); err == nil {
			t.Error("PickUp(-1) accepted")
		}
		if err := tb.PutDown(p, 3); err == nil {
			t.Error("PutDown(3) accepted")
		}
	})
	r.Join()
}

func TestNeighboursNeverEatTogether(t *testing.T) {
	t.Parallel()
	const seats, meals = 5, 20
	tb, err := New(seats)
	if err != nil {
		t.Fatal(err)
	}
	r := proc.NewRuntime()
	var mu sync.Mutex
	eating := make([]bool, seats)
	total := 0
	for seat := 0; seat < seats; seat++ {
		seat := seat
		r.Spawn("phil", func(p *proc.P) {
			for m := 0; m < meals; m++ {
				if err := tb.PickUp(p, seat); err != nil {
					return
				}
				mu.Lock()
				left := (seat + seats - 1) % seats
				right := (seat + 1) % seats
				if eating[left] || eating[right] {
					t.Errorf("seat %d eats while a neighbour eats", seat)
				}
				eating[seat] = true
				total++
				mu.Unlock()
				mu.Lock()
				eating[seat] = false
				mu.Unlock()
				if err := tb.PutDown(p, seat); err != nil {
					return
				}
			}
		})
	}
	r.Join()
	if total != seats*meals {
		t.Fatalf("total meals = %d, want %d (no starvation under this schedule)", total, seats*meals)
	}
	for seat := 0; seat < seats; seat++ {
		if tb.Eating(seat) {
			t.Fatalf("seat %d still marked eating after the run", seat)
		}
	}
}

// TestPutDownWakesBothNeighbours pins the baton pass: with seat 0
// eating and seats 1 and 3 both waiting for its forks, one PutDown(0)
// must get both of them eating. A signal-exit resumes one waiter, so
// the neighbour it wakes has to wake the other on its way out.
func TestPutDownWakesBothNeighbours(t *testing.T) {
	t.Parallel()
	tb, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	r := proc.NewRuntime()
	eating := make(chan struct{})
	release := make(chan struct{})
	r.Spawn("seat0", func(p *proc.P) {
		if err := tb.PickUp(p, 0); err != nil {
			t.Errorf("PickUp(0): %v", err)
			close(eating)
			return
		}
		close(eating)
		<-release
		if err := tb.PutDown(p, 0); err != nil {
			t.Errorf("PutDown(0): %v", err)
		}
	})
	<-eating
	for _, seat := range []int{1, 3} {
		seat := seat
		r.Spawn("hungry", func(p *proc.P) {
			// Both stay eating: the test checks that they eat together.
			_ = tb.PickUp(p, seat)
		})
	}
	fail := func(format string, args ...any) {
		t.Helper()
		r.AbortAll()
		r.Join()
		t.Fatalf(format, args...)
	}
	mon := tb.Monitor()
	if !eventually(func() bool { return mon.CondLen(condFor(1)) == 1 && mon.CondLen(condFor(3)) == 1 }) {
		close(release)
		fail("seats 1 and 3 never both waited for seat 0's forks")
	}
	close(release)
	if !eventually(func() bool { return tb.Eating(1) && tb.Eating(3) }) {
		fail("after PutDown(0): seat 1 eating=%v, seat 3 eating=%v; want both (lost wake-up)",
			tb.Eating(1), tb.Eating(3))
	}
	r.Join()
}

// eventually polls cond until it holds or a deadline passes.
func eventually(cond func() bool) bool {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

func TestDoublePutDownCaughtRealtime(t *testing.T) {
	t.Parallel()
	db := history.New()
	clk := clock.NewVirtual(epoch)
	spec := Spec("table", 3)
	rt, err := detect.NewRealTime(db, []monitor.Spec{spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := New(3, WithMonitorOptions(monitor.WithRecorder(rt), monitor.WithClock(clk)))
	if err != nil {
		t.Fatal(err)
	}
	r := proc.NewRuntime()
	r.Spawn("clumsy", func(p *proc.P) {
		if err := tb.PickUp(p, 0); err != nil {
			return
		}
		if err := tb.PutDown(p, 0); err != nil {
			return
		}
		_ = tb.PutDown(p, 0) // fault III.a shape: release without acquire
	})
	r.Join()
	vs := rt.Violations()
	if !rules.HasRule(vs, rules.FD7b) {
		t.Fatalf("violations = %v, want FD-7b for the double put-down", vs)
	}
}

func TestCleanMealsPassDetection(t *testing.T) {
	t.Parallel()
	db := history.New()
	clk := clock.NewVirtual(epoch)
	tb, err := New(4, WithMonitorOptions(monitor.WithRecorder(db), monitor.WithClock(clk)))
	if err != nil {
		t.Fatal(err)
	}
	det := detect.New(db, detect.Config{Clock: clk, HoldWorld: true}, tb.Monitor())
	r := proc.NewRuntime()
	for seat := 0; seat < 4; seat++ {
		seat := seat
		r.Spawn("phil", func(p *proc.P) {
			for m := 0; m < 10; m++ {
				if err := tb.PickUp(p, seat); err != nil {
					return
				}
				if err := tb.PutDown(p, seat); err != nil {
					return
				}
			}
		})
	}
	r.Join()
	if vs := det.CheckNow(); len(vs) != 0 {
		t.Fatalf("clean meals produced violations: %v", vs)
	}
}
