// Package philosophers is the dining-philosophers table as a
// resource-access-right allocator monitor: PickUp(i) grants philosopher
// i both forks atomically (waiting on a per-philosopher condition when
// a neighbour eats), PutDown(i) returns them and wakes hungry
// neighbours. The declaration's path expression "path PickUp ; PutDown
// end" lets the real-time checker catch a philosopher who puts down
// forks twice or picks up while already eating.
//
// Wake-ups pass a baton: a signal-exit resumes one waiter, so every
// exit from the monitor — PickUp's as well as PutDown's — hands the
// monitor to one hungry philosopher whose forks are both free, if
// there is one. When a PutDown frees forks for both neighbours, the
// neighbour it wakes wakes the other on its own way out of PickUp.
package philosophers

import (
	"fmt"
	"sync"

	"robustmon/internal/monitor"
	"robustmon/internal/proc"
)

// Procedure names in the monitor declaration.
const (
	ProcPickUp  = "PickUp"
	ProcPutDown = "PutDown"
)

// Table seats n philosophers. Construct with New.
type Table struct {
	mon *monitor.Monitor
	n   int

	mu     sync.Mutex
	eating []bool
	hungry []bool
}

// Option configures a Table.
type Option func(*config)

type config struct {
	name    string
	monOpts []monitor.Option
}

// WithName overrides the monitor name (default "table").
func WithName(name string) Option {
	return func(c *config) { c.name = name }
}

// WithMonitorOptions passes options (recorder, clock, hooks) to the
// underlying monitor.
func WithMonitorOptions(opts ...monitor.Option) Option {
	return func(c *config) { c.monOpts = append(c.monOpts, opts...) }
}

// Spec returns the monitor declaration a Table of the given name and
// size uses: one condition per seat plus the calling-order path.
func Spec(name string, n int) monitor.Spec {
	conds := make([]string, n)
	for i := range conds {
		conds[i] = condFor(i)
	}
	return monitor.Spec{
		Name:        name,
		Kind:        monitor.ResourceAllocator,
		Conditions:  conds,
		Procedures:  []string{ProcPickUp, ProcPutDown},
		CallOrder:   "path PickUp ; PutDown end",
		AcquireProc: ProcPickUp,
		ReleaseProc: ProcPutDown,
	}
}

func condFor(seat int) string { return fmt.Sprintf("self%d", seat) }

// New builds a table with n ≥ 2 seats.
func New(n int, opts ...Option) (*Table, error) {
	if n < 2 {
		return nil, fmt.Errorf("philosophers: need at least 2 seats, got %d", n)
	}
	cfg := config{name: "table"}
	for _, o := range opts {
		o(&cfg)
	}
	mon, err := monitor.New(Spec(cfg.name, n), cfg.monOpts...)
	if err != nil {
		return nil, err
	}
	return &Table{
		mon:    mon,
		n:      n,
		eating: make([]bool, n),
		hungry: make([]bool, n),
	}, nil
}

// Monitor exposes the underlying monitor.
func (t *Table) Monitor() *monitor.Monitor { return t.mon }

// Seats returns the number of seats.
func (t *Table) Seats() int { return t.n }

// Eating reports whether philosopher seat is currently eating.
func (t *Table) Eating(seat int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.eating[seat]
}

// PickUp blocks philosopher seat until both neighbouring forks are
// free, then marks it eating.
func (t *Table) PickUp(p *proc.P, seat int) error {
	if err := t.checkSeat(seat); err != nil {
		return err
	}
	if err := t.mon.Enter(p, ProcPickUp); err != nil {
		return err
	}
	t.mu.Lock()
	canEat := !t.eating[t.left(seat)] && !t.eating[t.right(seat)]
	if !canEat {
		t.hungry[seat] = true
	}
	t.mu.Unlock()
	if !canEat {
		if err := t.mon.Wait(p, ProcPickUp, condFor(seat)); err != nil {
			return err
		}
		// The signaller established the eating invariant before waking us.
	}
	t.mu.Lock()
	t.hungry[seat] = false
	t.eating[seat] = true
	wake := t.reserveLocked(seat)
	t.mu.Unlock()
	return t.exit(p, ProcPickUp, wake)
}

// PutDown returns philosopher seat's forks and passes the monitor to
// a hungry neighbour that can now eat.
func (t *Table) PutDown(p *proc.P, seat int) error {
	if err := t.checkSeat(seat); err != nil {
		return err
	}
	if err := t.mon.Enter(p, ProcPutDown); err != nil {
		return err
	}
	t.mu.Lock()
	t.eating[seat] = false
	wake := t.reserveLocked(seat)
	t.mu.Unlock()
	return t.exit(p, ProcPutDown, wake)
}

// reserveLocked picks the first hungry seat after seat, going round
// the table, whose forks are both free, and reserves them so no later
// PickUp can slip in before it resumes. It returns that seat, or -1
// when no hungry seat can eat. Caller holds t.mu.
func (t *Table) reserveLocked(seat int) int {
	for k := 1; k <= t.n; k++ {
		nb := (seat + k) % t.n
		if t.hungry[nb] && !t.eating[t.left(nb)] && !t.eating[t.right(nb)] {
			t.hungry[nb] = false
			t.eating[nb] = true
			return nb
		}
	}
	return -1
}

// exit leaves the monitor, resuming the philosopher at seat wake (the
// baton) when wake >= 0.
func (t *Table) exit(p *proc.P, procName string, wake int) error {
	if wake >= 0 {
		return t.mon.SignalExit(p, procName, condFor(wake))
	}
	return t.mon.Exit(p, procName)
}

func (t *Table) left(seat int) int  { return (seat + t.n - 1) % t.n }
func (t *Table) right(seat int) int { return (seat + 1) % t.n }

func (t *Table) checkSeat(seat int) error {
	if seat < 0 || seat >= t.n {
		return fmt.Errorf("philosophers: seat %d out of range [0,%d)", seat, t.n)
	}
	return nil
}
