// Package boundedbuffer is the canonical communication-coordinator
// monitor (§2.1): producer/consumer pairs exchanging data through a
// bounded buffer guarded by Send and Receive procedures. It is the
// workload behind the paper's coordinator experiments and the carrier
// for the monitor-procedure-level faults (§2.2 II), which are injected
// as deliberate bugs in the Send/Receive condition checks.
package boundedbuffer

import (
	"fmt"
	"sync"

	"robustmon/internal/faults"
	"robustmon/internal/monitor"
	"robustmon/internal/proc"
)

// Procedure and condition names in the monitor declaration.
const (
	ProcSend     = "Send"
	ProcReceive  = "Receive"
	CondNotFull  = "notFull"
	CondNotEmpty = "notEmpty"
)

// Buffer is a bounded buffer of ints behind an augmented monitor.
// Construct with New; methods are safe for concurrent use by processes
// of one runtime.
type Buffer struct {
	mon      *monitor.Monitor
	capacity int
	inj      *faults.Injector

	mu    sync.Mutex
	items []int
}

// Option configures a Buffer.
type Option func(*config)

type config struct {
	name    string
	monOpts []monitor.Option
	inj     *faults.Injector
}

// WithName overrides the monitor name (default "boundedbuffer").
func WithName(name string) Option {
	return func(c *config) { c.name = name }
}

// WithMonitorOptions passes options (recorder, clock) to the underlying
// monitor.
func WithMonitorOptions(opts ...monitor.Option) Option {
	return func(c *config) { c.monOpts = append(c.monOpts, opts...) }
}

// WithInjector wires a fault injector into both the monitor protocol
// (implementation-level kinds) and the Send/Receive logic
// (procedure-level kinds).
func WithInjector(inj *faults.Injector) Option {
	return func(c *config) { c.inj = inj }
}

// Spec returns the monitor declaration a Buffer of the given name and
// capacity uses.
func Spec(name string, capacity int) monitor.Spec {
	return monitor.Spec{
		Name:        name,
		Kind:        monitor.CommunicationCoordinator,
		Conditions:  []string{CondNotFull, CondNotEmpty},
		Procedures:  []string{ProcSend, ProcReceive},
		Rmax:        capacity,
		SendProc:    ProcSend,
		ReceiveProc: ProcReceive,
	}
}

// New builds a bounded buffer with the given capacity.
func New(capacity int, opts ...Option) (*Buffer, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("boundedbuffer: capacity must be positive, got %d", capacity)
	}
	cfg := config{name: "boundedbuffer"}
	for _, o := range opts {
		o(&cfg)
	}
	monOpts := cfg.monOpts
	if cfg.inj != nil {
		monOpts = append(monOpts, monitor.WithHooks(cfg.inj.Hooks()))
	}
	mon, err := monitor.New(Spec(cfg.name, capacity), monOpts...)
	if err != nil {
		return nil, err
	}
	return &Buffer{
		mon:      mon,
		capacity: capacity,
		inj:      cfg.inj,
		items:    make([]int, 0, capacity),
	}, nil
}

// Monitor exposes the underlying monitor (for detectors and tests).
func (b *Buffer) Monitor() *monitor.Monitor { return b.mon }

// Capacity returns the buffer capacity (the declaration's Rmax).
func (b *Buffer) Capacity() int { return b.capacity }

// Len returns the current number of buffered items.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.items)
}

// Send deposits v, blocking while the buffer is full. The §2.1
// integrity constraint — "a process calling Send can be delayed if and
// only if the buffer is full" — is exactly what the injected
// procedure-level bugs subvert.
func (b *Buffer) Send(p *proc.P, v int) error {
	if err := b.mon.Enter(p, ProcSend); err != nil {
		return err
	}
	shouldWait := b.Len() == b.capacity
	switch b.bug() {
	case faults.BufSendSpuriousDelay:
		if !shouldWait && b.inj.TryFire() {
			shouldWait = true // fault II.a: delayed though not full
		}
	case faults.BufSendSkipFullCheck:
		if shouldWait && b.inj.TryFire() {
			shouldWait = false // fault II.d: proceeds though full
		}
	}
	if shouldWait {
		if err := b.mon.Wait(p, ProcSend, CondNotFull); err != nil {
			return err
		}
	}
	b.mu.Lock()
	b.items = append(b.items, v)
	b.mu.Unlock()
	return b.mon.SignalExit(p, ProcSend, CondNotEmpty)
}

// Receive removes and returns the oldest item, blocking while the
// buffer is empty.
func (b *Buffer) Receive(p *proc.P) (int, error) {
	if err := b.mon.Enter(p, ProcReceive); err != nil {
		return 0, err
	}
	shouldWait := b.Len() == 0
	switch b.bug() {
	case faults.BufReceiveSpuriousDelay:
		if !shouldWait && b.inj.TryFire() {
			shouldWait = true // fault II.b: delayed though not empty
		}
	case faults.BufReceiveSkipEmptyCheck:
		if shouldWait && b.inj.TryFire() {
			shouldWait = false // fault II.c: proceeds though empty
		}
	}
	if shouldWait {
		if err := b.mon.Wait(p, ProcReceive, CondNotEmpty); err != nil {
			return 0, err
		}
	}
	b.mu.Lock()
	var v int
	if len(b.items) > 0 {
		// Shift the rest down rather than reslice past the head, so the
		// backing array is kept and Send's append reuses it.
		v = b.items[0]
		b.items = b.items[:copy(b.items, b.items[1:])]
	}
	b.mu.Unlock()
	return v, b.mon.SignalExit(p, ProcReceive, CondNotFull)
}

func (b *Buffer) bug() faults.BufferBug {
	if b.inj == nil {
		return faults.BufNone
	}
	return b.inj.BufferBug()
}
