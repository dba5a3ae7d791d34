package event

import (
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2001, 7, 1, 12, 0, 0, 0, time.UTC)

func mk(seq int64, typ Type, pid int64, proc, cond string, flag int) Event {
	return Event{
		Seq: seq, Monitor: "buf", Type: typ, Pid: pid,
		Proc: proc, Cond: cond, Flag: flag,
		Time: t0.Add(time.Duration(seq) * time.Millisecond),
	}
}

func TestTypeString(t *testing.T) {
	t.Parallel()
	cases := []struct {
		typ  Type
		want string
	}{
		{Enter, "Enter"},
		{Wait, "Wait"},
		{SignalExit, "Signal-Exit"},
		{Type(99), "Type(99)"},
	}
	for _, tc := range cases {
		if got := tc.typ.String(); got != tc.want {
			t.Errorf("Type(%d).String() = %q, want %q", int(tc.typ), got, tc.want)
		}
	}
}

func TestEventStringPaperNotation(t *testing.T) {
	t.Parallel()
	cases := []struct {
		e    Event
		want string
	}{
		{mk(1, Enter, 3, "Send", "", 1), "Enter(P3, Send, 1)"},
		{mk(2, Wait, 3, "Send", "notFull", 0), "Wait(P3, Send, notFull)"},
		{mk(3, SignalExit, 3, "Send", "notEmpty", 0), "Signal-Exit(P3, Send, notEmpty, 0)"},
		{mk(4, Type(0), 3, "X", "", 0), "UnknownEvent(P3, X)"},
	}
	for _, tc := range cases {
		if got := tc.e.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestValidate(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		e       Event
		wantErr string
	}{
		{"ok enter", mk(1, Enter, 1, "P", "", 1), ""},
		{"ok wait", mk(1, Wait, 1, "P", "c", 0), ""},
		{"ok signal-exit no cond", mk(1, SignalExit, 1, "P", "", 0), ""},
		{"bad type", mk(1, Type(9), 1, "P", "", 0), "invalid type"},
		{"zero pid", mk(1, Enter, 0, "P", "", 1), "zero pid"},
		{"bad flag", mk(1, Enter, 1, "P", "", 7), "outside {0,1}"},
		{"wait without cond", mk(1, Wait, 1, "P", "", 0), "Wait without condition"},
		{"enter with cond", Event{Seq: 1, Type: Enter, Pid: 1, Proc: "P", Cond: "c", Flag: 1}, "Enter with condition"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			err := tc.e.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestSeqSubSeq(t *testing.T) {
	t.Parallel()
	s := Seq{
		mk(1, Enter, 1, "P", "", 1),
		mk(2, Wait, 1, "P", "c", 0),
		mk(3, SignalExit, 2, "P", "c", 1),
		mk(4, SignalExit, 1, "P", "", 0),
	}
	sub := s.SubSeq(2, 3)
	if len(sub) != 2 || sub[0].Seq != 2 || sub[1].Seq != 3 {
		t.Fatalf("SubSeq(2,3) = %v", sub)
	}
	if got := s.SubSeq(10, 20); len(got) != 0 {
		t.Fatalf("SubSeq outside range = %v, want empty", got)
	}
}

func TestSeqFilters(t *testing.T) {
	t.Parallel()
	s := Seq{
		mk(1, Enter, 1, "Send", "", 1),
		mk(2, Wait, 2, "Receive", "empty", 0),
		mk(3, SignalExit, 1, "Send", "empty", 1),
	}
	s[1].Monitor = "other"
	if got := s.ByMonitor("buf"); len(got) != 2 {
		t.Fatalf("ByMonitor(buf) returned %d events, want 2", len(got))
	}
}

func TestSeqValidate(t *testing.T) {
	t.Parallel()
	good := Seq{mk(1, Enter, 1, "P", "", 1), mk(2, Wait, 1, "P", "c", 0)}
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
	dup := Seq{mk(5, Enter, 1, "P", "", 1), mk(5, Wait, 1, "P", "c", 0)}
	if err := dup.Validate(); err == nil {
		t.Fatal("Validate accepted duplicate sequence numbers")
	}
	unregistered := Seq{mk(0, Enter, 1, "P", "", 1)}
	if err := unregistered.Validate(); err == nil {
		t.Fatal("Validate accepted a zero sequence number")
	}
}
