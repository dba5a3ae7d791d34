package export

import (
	"os"
	"testing"
	"time"

	"robustmon/internal/event"
	obsrules "robustmon/internal/obs/rules"
)

func testAlert(seq int64, firing bool) obsrules.Alert {
	return obsrules.Alert{
		At:      time.Unix(1700000000, 123456789),
		Seq:     seq,
		Rule:    "detect-slow",
		Metric:  "detect_check_ns_p99",
		Value:   1.5e6,
		Ceiling: 1e6,
		Firing:  firing,
		Origin:  "node-a",
	}
}

func TestAlertCodecRoundTrip(t *testing.T) {
	for _, a := range []obsrules.Alert{
		testAlert(42, true),
		testAlert(43, false),             // a clear
		{At: time.Unix(0, 0), Rule: "r"}, // minimal
		{At: time.Unix(1, 1).Add(-3 * time.Second), Seq: -7, Rule: "neg", Value: -0.25, Ceiling: -1},
	} {
		got, err := decodeAlert(appendAlert(nil, a))
		if err != nil {
			t.Fatalf("decode %+v: %v", a, err)
		}
		if !got.At.Equal(a.At) {
			t.Fatalf("At = %v, want %v", got.At, a.At)
		}
		got.At = a.At // Equal but possibly different wall/monotonic repr
		if got != a {
			t.Fatalf("round trip = %+v, want %+v", got, a)
		}
	}
}

func TestAlertCodecRejectsDamage(t *testing.T) {
	good := appendAlert(nil, testAlert(9, true))
	if _, err := decodeAlert(good[:len(good)-1]); err == nil {
		t.Fatal("truncated payload decoded")
	}
	if _, err := decodeAlert(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	bad := append([]byte(nil), good...)
	bad[0] = alertVersion + 1
	if _, err := decodeAlert(bad); err == nil {
		t.Fatal("unknown version accepted")
	}
	bad = append([]byte(nil), good...)
	bad[len(bad)-1] = 2 // firing byte must be 0 or 1
	if _, err := decodeAlert(bad); err == nil {
		t.Fatal("firing=2 accepted")
	}
}

func TestAlertKeyIdentity(t *testing.T) {
	a := testAlert(10, true)
	if (Record{Alert: &a}).Key() != (Record{Alert: ptr(a)}).Key() {
		t.Fatal("alert key not deterministic")
	}
	b := a
	b.Firing = false
	if (Record{Alert: &a}).Key() == (Record{Alert: &b}).Key() {
		t.Fatal("fired and cleared alerts share a key")
	}
}

// TestWALSinkAlertRoundTrip writes alerts interleaved with other record
// kinds through a WALSink and checks ReadDir surfaces them in record
// order, windowed replay included.
func TestWALSinkAlertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewWALSink(dir, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fired := testAlert(5, true)
	cleared := testAlert(12, false)
	at := time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC)
	seg := event.Seq{
		{Seq: 1, Monitor: "m", Type: event.Enter, Pid: 1, Proc: "Op", Flag: event.Completed, Time: at},
	}
	if err := sink.WriteSegment(Segment{Monitor: "m", Events: seg}); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteAlert(fired); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteAlert(cleared); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Alerts) != 2 {
		t.Fatalf("got %d alerts, want 2", len(rep.Alerts))
	}
	if !rep.Alerts[0].Firing || rep.Alerts[1].Firing {
		t.Fatalf("alert order lost: %+v", rep.Alerts)
	}
	if rep.Alerts[0].Rule != fired.Rule || rep.Alerts[0].Origin != fired.Origin {
		t.Fatalf("alert fields lost: %+v", rep.Alerts[0])
	}
	if rep.DuplicateAlerts != 0 {
		t.Fatalf("DuplicateAlerts = %d, want 0", rep.DuplicateAlerts)
	}
}

func TestMergeReplayDedupsAlerts(t *testing.T) {
	a := testAlert(5, true)
	b := testAlert(12, false)
	merged, err := MergeReplay(nil, []Record{{Alert: &a}, {Alert: &b}, {Alert: &a}})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Alerts) != 2 {
		t.Fatalf("got %d alerts, want 2", len(merged.Alerts))
	}
	if merged.Alerts[0] != a || merged.Alerts[1] != b {
		t.Fatalf("first-occurrence order lost: %+v", merged.Alerts)
	}
	if merged.DuplicateAlerts != 1 {
		t.Fatalf("DuplicateAlerts = %d, want 1", merged.DuplicateAlerts)
	}
}

// TestAlertCorruptPayloadSkipped damages an alert payload on disk and
// checks the reader skips the record rather than surfacing garbage.
func TestAlertCorruptPayloadSkipped(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewWALSink(dir, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteAlert(testAlert(5, true)); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := WALFiles(dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("WALFiles: %v %v", names, err)
	}
	// Flip the firing byte — the final payload byte of the file — so
	// the payload no longer matches the CRC in its header: the reader
	// skips the record and counts it corrupt instead of surfacing a
	// damaged alert.
	raw, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 1
	if err := os.WriteFile(names[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Alerts) != 0 || rep.CorruptRecords != 1 {
		t.Fatalf("corrupt alert record surfaced: %d alerts, %d corrupt", len(rep.Alerts), rep.CorruptRecords)
	}
}
