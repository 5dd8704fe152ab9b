package netem

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/fault"
)

// onlyKind builds a profile injecting one fault kind on every dial.
func onlyKind(k fault.Kind) fault.Profile {
	p := fault.Profile{Name: "test-" + k.String()}
	switch k {
	case fault.KindDialFail:
		p.DialFail = 1
	case fault.KindReset:
		p.Reset = 1
	case fault.KindTruncate:
		p.Truncate = 1
	case fault.KindCorrupt:
		p.Corrupt = 1
	case fault.KindStall:
		p.Stall = 1
	}
	return p
}

// fakeRecord is a minimal well-formed TLS record (header + payload),
// standing in for a ClientHello.
func fakeRecord(payload []byte) []byte {
	hdr := []byte{22, 3, 3, byte(len(payload) >> 8), byte(len(payload))}
	return append(hdr, payload...)
}

func TestFaultDialFail(t *testing.T) {
	n, _ := newTestNetwork()
	n.Listen("s.com", 443, echoHandler)
	n.SetFaultPlan(fault.NewPlan(1, onlyKind(fault.KindDialFail)))
	if _, err := n.Dial("d", "s.com", 443); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Dial error = %v, want fault.ErrInjected", err)
	}
}

func TestFaultReset(t *testing.T) {
	n, _ := newTestNetwork()
	n.Listen("s.com", 443, echoHandler)
	n.SetFaultPlan(fault.NewPlan(1, onlyKind(fault.KindReset)))
	conn, err := n.Dial("d", "s.com", 443)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The full record write must succeed (the handler consumes it).
	if _, err := conn.Write(fakeRecord([]byte("hello"))); err != nil {
		t.Fatalf("record write failed: %v", err)
	}
	// Then the connection is gone: the read fails with a closed pipe,
	// not a timeout — the mid-handshake reset signature.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("read succeeded on a reset connection")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("reset surfaced as a timeout (%v), want abrupt close", err)
	}
}

func TestFaultStall(t *testing.T) {
	n, _ := newTestNetwork()
	n.Listen("s.com", 443, echoHandler)
	n.SetFaultPlan(fault.NewPlan(1, onlyKind(fault.KindStall)))
	conn, err := n.Dial("d", "s.com", 443)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(fakeRecord([]byte("hello"))); err != nil {
		t.Fatalf("record write failed: %v", err)
	}
	// The Staller signal must fail the read immediately as a timeout —
	// no wall-clock wait.
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = conn.Read(make([]byte, 1))
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("stalled read error = %v, want timeout", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("stalled read took %v, want immediate failure", time.Since(start))
	}
}

func TestFaultTruncate(t *testing.T) {
	n, _ := newTestNetwork()
	n.Listen("s.com", 443, echoHandler)
	n.SetFaultPlan(fault.NewPlan(1, onlyKind(fault.KindTruncate)))
	conn, err := n.Dial("d", "s.com", 443)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := []byte("0123456789abcdef")
	if _, err := conn.Write(msg); err != nil {
		t.Fatalf("write failed: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	got, err := io.ReadAll(conn)
	if err != nil && !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("read error = %v", err)
	}
	if len(got) == 0 || len(got) >= len(msg) {
		t.Fatalf("received %d echoed bytes, want a strict truncation of %d", len(got), len(msg))
	}
}

// fourWrites serves a fixed four-write script so the corrupt fault's
// target write is observable.
func fourWrites(conn net.Conn, _ ConnMeta) {
	defer conn.Close()
	buf := make([]byte, 64)
	if _, err := conn.Read(buf); err != nil {
		return
	}
	for i := 0; i < 4; i++ {
		p := []byte{byte('a' + i), byte('a' + i), byte('a' + i), byte('a' + i)}
		if _, err := conn.Write(p); err != nil {
			return
		}
	}
}

func TestFaultCorruptTargetsFourthWrite(t *testing.T) {
	n, _ := newTestNetwork()
	n.Listen("s.com", 443, fourWrites)
	n.SetFaultPlan(fault.NewPlan(1, onlyKind(fault.KindCorrupt)))
	conn, err := n.Dial("d", "s.com", 443)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("go")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	got := make([]byte, 16)
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	want := []byte("aaaabbbbccccdddd")
	diffs := 0
	for i := range want {
		if got[i] != want[i] {
			diffs++
			if i < 12 {
				t.Errorf("byte %d (write %d) corrupted; only the fourth write may be", i, i/4+1)
			}
		}
	}
	if diffs != 1 {
		t.Errorf("%d bytes differ, want exactly 1", diffs)
	}
}

func TestFaultLatency(t *testing.T) {
	n, _ := newTestNetwork()
	n.Listen("s.com", 443, echoHandler)
	n.SetFaultPlan(fault.NewPlan(1, fault.Profile{Name: "lat", Latency: 1, LatencySpike: 30 * time.Millisecond}))
	start := time.Now()
	conn, err := n.Dial("d", "s.com", 443)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("dial took %v, want >= 30ms latency spike", elapsed)
	}
}

// TestFaultCountersMatchPlan checks the gateway's per-kind telemetry
// agrees with the plan's own tally.
func TestFaultCountersMatchPlan(t *testing.T) {
	n, _ := newTestNetwork()
	n.Listen("s.com", 443, echoHandler)
	plan := fault.NewPlan(99, fault.Profiles["aggressive"])
	n.SetFaultPlan(plan)
	for i := 0; i < 300; i++ {
		conn, err := n.Dial("d", "s.com", 443)
		if err != nil {
			continue
		}
		conn.Close()
	}
	counts := plan.Counts()
	if len(counts) == 0 {
		t.Fatal("aggressive plan injected nothing over 300 dials")
	}
	for kind, v := range counts {
		if got := n.Telemetry().Counter("netem.faults." + kind).Value(); got != v {
			t.Errorf("netem.faults.%s = %d, plan counted %d", kind, got, v)
		}
	}
}

// TestFaultsBypassTaps checks reset/stall faults hijack before any
// interception tap, like drops do.
func TestFaultsBypassTaps(t *testing.T) {
	n, _ := newTestNetwork()
	n.Listen("s.com", 443, echoHandler)
	tapped := 0
	n.SetTap(func(ConnMeta) Handler {
		tapped++
		return echoHandler
	})
	n.SetFaultPlan(fault.NewPlan(1, onlyKind(fault.KindReset)))
	conn, err := n.Dial("d", "s.com", 443)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if tapped != 0 {
		t.Fatalf("tap consulted %d times on a reset connection", tapped)
	}
}

// A mirrored client takes what its handler left; a faulted handler's
// conn carries nothing beside its bytes.
func TestHandOffCrossesMirrorButNotFaults(t *testing.T) {
	for _, kind := range []fault.Kind{fault.KindNone, fault.KindTruncate, fault.KindCorrupt} {
		n, _ := newTestNetwork()
		n.SetMirror(func(ConnMeta) Mirror { return &recordingMirror{} })
		n.Listen("s.com", 443, func(conn net.Conn, _ ConnMeta) {
			defer conn.Close()
			if h, ok := conn.(HandOff); ok {
				h.Leave("record")
			}
			conn.Write([]byte("flight"))
		})
		if kind != fault.KindNone {
			n.SetFaultPlan(fault.NewPlan(1, onlyKind(kind)))
		}
		conn, err := n.Dial("d", "s.com", 443)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		io.ReadAll(conn)
		var got any
		if h, ok := conn.(interface{ Take() any }); ok {
			got = h.Take()
		}
		want := any(nil)
		if kind == fault.KindNone {
			want = "record"
		}
		if got != want {
			t.Errorf("fault %v: client took %v, want %v", kind, got, want)
		}
		conn.Close()
		n.WaitHandlers()
	}
}
