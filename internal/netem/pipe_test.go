package netem

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"
)

// isTimeout reports whether err is a net.Error timeout, the class
// tlssim maps to an incomplete handshake.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// readResult runs one Read on c in the background.
func readResult(c net.Conn, size int) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, size))
		done <- err
	}()
	return done
}

// waitBlocked returns once a Read on end c is blocked waiting for data.
func waitBlocked(c net.Conn) {
	pc := c.(*pipeConn)
	for {
		pc.p.mu.Lock()
		waiting := pc.p.queues[pc.end].waiting
		pc.p.mu.Unlock()
		if waiting {
			return
		}
		runtime.Gosched()
	}
}

// within waits for a background result, failing after a second.
func within(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Second):
		t.Fatal("blocked Read was not woken")
		return nil
	}
}

func TestPipeQueuedBytesReadBeforeEOF(t *testing.T) {
	client, server := Pipe("dev", "srv:443")
	if _, err := server.Write([]byte("alert")); err != nil {
		t.Fatal(err)
	}
	server.Close()
	buf := make([]byte, 16)
	n, err := client.Read(buf)
	if err != nil || string(buf[:n]) != "alert" {
		t.Fatalf("Read = %q, %v; want the queued alert", buf[:n], err)
	}
	if _, err := client.Read(buf); err != io.EOF {
		t.Fatalf("Read after drain = %v, want io.EOF", err)
	}
}

func TestPipeWriteAfterCloseFails(t *testing.T) {
	for _, closeLocal := range []bool{true, false} {
		client, server := Pipe("dev", "srv:443")
		if closeLocal {
			client.Close()
		} else {
			server.Close()
		}
		if _, err := client.Write([]byte("x")); err != io.ErrClosedPipe {
			t.Errorf("closeLocal=%v: Write = %v, want io.ErrClosedPipe", closeLocal, err)
		}
	}
}

func TestPipeExpiredDeadlineTimesOut(t *testing.T) {
	client, server := Pipe("dev", "srv:443")
	defer server.Close()
	past := time.Now().Add(-time.Second)
	client.SetDeadline(past)
	if _, err := client.Read(make([]byte, 1)); !isTimeout(err) {
		t.Fatalf("Read past deadline = %v, want a timeout net.Error", err)
	}
	if _, err := client.Write([]byte("x")); !isTimeout(err) {
		t.Fatalf("Write past deadline = %v, want a timeout net.Error", err)
	}
	// A deadline that passes while the Read is blocked fails it too.
	client.SetDeadline(time.Now().Add(20 * time.Millisecond))
	if err := within(t, readResult(client, 1)); !isTimeout(err) {
		t.Fatalf("Read across deadline = %v, want a timeout net.Error", err)
	}
}

func TestPipePastReadDeadlineWakesBlockedReader(t *testing.T) {
	client, server := Pipe("dev", "srv:443")
	defer server.Close()
	done := readResult(client, 1)
	waitBlocked(client)
	client.SetReadDeadline(time.Now().Add(-time.Second))
	if err := within(t, done); !isTimeout(err) {
		t.Fatalf("woken Read = %v, want a timeout net.Error", err)
	}
}

func TestPipeCloseWakesBlockedReader(t *testing.T) {
	client, server := Pipe("dev", "srv:443")
	done := readResult(client, 1)
	waitBlocked(client)
	client.Close()
	if err := within(t, done); err != io.ErrClosedPipe {
		t.Fatalf("Read woken by local Close = %v, want io.ErrClosedPipe", err)
	}

	client, server = Pipe("dev", "srv:443")
	defer client.Close()
	done = readResult(client, 1)
	waitBlocked(client)
	server.Close()
	if err := within(t, done); err != io.EOF {
		t.Fatalf("Read woken by the peer's Close = %v, want io.EOF", err)
	}
}

func TestPipeStallSurvivesDeadlineCalls(t *testing.T) {
	client, server := Pipe("dev", "srv:443")
	defer server.Close()
	server.Write([]byte("hi"))
	server.(Staller).StallPeer()
	client.SetDeadline(time.Now().Add(time.Hour))
	client.SetReadDeadline(time.Time{})
	buf := make([]byte, 8)
	// Bytes queued before the stall are still delivered ...
	if n, err := client.Read(buf); err != nil || string(buf[:n]) != "hi" {
		t.Fatalf("Read = %q, %v; want the queued bytes", buf[:n], err)
	}
	// ... then every read fails at once, whatever the deadlines say.
	start := time.Now()
	for i := 0; i < 2; i++ {
		if _, err := client.Read(buf); !isTimeout(err) {
			t.Fatalf("stalled Read = %v, want a timeout net.Error", err)
		}
		client.SetDeadline(time.Time{})
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("stalled reads took %v, want immediate failure", d)
	}
	// The stall is one-way: the server still reads what the client sends.
	client.Write([]byte("ok"))
	if n, err := server.Read(buf); err != nil || string(buf[:n]) != "ok" {
		t.Fatalf("server Read = %q, %v", buf[:n], err)
	}
}

// TestPipeStreamIntegrity pushes a seeded stream of random-sized writes
// through the pipe against a reader with random-sized buffers. The
// reader must reproduce the stream exactly and, as on net.Pipe, no Read
// may span two writes. Run it under -race.
func TestPipeStreamIntegrity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sizes []int
	var want []byte
	for len(want) < 1<<20 {
		n := 1 + rng.Intn(700)
		sizes = append(sizes, n)
		chunk := make([]byte, n)
		rng.Read(chunk)
		want = append(want, chunk...)
	}
	client, server := Pipe("dev", "srv:443")
	go func() {
		defer server.Close()
		off := 0
		for _, n := range sizes {
			if _, err := server.Write(want[off : off+n]); err != nil {
				t.Error(err)
				return
			}
			off += n
		}
	}()

	readRng := rand.New(rand.NewSource(2))
	var got []byte
	chunk, left := 0, sizes[0]
	for {
		buf := make([]byte, 1+readRng.Intn(1000))
		n, err := client.Read(buf)
		if n > left {
			t.Fatalf("Read of %d bytes spans a write boundary (%d left in write %d)", n, left, chunk)
		}
		got = append(got, buf[:n]...)
		if left -= n; left == 0 && chunk+1 < len(sizes) {
			chunk++
			left = sizes[chunk]
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read %d bytes, want %d; streams differ", len(got), len(want))
	}
}

// TestClosedConnsAreNotPinned dials and closes many connections with
// 5 s deadlines set on both ends. A transport whose deadline timers
// outlive Close keeps every one of those conns reachable from the
// runtime's timer heap until the timers fire.
func TestClosedConnsAreNotPinned(t *testing.T) {
	const conns = 10_000
	n, _ := newTestNetwork()
	// The handler arms its deadline before its one-byte greeting, so
	// both ends hold a live deadline when the client closes.
	n.Listen("srv", 443, func(conn net.Conn, _ ConnMeta) {
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		conn.Write([]byte{1})
		conn.Read(make([]byte, 1))
	})
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < conns; i++ {
		conn, err := n.Dial("dev", "srv", 443)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(conn, make([]byte, 1)); err != nil {
			t.Fatal(err)
		}
		conn.Close()
		// One handler at a time: the runtime keeps every goroutine
		// descriptor it ever allocated, so letting handlers pile up
		// would grow the live heap for reasons unrelated to the conns.
		n.WaitHandlers()
	}
	after := heap()
	grew := int64(after) - int64(before)
	t.Logf("live heap grew %.1f MiB over %d closed conns", float64(grew)/(1<<20), conns)
	if grew >= 2<<20 {
		t.Fatalf("live heap grew %d bytes after closing %d conns, want < 2 MiB", grew, conns)
	}
}
