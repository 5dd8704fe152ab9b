package tlssim

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/ciphers"
	"repro/internal/wire"
)

// These tests pin down how the client classifies the wire damage the
// fault-injection subsystem manufactures (internal/fault via netem):
// truncated and corrupted server flights must fail with a stable,
// deterministic failure class — the driver's retry policies key off it.

// truncatingConn cuts the server's first write short and closes, like
// netem's truncate fault.
type truncatingConn struct {
	net.Conn
	cut int

	mu    sync.Mutex
	fired bool
}

func (c *truncatingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	fired := c.fired
	c.fired = true
	c.mu.Unlock()
	if fired {
		return 0, net.ErrClosed
	}
	cut := c.cut
	if cut > len(p) {
		cut = len(p)
	}
	n, err := c.Conn.Write(p[:cut])
	c.Conn.Close()
	if err != nil {
		return n, err
	}
	return n, net.ErrClosed
}

// corruptingConn flips one byte of the server's fourth write (the
// Certificate message payload), like netem's corrupt fault.
type corruptingConn struct {
	net.Conn
	offset int

	mu     sync.Mutex
	writes int
}

func (c *corruptingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	w := c.writes
	c.mu.Unlock()
	if w != 4 || len(p) == 0 {
		return c.Conn.Write(p)
	}
	q := make([]byte, len(p))
	copy(q, p)
	q[c.offset%len(p)] ^= 0x5a
	return c.Conn.Write(q)
}

func TestClientClassifiesTruncatedFlightDeterministically(t *testing.T) {
	root, server := testPKI(t, "h.com")
	classes := map[FailureClass]int{}
	for run := 0; run < 5; run++ {
		cc, sc := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			Serve(&truncatingConn{Conn: sc, cut: 3}, defaultServer(root, server))
		}()
		cfg := defaultClient(root)
		cfg.HandshakeTimeout = 500 * time.Millisecond
		_, err := Client(cc, cfg, "h.com", 1)
		<-done
		var he *HandshakeError
		if !errors.As(err, &he) {
			t.Fatalf("run %d: err = %v, want HandshakeError", run, err)
		}
		classes[he.Class]++
	}
	if len(classes) != 1 {
		t.Fatalf("truncated flight produced multiple failure classes: %v", classes)
	}
	for class := range classes {
		if class != FailPeerClosed && class != FailIncomplete && class != FailIO {
			t.Fatalf("truncated flight classified %v, want a connection-failure class", class)
		}
	}
}

func TestClientClassifiesCorruptedCertificateDeterministically(t *testing.T) {
	root, server := testPKI(t, "h.com")
	for _, offset := range []int{0, 7, 63} {
		classes := map[FailureClass]int{}
		for run := 0; run < 3; run++ {
			cc, sc := net.Pipe()
			done := make(chan struct{})
			go func() {
				defer close(done)
				Serve(&corruptingConn{Conn: sc, offset: offset}, defaultServer(root, server))
			}()
			cfg := defaultClient(root)
			cfg.HandshakeTimeout = 500 * time.Millisecond
			sess, err := Client(cc, cfg, "h.com", 1)
			<-done
			if err == nil {
				sess.Close()
				t.Fatalf("offset %d run %d: corrupted Certificate message established", offset, run)
			}
			var he *HandshakeError
			if !errors.As(err, &he) {
				t.Fatalf("offset %d run %d: err = %v, want HandshakeError", offset, run, err)
			}
			classes[he.Class]++
		}
		if len(classes) != 1 {
			t.Fatalf("offset %d: corruption produced multiple failure classes: %v", offset, classes)
		}
	}
}

// TestServeClassifiesClientHangupAsPeerClosed: a client that hangs up
// while the server still has flight to write (as one does when a
// corrupted Certificate header fails its parse) must cost the server
// the same failure class whether the close meets the server's next
// write or, on a buffered transport, its next read. Here the client
// hangs up right after its hello, so the ServerHello write meets it.
func TestServeClassifiesClientHangupAsPeerClosed(t *testing.T) {
	root, server := testPKI(t, "h.com")
	cc, sc := net.Pipe()
	go func() {
		hello := defaultClient(root).BuildClientHello("h.com", 1)
		wire.WriteHandshake(cc, ciphers.TLS12, hello.Message())
		cc.Close()
	}()
	res := Serve(sc, defaultServer(root, server))
	if res.Err == nil || res.Err.Class != FailPeerClosed {
		t.Fatalf("server result = %v, want %v", res.Err, FailPeerClosed)
	}
}
