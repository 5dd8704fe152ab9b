// Fault materialization: the handlers and conn wrappers that turn a
// fault.Decision into observable connection behaviour. Writes on the
// Pipe transport never block, so no path here can deadlock; each is
// also ordered so that it yields a deterministic failure class on the
// client whatever the scheduling:
//
//   - reset:    the ClientHello is consumed in full, then the
//     connection closes abruptly -> FailPeerClosed.
//   - stall:    blackHole (the Staller signal) -> FailIncomplete,
//     with no wall-clock wait.
//   - truncate: the server's first write is cut short and the
//     connection closes -> FailPeerClosed.
//   - corrupt:  one byte of the server's Certificate message flips;
//     the client reads the full flight before reacting, so the alert
//     or close it answers with never crosses a write in flight.
package netem

import (
	"io"
	"net"
	"sync"
)

// resetAfterHello serves the KindReset fault: it reads exactly one TLS
// record (the ClientHello) and then closes. Reading the full record
// before closing means both of the client's record writes have landed
// by then, so they always succeed and the mirror observes the same
// bytes at any scheduling, keeping captured artifacts bit-identical.
func resetAfterHello(conn net.Conn, _ ConnMeta) {
	defer conn.Close()
	var hdr [5]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return
	}
	bodyLen := int(hdr[3])<<8 | int(hdr[4])
	// Cap at the TLS record-size limit; nonsense lengths (a plaintext
	// peer, say) just close immediately — Close unblocks their writer.
	if bodyLen > 0 && bodyLen <= 1<<14+2048 {
		io.CopyN(io.Discard, conn, int64(bodyLen))
	}
}

// truncateConn serves the KindTruncate fault from the server side: the
// first write is cut short at a seeded offset and the connection
// closes. Later writes fail without touching the pipe.
type truncateConn struct {
	net.Conn // the server end of the Pipe
	entropy  uint64

	mu    sync.Mutex
	fired bool
}

func (c *truncateConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	fired := c.fired
	c.fired = true
	c.mu.Unlock()
	if fired {
		return 0, io.ErrClosedPipe
	}
	if len(p) < 2 {
		n, err := c.Conn.Write(p)
		c.Conn.Close()
		if err != nil {
			return n, err
		}
		return n, io.ErrClosedPipe
	}
	cut := 1 + int(c.entropy%uint64(len(p)-1))
	n, err := c.Conn.Write(p[:cut])
	c.Conn.Close()
	if err != nil {
		return n, err
	}
	return n, io.ErrClosedPipe
}

// StallPeer forwards the deterministic stall signal, so a handler that
// decides to withhold its flight (never writing) behaves exactly as it
// would unwrapped.
func (c *truncateConn) StallPeer() {
	if s, ok := c.Conn.(Staller); ok {
		s.StallPeer()
	}
}

// corruptConn serves the KindCorrupt fault: it flips one seeded byte of
// the server's fourth write. Writes one and two are the ServerHello
// record (header, payload), which the client parses immediately on
// receipt; an alert-and-close answered there would race the server's
// remaining writes, so whether those fail would depend on scheduling.
// The corruption therefore targets write four, the Certificate message
// payload, which the client only reacts to after reading the server's
// full flight, when the server has finished writing and is reading.
type corruptConn struct {
	net.Conn // the server end of the Pipe
	entropy  uint64

	mu     sync.Mutex
	writes int
}

// corruptTargetWrite selects the server's Certificate-message payload:
// writes go header, payload, header, payload, ... (wire.WriteRecord
// issues two writes per record).
const corruptTargetWrite = 4

func (c *corruptConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	w := c.writes
	c.mu.Unlock()
	if w != corruptTargetWrite || len(p) == 0 {
		return c.Conn.Write(p)
	}
	q := make([]byte, len(p))
	copy(q, p)
	mask := byte(c.entropy >> 8)
	if mask == 0 {
		mask = 0x5a
	}
	q[int(c.entropy%uint64(len(p)))] ^= mask
	return c.Conn.Write(q)
}

// StallPeer forwards the deterministic stall signal.
func (c *corruptConn) StallPeer() {
	if s, ok := c.Conn.(Staller); ok {
		s.StallPeer()
	}
}
