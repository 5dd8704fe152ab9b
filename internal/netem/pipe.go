package netem

import (
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// Pipe returns the two ends of an in-memory, full-duplex connection
// between the hosts named local and remote: the first end's LocalAddr
// is local, the second's is remote. Dial connects every client to its
// handler through one.
//
// A reader sees what it would see on net.Pipe; only the cost differs.
//
//   - Write queues a copy of its bytes, wakes the reader and returns: it
//     never waits for the peer. It fails with io.ErrClosedPipe once
//     either end is closed, and with os.ErrDeadlineExceeded once the
//     write deadline has passed.
//   - Read returns up to len(p) bytes of one queued write, never
//     crossing into the next, so read sizes match net.Pipe's whatever
//     the writer's lead. Its checks run in a fixed order: local end
//     closed (io.ErrClosedPipe), bytes queued, peer closed (io.EOF),
//     stalled or read deadline passed (os.ErrDeadlineExceeded), and
//     only then does it block. Queued bytes therefore outlive the
//     writer's Close: an alert written just before closing is still
//     read.
//   - Deadlines are plain values. A Read that blocks with one set arms a
//     timer for that wait and stops it before returning; setting a
//     deadline or closing wakes a blocked reader. No timer outlives a
//     call, so a closed conn is garbage once its owners drop it.
//
// Both ends implement Staller and HandOff.
func Pipe(local, remote string) (net.Conn, net.Conn) {
	p := &pipe{}
	p.queues[0].wake = make(chan struct{}, 1)
	p.queues[1].wake = make(chan struct{}, 1)
	a := &pipeConn{p: p, end: 0, local: hostAddr(local), remote: hostAddr(remote)}
	b := &pipeConn{p: p, end: 1, local: hostAddr(remote), remote: hostAddr(local)}
	return a, b
}

// hostAddr is a net.Addr naming a simulated host.
type hostAddr string

func (h hostAddr) Network() string { return "iotls" }
func (h hostAddr) String() string  { return string(h) }

// pipe is the state the two ends share. One mutex guards both
// directions: each end is driven by one goroutine at a time, so the
// lock is rarely contended.
type pipe struct {
	mu     sync.Mutex
	queues [2]queue // queues[i] holds the bytes end i has yet to read
	closed [2]bool
	left   [2]any // left[i] is the value awaiting end i's Take
}

// queue is one direction of a pipe.
type queue struct {
	buf    []byte // buf[off:] is unread
	off    int
	chunks []int // unread length of each queued write, oldest first, from head
	head   int

	// stalled is set by the writing end's StallPeer and never cleared.
	stalled bool
	// waiting reports a reader blocked on wake. Reads on one end are
	// serialized, so one slot is enough to wake it.
	waiting bool
	wake    chan struct{}
}

func (q *queue) empty() bool { return q.head == len(q.chunks) }

func (q *queue) push(b []byte) {
	// Slide the unread bytes down once they start past the middle, so a
	// reader that never quite catches up does not grow buf forever.
	if q.off > 0 && q.off >= len(q.buf)/2 {
		q.buf = q.buf[:copy(q.buf, q.buf[q.off:])]
		q.off = 0
		q.chunks = q.chunks[:copy(q.chunks, q.chunks[q.head:])]
		q.head = 0
	}
	q.buf = append(q.buf, b...)
	q.chunks = append(q.chunks, len(b))
}

// pop moves up to len(b) bytes of the oldest write into b.
func (q *queue) pop(b []byte) int {
	n := copy(b, q.buf[q.off:q.off+q.chunks[q.head]])
	q.off += n
	if q.chunks[q.head] -= n; q.chunks[q.head] == 0 {
		q.head++
	}
	if q.empty() {
		q.buf, q.off, q.chunks, q.head = q.buf[:0], 0, q.chunks[:0], 0
	}
	return n
}

// signal wakes the reader blocked on q, if any. Callers hold pipe.mu.
func (q *queue) signal() {
	if q.waiting {
		select {
		case q.wake <- struct{}{}:
		default:
		}
	}
}

// pipeConn is one end of a Pipe.
type pipeConn struct {
	p             *pipe
	end           int
	local, remote hostAddr

	// readMu serializes Reads; timer is the reused wait timer it guards.
	readMu sync.Mutex
	timer  *time.Timer

	// Guarded by p.mu.
	readDeadline, writeDeadline time.Time
}

// expired reports whether deadline t is set and has passed.
func expired(t time.Time) bool { return !t.IsZero() && !time.Now().Before(t) }

func (c *pipeConn) Read(b []byte) (int, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	p, q := c.p, &c.p.queues[c.end]
	for {
		p.mu.Lock()
		q.waiting = false
		switch {
		case p.closed[c.end]:
			p.mu.Unlock()
			return 0, io.ErrClosedPipe
		case !q.empty():
			n := q.pop(b)
			p.mu.Unlock()
			return n, nil
		case p.closed[1-c.end]:
			p.mu.Unlock()
			return 0, io.EOF
		case q.stalled || expired(c.readDeadline):
			p.mu.Unlock()
			return 0, os.ErrDeadlineExceeded
		}
		q.waiting = true
		deadline := c.readDeadline
		p.mu.Unlock()
		c.wait(q.wake, deadline)
	}
}

// wait blocks until wake fires or deadline (if set) passes. A stale
// wake-up only costs the caller one more pass over its checks.
func (c *pipeConn) wait(wake chan struct{}, deadline time.Time) {
	if deadline.IsZero() {
		<-wake
		return
	}
	if c.timer == nil {
		c.timer = time.NewTimer(time.Until(deadline))
	} else {
		c.timer.Reset(time.Until(deadline))
	}
	select {
	case <-wake:
		if !c.timer.Stop() {
			select {
			case <-c.timer.C:
			default:
			}
		}
	case <-c.timer.C:
	}
}

func (c *pipeConn) Write(b []byte) (int, error) {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.closed[0] || p.closed[1]:
		return 0, io.ErrClosedPipe
	case expired(c.writeDeadline):
		return 0, os.ErrDeadlineExceeded
	}
	if len(b) > 0 {
		q := &p.queues[1-c.end]
		q.push(b)
		q.signal()
	}
	return len(b), nil
}

// Close closes this end. Bytes it already wrote stay readable by the
// peer; bytes queued for it, and any value left for it, are dropped.
func (c *pipeConn) Close() error {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed[c.end] {
		p.closed[c.end] = true
		in := &p.queues[c.end]
		in.buf, in.off, in.chunks, in.head = nil, 0, nil, 0
		p.left[c.end] = nil
		p.queues[0].signal()
		p.queues[1].signal()
	}
	return nil
}

// StallPeer implements Staller: the peer's reads fail with a timeout
// once its queued bytes are drained, and no deadline call clears it.
func (c *pipeConn) StallPeer() {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	q := &p.queues[1-c.end]
	q.stalled = true
	q.signal()
}

// Leave implements HandOff.
func (c *pipeConn) Leave(v any) {
	c.p.mu.Lock()
	c.p.left[1-c.end] = v
	c.p.mu.Unlock()
}

// Take implements HandOff.
func (c *pipeConn) Take() any {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	v := c.p.left[c.end]
	c.p.left[c.end] = nil
	return v
}

func (c *pipeConn) SetDeadline(t time.Time) error      { return c.setDeadline(t, true, true) }
func (c *pipeConn) SetReadDeadline(t time.Time) error  { return c.setDeadline(t, true, false) }
func (c *pipeConn) SetWriteDeadline(t time.Time) error { return c.setDeadline(t, false, true) }

func (c *pipeConn) setDeadline(t time.Time, read, write bool) error {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed[0] || p.closed[1] {
		return io.ErrClosedPipe
	}
	if write {
		c.writeDeadline = t
	}
	if read {
		c.readDeadline = t
		p.queues[c.end].signal()
	}
	return nil
}

func (c *pipeConn) LocalAddr() net.Addr  { return c.local }
func (c *pipeConn) RemoteAddr() net.Addr { return c.remote }
