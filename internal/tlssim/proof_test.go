package tlssim

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"net"
	"sync"
	"testing"

	"repro/internal/certs"
	"repro/internal/netem"
	"repro/internal/wire"
)

// These tests pin the possession proof: a client accepts a server only
// if the presenter of the leaf certificate signed this connection's
// transcript with the leaf's key. They run over netem.Pipe, the
// transport every study connection uses.

// pipeHandshake runs Client against Serve over a netem.Pipe, with the
// server's end wrapped by wrap (nil keeps it bare).
func pipeHandshake(t *testing.T, ccfg *ClientConfig, scfg *ServerConfig, wrap func(net.Conn) net.Conn, host string, seq uint64) (*Session, error, *ServerResult) {
	t.Helper()
	cc, sc := netem.Pipe("device", host+":443")
	if wrap != nil {
		sc = wrap(sc)
	}
	resCh := make(chan *ServerResult, 1)
	go func() { resCh <- Serve(sc, scfg) }()
	sess, err := Client(cc, ccfg, host, seq)
	res := <-resCh
	if sess != nil {
		sess.Close()
	}
	if res.Session != nil {
		res.Session.Close()
	}
	return sess, err, res
}

// flipConn flips one byte of the server's nth write. With forward set it
// passes whatever the server leaves for its peer through to the pipe,
// so the client holds the server's record of what it signed while the
// bytes it read were damaged after signing. Without it the client holds
// no record and must decide from the wire bytes alone.
type flipConn struct {
	net.Conn
	write, offset int
	forward       bool

	mu     sync.Mutex
	writes int
}

func (c *flipConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	w := c.writes
	c.mu.Unlock()
	if w != c.write || c.offset >= len(p) {
		return c.Conn.Write(p)
	}
	q := append([]byte(nil), p...)
	q[c.offset] ^= 0x5a
	return c.Conn.Write(q)
}

func (c *flipConn) Leave(v any) {
	if h, ok := c.Conn.(interface{ Leave(any) }); c.forward && ok {
		h.Leave(v)
	}
}

// Server writes alternate record header and payload: the ServerHello is
// writes 1-2, the Certificate message 3-4 and ServerHelloDone 5-6.
const (
	certPayloadWrite = 4
	donePayloadWrite = 6
)

func wantProofFailure(t *testing.T, what string, err error) {
	t.Helper()
	var he *HandshakeError
	if !errors.As(err, &he) || he.Class != FailCertificate || !errors.Is(err, certs.ErrSignature) {
		t.Fatalf("%s: err = %v, want a certificate failure wrapping certs.ErrSignature", what, err)
	}
}

// An interceptor that presents the victim's chain, which the client
// trusts, but signs with a key of its own must fail the proof.
func TestInterceptorWithoutLeafKeyFailsProof(t *testing.T) {
	root, server := testPKI(t, "cloud.vendor.com")
	attacker := root.Issue(certs.Template{
		SerialNumber: 11,
		Subject:      server.Cert.Subject,
		NotBefore:    tNotBefore, NotAfter: tNotAfter,
		DNSNames: []string{"cloud.vendor.com"},
	}, "interceptor-key")
	scfg := defaultServer(root, server)
	scfg.Key = attacker
	for _, mode := range []ValidationMode{ValidateFull, ValidateNoHostname} {
		ccfg := defaultClient(root)
		ccfg.Validation = mode
		_, err, res := pipeHandshake(t, ccfg, scfg, nil, "cloud.vendor.com", 1)
		wantProofFailure(t, mode.String(), err)
		if res.Err == nil {
			t.Fatalf("%s: interceptor established a session", mode)
		}
	}
}

// Every flipped byte of the proof fails it, whether or not the client
// also holds the server's record of what it signed.
func TestFlippedProofByteFailsProof(t *testing.T) {
	root, server := testPKI(t, "h.com")
	for i := 0; i < 64; i++ {
		for _, forward := range []bool{false, true} {
			wrap := func(c net.Conn) net.Conn {
				return &flipConn{Conn: c, write: donePayloadWrite, offset: 4 + i, forward: forward}
			}
			_, err, _ := pipeHandshake(t, defaultClient(root), defaultServer(root, server), wrap, "h.com", 1)
			wantProofFailure(t, "proof byte", err)
		}
	}
}

// A flipped byte anywhere in the Certificate message never yields a
// session, and the client fails exactly as it does when it holds no
// record of the server's signature. A flip in the presented root's
// signature, its last 64 bytes, leaves the chain valid (the client
// anchors at its own copy of the root) but changes the transcript, so
// the proof itself must fail; the Finished exchange would catch the
// mismatch later, but with a different failure.
func TestFlippedCertificateByteMatchesRecordlessOutcome(t *testing.T) {
	root, server := testPKI(t, "h.com")
	n := len((&wire.CertificateMsg{Chain: []*certs.Certificate{server.Cert, root.Cert}}).Message().Marshal())
	for off := 0; off < n; off++ {
		var got [2]error
		for i, forward := range []bool{false, true} {
			wrap := func(c net.Conn) net.Conn {
				return &flipConn{Conn: c, write: certPayloadWrite, offset: off, forward: forward}
			}
			_, err, _ := pipeHandshake(t, defaultClient(root), defaultServer(root, server), wrap, "h.com", 1)
			if err == nil {
				t.Fatalf("offset %d (forward %v): corrupted Certificate message established", off, forward)
			}
			got[i] = err
		}
		if got[0].Error() != got[1].Error() {
			t.Fatalf("offset %d: with record %q, without %q", off, got[1], got[0])
		}
		if off >= n-ed25519.SignatureSize {
			wantProofFailure(t, "root signature byte", got[1])
		}
	}
}

// A record the server left on one connection vouches for nothing on
// another: an interceptor replaying it fails, and an honest server whose
// record was swapped for an older one is still accepted on the strength
// of its signature.
func TestRecordFromAnotherConnVouchesForNothing(t *testing.T) {
	root, server := testPKI(t, "h.com")
	var kept any
	keep := func(c net.Conn) net.Conn { return &swapConn{Conn: c, keep: &kept} }
	if _, err, _ := pipeHandshake(t, defaultClient(root), defaultServer(root, server), keep, "h.com", 1); err != nil {
		t.Fatalf("first handshake: %v", err)
	}
	if _, ok := kept.(*proofRecord); !ok {
		t.Fatalf("server left %T, want a *proofRecord", kept)
	}

	replay := func(c net.Conn) net.Conn { return &swapConn{Conn: c, replace: kept} }
	attacker := root.Issue(certs.Template{
		SerialNumber: 12,
		Subject:      server.Cert.Subject,
		NotBefore:    tNotBefore, NotAfter: tNotAfter,
		DNSNames: []string{"h.com"},
	}, "replaying-interceptor")
	scfg := defaultServer(root, server)
	scfg.Key = attacker
	_, err, _ := pipeHandshake(t, defaultClient(root), scfg, replay, "h.com", 2)
	wantProofFailure(t, "replayed record", err)

	if _, err, _ := pipeHandshake(t, defaultClient(root), defaultServer(root, server), replay, "h.com", 3); err != nil {
		t.Fatalf("honest server with a stale record: %v", err)
	}
}

// swapConn stores what the server leaves for its peer in *keep and
// forwards it, or, with replace set, leaves replace in its stead.
type swapConn struct {
	net.Conn
	keep    *any
	replace any
}

func (c *swapConn) Leave(v any) {
	if c.keep != nil {
		*c.keep = v
	}
	if c.replace != nil {
		v = c.replace
	}
	if h, ok := c.Conn.(interface{ Leave(any) }); ok {
		h.Leave(v)
	}
}

func TestProofRecordVouchesOnlyOnExactMatch(t *testing.T) {
	_, server := testPKI(t, "h.com")
	input := []byte(proofLabel + "transcript")
	sig := ed25519.Sign(server.Key, input)
	key := server.Cert.PublicKey
	r := &proofRecord{key: key, input: input, sig: sig}
	if !r.vouches(key, bytes.Clone(input), bytes.Clone(sig)) {
		t.Fatal("exact match does not vouch")
	}
	flip := func(b []byte, i int) []byte {
		b = bytes.Clone(b)
		b[i] ^= 1
		return b
	}
	_, other := testPKI(t, "other.com")
	cases := map[string]struct {
		key        ed25519.PublicKey
		input, sig []byte
	}{
		"other key":       {other.Cert.PublicKey, input, sig},
		"flipped key":     {flip(key, 31), input, sig},
		"short key":       {key[:31], input, sig},
		"flipped label":   {key, flip(input, 0), sig},
		"flipped message": {key, flip(input, len(input)-1), sig},
		"truncated input": {key, input[:len(input)-1], sig},
		"longer input":    {key, append(bytes.Clone(input), 0), sig},
		"bare transcript": {key, input[len(proofLabel):], sig},
		"flipped sig":     {key, input, flip(sig, 0)},
		"truncated sig":   {key, input, sig[:63]},
		"no sig":          {key, input, nil},
	}
	for name, c := range cases {
		if r.vouches(c.key, c.input, c.sig) {
			t.Errorf("%s: record vouches", name)
		}
	}
	var none *proofRecord
	if none.vouches(key, input, sig) {
		t.Error("nil record vouches")
	}
}
