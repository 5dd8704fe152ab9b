package tlssim

import (
	"bytes"
	"crypto/ed25519"
	"net"
	"slices"

	"repro/internal/ciphers"
	"repro/internal/wire"
)

// proofLabel prefixes the transcript in the possession proof's input.
const proofLabel = "iotls server proof:"

// transcript accumulates the handshake messages the possession proof
// and both Finished messages cover. The messages sit behind the proof
// label in one buffer, so the proof's input is a prefix of the buffer
// rather than a copy of it.
type transcript struct{ buf []byte }

// newTranscript sizes the buffer for size bytes of messages.
func newTranscript(size int) *transcript {
	buf := make([]byte, 0, len(proofLabel)+size)
	return &transcript{buf: append(buf, proofLabel...)}
}

// add appends the framed message and returns its bytes, which are the
// payload of the record that carries it. Bytes once added never change.
func (t *transcript) add(m wire.Handshake) []byte {
	n := len(t.buf)
	t.buf = m.Append(t.buf)
	return t.buf[n:len(t.buf):len(t.buf)]
}

// grow makes room for n more bytes of messages.
func (t *transcript) grow(n int) { t.buf = slices.Grow(t.buf, n) }

// bytes returns the messages so far, the input of the Finished MACs.
func (t *transcript) bytes() []byte { return t.buf[len(proofLabel):] }

// proofInput returns the possession proof's input over the messages so
// far. Later adds do not change it.
func (t *transcript) proofInput() []byte { return t.buf[:len(t.buf):len(t.buf)] }

// clientFlightSize is what a client's flight adds to the transcript: a
// 32-byte ClientKeyExchange and a 12-byte Finished, each behind a 4-byte
// handshake header.
const clientFlightSize = 4 + 32 + 4 + 12

// writeMessage adds m to the transcript and writes it as one handshake
// record: one encoding serves both.
func writeMessage(conn net.Conn, v ciphers.Version, t *transcript, m wire.Handshake) error {
	return wire.WriteRecord(conn, wire.Record{Type: wire.TypeHandshake, Version: v, Payload: t.add(m)})
}

// proofRecord is what Serve leaves on its conn for the peer when it
// signs the possession proof: the key the signature verifies under, the
// exact input it signed, and the signature. Ed25519 signing is
// deterministic and Verify(pub(k), m, Sign(k, m)) holds for every key k
// built from a seed (RFC 8032 §5.1), so a client whose leaf key, own
// proof input and received proof all equal a record's fields byte for
// byte knows what ed25519.Verify would return: true. The type is
// unexported, so only Serve makes one; a client without a matching
// record runs the real verify.
type proofRecord struct {
	key   ed25519.PublicKey
	input []byte
	sig   []byte
}

// vouches reports whether r shows that sig is key's signature over
// input. A nil record vouches for nothing.
func (r *proofRecord) vouches(key ed25519.PublicKey, input, sig []byte) bool {
	return r != nil && bytes.Equal(r.key, key) && bytes.Equal(r.input, input) && bytes.Equal(r.sig, sig)
}

// handOffHit, when set, observes every proof accepted on a record's
// word instead of ed25519.Verify. Only tests set it.
var handOffHit func(key ed25519.PublicKey, input, sig []byte)

// signProof signs the proof input with the leaf key and leaves the
// record for the peer, when the conn carries one (a netem.HandOff).
func signProof(conn net.Conn, cfg *ServerConfig, input []byte) []byte {
	sig := ed25519.Sign(cfg.Key.Key, input)
	if h, ok := conn.(interface{ Leave(any) }); ok {
		// Public returns the private key's embedded public half. For a
		// key built from a seed, as every certs key is, that is the
		// seed's public key, under which Verify accepts sig.
		key := cfg.Key.Key.Public().(ed25519.PublicKey)
		h.Leave(&proofRecord{key: key, input: input, sig: sig})
	}
	return sig
}

// proofHolds reports whether sig is key's signature over input: from
// the record the server left on conn when it vouches, by
// ed25519.Verify otherwise.
func proofHolds(conn net.Conn, key ed25519.PublicKey, input, sig []byte) bool {
	if len(key) != ed25519.PublicKeySize {
		return false
	}
	if h, ok := conn.(interface{ Take() any }); ok {
		if r, _ := h.Take().(*proofRecord); r.vouches(key, input, sig) {
			if handOffHit != nil {
				handOffHit(key, input, sig)
			}
			return true
		}
	}
	return ed25519.Verify(key, input, sig)
}
