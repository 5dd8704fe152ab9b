package wire

import (
	"crypto/sha256"
	"fmt"
	"io"

	"repro/internal/certs"
	"repro/internal/ciphers"
)

// HandshakeType identifies a handshake message.
type HandshakeType uint8

// Handshake message types (RFC 5246 §7.4).
const (
	TypeClientHello       HandshakeType = 1
	TypeServerHello       HandshakeType = 2
	TypeCertificate       HandshakeType = 11
	TypeServerHelloDone   HandshakeType = 14
	TypeClientKeyExchange HandshakeType = 16
	TypeFinished          HandshakeType = 20
)

// String implements fmt.Stringer.
func (t HandshakeType) String() string {
	switch t {
	case TypeClientHello:
		return "client_hello"
	case TypeServerHello:
		return "server_hello"
	case TypeCertificate:
		return "certificate"
	case TypeServerHelloDone:
		return "server_hello_done"
	case TypeClientKeyExchange:
		return "client_key_exchange"
	case TypeFinished:
		return "finished"
	default:
		return fmt.Sprintf("handshake(%d)", uint8(t))
	}
}

// Handshake is one handshake message: a type plus its body.
type Handshake struct {
	Type HandshakeType
	Body []byte
}

// Marshal frames the message with the 4-byte handshake header.
func (h Handshake) Marshal() []byte {
	out := make([]byte, 4+len(h.Body))
	out[0] = byte(h.Type)
	out[1] = byte(len(h.Body) >> 16)
	out[2] = byte(len(h.Body) >> 8)
	out[3] = byte(len(h.Body))
	copy(out[4:], h.Body)
	return out
}

// ParseHandshake decodes one handshake message and returns any trailing
// bytes (records may coalesce several messages).
func ParseHandshake(data []byte) (Handshake, []byte, error) {
	if len(data) < 4 {
		return Handshake{}, nil, io.ErrUnexpectedEOF
	}
	n := int(data[1])<<16 | int(data[2])<<8 | int(data[3])
	if len(data) < 4+n {
		return Handshake{}, nil, io.ErrUnexpectedEOF
	}
	h := Handshake{Type: HandshakeType(data[0]), Body: append([]byte(nil), data[4:4+n]...)}
	return h, data[4+n:], nil
}

// WriteHandshake frames msg in a handshake record at record version v.
func WriteHandshake(w io.Writer, v ciphers.Version, msg Handshake) error {
	return WriteRecord(w, Record{Type: TypeHandshake, Version: v, Payload: msg.Marshal()})
}

// --- ClientHello --------------------------------------------------------

// ClientHello is the first message of a TLS handshake. Its field layout
// (versions, suites, compression, extension order) is what the paper's
// fingerprinting analysis (§5.3) keys on.
type ClientHello struct {
	// LegacyVersion is the client_version field: the maximum version for
	// pre-1.3 stacks, frozen at TLS 1.2 for 1.3-capable clients that use
	// the supported_versions extension instead.
	LegacyVersion      ciphers.Version
	Random             [32]byte
	SessionID          []byte
	CipherSuites       []ciphers.Suite
	CompressionMethods []byte
	Extensions         []Extension
}

// Marshal encodes the ClientHello body (without the handshake header).
func (ch *ClientHello) Marshal() []byte {
	b := newBuilder()
	b.u16(uint16(ch.LegacyVersion))
	b.raw(ch.Random[:])
	b.vec8(func(b *builder) { b.raw(ch.SessionID) })
	b.vec16(func(b *builder) {
		for _, s := range ch.CipherSuites {
			b.u16(uint16(s))
		}
	})
	comp := ch.CompressionMethods
	if len(comp) == 0 {
		comp = []byte{0}
	}
	b.vec8(func(b *builder) { b.raw(comp) })
	marshalExtensions(b, ch.Extensions)
	return b.bytes()
}

// Message wraps the body in its handshake frame.
func (ch *ClientHello) Message() Handshake {
	return Handshake{Type: TypeClientHello, Body: ch.Marshal()}
}

// ParseClientHello decodes a ClientHello body.
func ParseClientHello(body []byte) (*ClientHello, error) {
	p := parser{data: body}
	ch := &ClientHello{}
	ch.LegacyVersion = ciphers.Version(p.u16())
	copy(ch.Random[:], p.take(32))
	ch.SessionID = append([]byte(nil), p.vec8()...)
	suites := p.vec16()
	if p.err == nil && len(suites)%2 != 0 {
		p.fail()
	}
	for i := 0; p.err == nil && i+1 < len(suites); i += 2 {
		ch.CipherSuites = append(ch.CipherSuites, ciphers.Suite(uint16(suites[i])<<8|uint16(suites[i+1])))
	}
	// compression_methods<1..2^8-1>: Marshal writes the null method for
	// an empty list, so accepting one would not round-trip.
	ch.CompressionMethods = append([]byte(nil), p.vec8()...)
	if p.err == nil && len(ch.CompressionMethods) == 0 {
		p.fail()
	}
	ch.Extensions = parseExtensions(&p)
	if p.err != nil {
		return nil, fmt.Errorf("wire: malformed ClientHello: %w", p.err)
	}
	if !p.empty() {
		return nil, fmt.Errorf("wire: %d trailing bytes after ClientHello", len(body)-p.pos)
	}
	return ch, nil
}

// SNI returns the server_name extension hostname, if present.
func (ch *ClientHello) SNI() (string, bool) {
	data, ok := findExtension(ch.Extensions, ExtServerName)
	if !ok {
		return "", false
	}
	host, err := ParseSNI(data)
	if err != nil {
		return "", false
	}
	return host, true
}

// SupportedVersions returns the version list the client actually offers:
// the supported_versions extension when present, otherwise every version
// from SSL 3.0 through the legacy version field.
func (ch *ClientHello) SupportedVersions() []ciphers.Version {
	if data, ok := findExtension(ch.Extensions, ExtSupportedVersions); ok {
		if vs, err := ParseSupportedVersions(data); err == nil {
			return vs
		}
	}
	var out []ciphers.Version
	for _, v := range ciphers.AllVersions {
		if v <= ch.LegacyVersion {
			out = append(out, v)
		}
	}
	return out
}

// MaxVersion returns the highest version the client offers.
func (ch *ClientHello) MaxVersion() ciphers.Version {
	max := ciphers.Version(0)
	for _, v := range ch.SupportedVersions() {
		if v > max {
			max = v
		}
	}
	return max
}

// SignatureAlgorithms returns the advertised signature algorithms.
func (ch *ClientHello) SignatureAlgorithms() []ciphers.SignatureAlgorithm {
	data, ok := findExtension(ch.Extensions, ExtSignatureAlgorithms)
	if !ok {
		return nil
	}
	algs, err := ParseSignatureAlgorithms(data)
	if err != nil {
		return nil
	}
	return algs
}

// SupportedGroups returns the advertised named groups.
func (ch *ClientHello) SupportedGroups() []uint16 {
	data, ok := findExtension(ch.Extensions, ExtSupportedGroups)
	if !ok {
		return nil
	}
	gs, err := ParseSupportedGroups(data)
	if err != nil {
		return nil
	}
	return gs
}

// ECPointFormats returns the advertised EC point formats.
func (ch *ClientHello) ECPointFormats() []uint8 {
	data, ok := findExtension(ch.Extensions, ExtECPointFormats)
	if !ok {
		return nil
	}
	fs, err := ParseECPointFormats(data)
	if err != nil {
		return nil
	}
	return fs
}

// RequestsOCSPStaple reports whether the client sent status_request.
func (ch *ClientHello) RequestsOCSPStaple() bool {
	_, ok := findExtension(ch.Extensions, ExtStatusRequest)
	return ok
}

// ExtensionTypes returns the extension types in wire order (the
// fingerprinting feature).
func (ch *ClientHello) ExtensionTypes() []ExtensionType {
	out := make([]ExtensionType, len(ch.Extensions))
	for i, e := range ch.Extensions {
		out[i] = e.Type
	}
	return out
}

// --- ServerHello --------------------------------------------------------

// ServerHello is the server's handshake response selecting version and
// ciphersuite.
type ServerHello struct {
	// Version is the selected protocol version (legacy field; for TLS 1.3
	// the selection also appears in supported_versions).
	Version           ciphers.Version
	Random            [32]byte
	SessionID         []byte
	CipherSuite       ciphers.Suite
	CompressionMethod byte
	Extensions        []Extension
}

// Marshal encodes the ServerHello body.
func (sh *ServerHello) Marshal() []byte {
	b := newBuilder()
	legacy := sh.Version
	if legacy >= ciphers.TLS13 {
		legacy = ciphers.TLS12
	}
	b.u16(uint16(legacy))
	b.raw(sh.Random[:])
	b.vec8(func(b *builder) { b.raw(sh.SessionID) })
	b.u16(uint16(sh.CipherSuite))
	b.u8(sh.CompressionMethod)
	exts := sh.Extensions
	if sh.Version >= ciphers.TLS13 {
		exts = append([]Extension{{
			Type: ExtSupportedVersions,
			Data: []byte{byte(sh.Version >> 8), byte(sh.Version)},
		}}, exts...)
	}
	marshalExtensions(b, exts)
	return b.bytes()
}

// Message wraps the body in its handshake frame.
func (sh *ServerHello) Message() Handshake {
	return Handshake{Type: TypeServerHello, Body: sh.Marshal()}
}

// ParseServerHello decodes a ServerHello body, resolving the negotiated
// version from the supported_versions extension when present (TLS 1.3).
func ParseServerHello(body []byte) (*ServerHello, error) {
	p := parser{data: body}
	sh := &ServerHello{}
	sh.Version = ciphers.Version(p.u16())
	copy(sh.Random[:], p.take(32))
	sh.SessionID = append([]byte(nil), p.vec8()...)
	sh.CipherSuite = ciphers.Suite(p.u16())
	sh.CompressionMethod = p.u8()
	sh.Extensions = parseExtensions(&p)
	if p.err != nil {
		return nil, fmt.Errorf("wire: malformed ServerHello: %w", p.err)
	}
	for i, e := range sh.Extensions {
		if e.Type == ExtSupportedVersions && len(e.Data) == 2 {
			sh.Version = ciphers.Version(uint16(e.Data[0])<<8 | uint16(e.Data[1]))
			sh.Extensions = append(sh.Extensions[:i], sh.Extensions[i+1:]...)
			break
		}
	}
	return sh, nil
}

// HasStaple reports whether the ServerHello carries a status_request
// acknowledgement (the simulation's stand-in for a stapled OCSP
// response).
func (sh *ServerHello) HasStaple() bool {
	_, ok := findExtension(sh.Extensions, ExtStatusRequest)
	return ok
}

// --- Certificate --------------------------------------------------------

// CertificateMsg carries the server certificate chain, leaf first.
type CertificateMsg struct {
	Chain []*certs.Certificate
}

// Message frames the chain as a handshake Certificate message.
func (cm *CertificateMsg) Message() Handshake {
	b := newBuilder()
	b.vec24(func(b *builder) { b.raw(certs.MarshalChain(cm.Chain)) })
	return Handshake{Type: TypeCertificate, Body: b.bytes()}
}

// ParseCertificateMsg decodes a Certificate message body.
func ParseCertificateMsg(body []byte) (*CertificateMsg, error) {
	p := parser{data: body}
	chainBytes := p.vec24()
	if p.err != nil {
		return nil, fmt.Errorf("wire: malformed Certificate message")
	}
	chain, err := certs.ParseChain(chainBytes)
	if err != nil {
		return nil, err
	}
	return &CertificateMsg{Chain: chain}, nil
}

// --- Finished -----------------------------------------------------------

// FinishedMsg closes the handshake; VerifyData binds the transcript.
type FinishedMsg struct {
	VerifyData []byte
}

// Message frames the verify data as a Finished message.
func (f *FinishedMsg) Message() Handshake {
	return Handshake{Type: TypeFinished, Body: append([]byte(nil), f.VerifyData...)}
}

// ComputeVerifyData derives Finished verify data from a transcript hash
// and a role label, approximating the TLS PRF binding.
func ComputeVerifyData(transcript []byte, label string) []byte {
	h := sha256.New()
	h.Write([]byte("iotls finished:" + label))
	h.Write(transcript)
	return h.Sum(nil)[:12]
}

// ServerHelloDone returns the (empty-body) ServerHelloDone message used
// by pre-1.3 handshakes.
func ServerHelloDone() Handshake { return Handshake{Type: TypeServerHelloDone} }

// ClientKeyExchange returns a ClientKeyExchange message carrying opaque
// key material.
func ClientKeyExchange(material []byte) Handshake {
	return Handshake{Type: TypeClientKeyExchange, Body: append([]byte(nil), material...)}
}
