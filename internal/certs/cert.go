// Package certs implements the certificate substrate for the IoTLS
// simulation: a from-scratch certificate format with a deterministic
// binary encoding, Ed25519 signatures, CA hierarchies, chain building,
// and the full validation pipeline the paper's attacks exercise
// (signature, expiry, RFC 2818 hostname matching, and the
// BasicConstraints extension from RFC 5280).
//
// The format deliberately mirrors the X.509 fields the study depends on
// while replacing ASN.1 DER with a simple length-prefixed encoding. The
// critical property for the paper's root-store probing technique is
// preserved exactly: a "spoofed" CA certificate carries the same
// Subject Name, Issuer Name and Serial Number as a trusted root but a
// different key, so chain building succeeds while signature
// verification fails — yielding a different alert than an unknown CA.
package certs

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Name is the distinguished name of a certificate subject or issuer.
type Name struct {
	CommonName   string
	Organization string
	Country      string
}

// String renders the name in the conventional slash form.
func (n Name) String() string {
	var b strings.Builder
	b.Grow(len("/C=/O=/CN=") + len(n.Country) + len(n.Organization) + len(n.CommonName))
	b.WriteString("/C=")
	b.WriteString(n.Country)
	b.WriteString("/O=")
	b.WriteString(n.Organization)
	b.WriteString("/CN=")
	b.WriteString(n.CommonName)
	return b.String()
}

// Equal reports whether two names match exactly (the comparison chain
// building uses, as in RFC 5280 §7.1 byte-for-byte matching).
func (n Name) Equal(o Name) bool {
	return n.CommonName == o.CommonName && n.Organization == o.Organization && n.Country == o.Country
}

// Certificate is a parsed certificate. All fields are part of the signed
// (to-be-signed) encoding except Signature.
type Certificate struct {
	SerialNumber uint64
	Subject      Name
	Issuer       Name
	NotBefore    time.Time
	NotAfter     time.Time

	// IsCA and MaxPathLen model the BasicConstraints extension.
	// BasicConstraintsValid records whether the extension is present;
	// certificates lacking it must not act as CAs.
	IsCA                  bool
	MaxPathLen            int
	BasicConstraintsValid bool

	// DNSNames models the SubjectAltName extension. Hostname
	// verification considers these plus the Subject CommonName.
	DNSNames []string

	// Revocation endpoints (Table 8): URLs a validating client may
	// contact, and the Must-Staple marker.
	OCSPServer string
	CRLServer  string
	MustStaple bool

	PublicKey ed25519.PublicKey
	Signature []byte

	// tbs caches the to-be-signed encoding and self guards it: the
	// constructors (NewRootCA, Issue, Spoof, Parse) fill both, after
	// which the certificate is immutable and the cache is safe to share
	// across goroutines. The cache is honoured only when self still
	// points at the certificate itself, so a shallow copy — which the
	// corruption tests mutate field-by-field — re-encodes from its live
	// fields instead of serving stale bytes.
	tbs  []byte
	self *Certificate

	// fingerprint, subjectKey and issuerStr cache the derived identity
	// strings under the same self-guard as tbs: these sit on every
	// chain-verification and root-store-lookup hot path, and
	// recomputing them (a SHA-256 plus several formatted strings per
	// call) dominated the study engine's allocation profile.
	fingerprint string
	subjectKey  string
	issuerStr   string
}

// Fingerprint returns the SHA-256 hash of the full certificate encoding,
// rendered as hex. It identifies a certificate uniquely, including its key.
func (c *Certificate) Fingerprint() string {
	if c.fingerprint != "" && c.self == c {
		return c.fingerprint
	}
	sum := sha256.Sum256(c.Marshal())
	return hex.EncodeToString(sum[:])
}

// SubjectKey returns the lookup key used by root-store indexes: the
// subject name plus serial number. Spoofed certificates share this key
// with the certificate they imitate even though their Fingerprint differs.
func (c *Certificate) SubjectKey() string {
	if c.subjectKey != "" && c.self == c {
		return c.subjectKey
	}
	return subjectKeyOf(c.Subject, c.SerialNumber)
}

func subjectKeyOf(subject Name, serial uint64) string {
	return subject.String() + "#" + strconv.FormatUint(serial, 10)
}

// issuerString returns Issuer.String(), cached on sealed certificates;
// it is the chain-building lookup key and runs once per link per
// verification walk.
func (c *Certificate) issuerString() string {
	if c.issuerStr != "" && c.self == c {
		return c.issuerStr
	}
	return c.Issuer.String()
}

// seal finalises a constructed (or parsed) certificate: it records the
// self-guard and precomputes the derived identity strings so the hot
// paths never re-derive them. Callers must have filled every signed
// field and the Signature first.
func (c *Certificate) seal() {
	c.self = c
	sum := sha256.Sum256(c.Marshal())
	c.fingerprint = hex.EncodeToString(sum[:])
	c.subjectKey = subjectKeyOf(c.Subject, c.SerialNumber)
	c.issuerStr = c.Issuer.String()
}

// SelfSigned reports whether subject and issuer match (the structural
// definition of a root certificate).
func (c *Certificate) SelfSigned() bool { return c.Subject.Equal(c.Issuer) }

// ValidAt reports whether t falls within the certificate validity window.
func (c *Certificate) ValidAt(t time.Time) bool {
	return !t.Before(c.NotBefore) && !t.After(c.NotAfter)
}

// CheckSignatureFrom verifies that parent's key signed c.
func (c *Certificate) CheckSignatureFrom(parent *Certificate) error {
	if len(parent.PublicKey) != ed25519.PublicKeySize {
		return fmt.Errorf("certs: parent %s has invalid public key", parent.Subject)
	}
	if !ed25519.Verify(parent.PublicKey, c.marshalTBS(), c.Signature) {
		return ErrSignature
	}
	return nil
}

// VerifyHostname reports whether the certificate is valid for host,
// following RFC 2818: SubjectAltName DNS entries take precedence; the
// Subject CommonName is used as a fallback when no SAN is present.
// Wildcards match exactly one leftmost label.
func (c *Certificate) VerifyHostname(host string) error {
	patterns := c.DNSNames
	if len(patterns) == 0 && c.Subject.CommonName != "" {
		patterns = []string{c.Subject.CommonName}
	}
	for _, p := range patterns {
		if matchHostname(p, host) {
			return nil
		}
	}
	return HostnameError{Certificate: c, Host: host}
}

// matchHostname implements case-insensitive DNS name matching with
// single-label leftmost wildcards.
func matchHostname(pattern, host string) bool {
	p := toLowerASCII(pattern)
	h := toLowerASCII(host)
	if p == "" || h == "" {
		return false
	}
	if p == h {
		return true
	}
	if len(p) > 2 && p[0] == '*' && p[1] == '.' {
		// "*.example.com" matches "a.example.com" but not
		// "example.com" or "a.b.example.com".
		suffix := p[1:] // ".example.com"
		if len(h) > len(suffix) && h[len(h)-len(suffix):] == suffix {
			firstLabel := h[:len(h)-len(suffix)]
			return !contains(firstLabel, '.')
		}
	}
	return false
}

func toLowerASCII(s string) string {
	b := []byte(s)
	changed := false
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + ('a' - 'A')
			changed = true
		}
	}
	if !changed {
		return s
	}
	return string(b)
}

func contains(s string, c byte) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return true
		}
	}
	return false
}

// KeyPair couples a certificate with its private key, as held by a CA or
// a TLS server.
type KeyPair struct {
	Cert *Certificate
	Key  ed25519.PrivateKey
}

// Template carries the variable fields when issuing a certificate.
type Template struct {
	SerialNumber uint64
	Subject      Name
	NotBefore    time.Time
	NotAfter     time.Time
	IsCA         bool
	MaxPathLen   int
	// OmitBasicConstraints issues a certificate without the
	// BasicConstraints extension, which the InvalidBasicConstraints
	// attack exploits: a leaf-like certificate misused as a CA.
	OmitBasicConstraints bool
	DNSNames             []string
	OCSPServer           string
	CRLServer            string
	MustStaple           bool
}

// deterministicKey derives an Ed25519 key pair from a seed string. The
// simulation uses named seeds so that every run produces identical PKI
// material, keeping all experiments reproducible.
func deterministicKey(seed string) (ed25519.PublicKey, ed25519.PrivateKey) {
	sum := sha256.Sum256([]byte("iotls-key:" + seed))
	priv := ed25519.NewKeyFromSeed(sum[:])
	return priv.Public().(ed25519.PublicKey), priv
}

// NewRootCA creates a self-signed root CA. keySeed determines the key
// deterministically; distinct seeds yield distinct keys.
func NewRootCA(subject Name, serial uint64, notBefore, notAfter time.Time, keySeed string) KeyPair {
	pub, priv := deterministicKey(keySeed)
	cert := &Certificate{
		SerialNumber:          serial,
		Subject:               subject,
		Issuer:                subject,
		NotBefore:             notBefore,
		NotAfter:              notAfter,
		IsCA:                  true,
		MaxPathLen:            -1,
		BasicConstraintsValid: true,
		PublicKey:             pub,
	}
	cert.tbs = cert.encodeTBS()
	cert.Signature = ed25519.Sign(priv, cert.tbs)
	cert.seal()
	return KeyPair{Cert: cert, Key: priv}
}

// Issue creates a certificate from tmpl signed by the issuer pair.
// keySeed determines the new certificate's key.
func (issuer KeyPair) Issue(tmpl Template, keySeed string) KeyPair {
	pub, priv := deterministicKey(keySeed)
	cert := &Certificate{
		SerialNumber:          tmpl.SerialNumber,
		Subject:               tmpl.Subject,
		Issuer:                issuer.Cert.Subject,
		NotBefore:             tmpl.NotBefore,
		NotAfter:              tmpl.NotAfter,
		IsCA:                  tmpl.IsCA,
		MaxPathLen:            tmpl.MaxPathLen,
		BasicConstraintsValid: !tmpl.OmitBasicConstraints,
		DNSNames:              append([]string(nil), tmpl.DNSNames...),
		OCSPServer:            tmpl.OCSPServer,
		CRLServer:             tmpl.CRLServer,
		MustStaple:            tmpl.MustStaple,
		PublicKey:             pub,
	}
	cert.tbs = cert.encodeTBS()
	cert.Signature = ed25519.Sign(issuer.Key, cert.tbs)
	cert.seal()
	return KeyPair{Cert: cert, Key: priv}
}

// Spoof builds a self-signed certificate imitating target: identical
// Subject Name, Issuer Name and Serial Number, but a fresh key derived
// from keySeed. This is the probe certificate from §4.2 of the paper —
// chain building against a root store that trusts target will find a
// matching issuer entry, but signature verification must fail.
func Spoof(target *Certificate, keySeed string) KeyPair {
	pub, priv := deterministicKey(keySeed)
	cert := &Certificate{
		SerialNumber:          target.SerialNumber,
		Subject:               target.Subject,
		Issuer:                target.Issuer,
		NotBefore:             target.NotBefore,
		NotAfter:              target.NotAfter,
		IsCA:                  true,
		MaxPathLen:            -1,
		BasicConstraintsValid: true,
		PublicKey:             pub,
	}
	cert.tbs = cert.encodeTBS()
	cert.Signature = ed25519.Sign(priv, cert.tbs)
	cert.seal()
	return KeyPair{Cert: cert, Key: priv}
}

// --- deterministic binary encoding -----------------------------------

const encodingVersion = 1

// Marshal serialises the certificate, signature included.
func (c *Certificate) Marshal() []byte {
	var buf bytes.Buffer
	buf.Write(c.marshalTBS())
	writeBytes(&buf, c.Signature)
	return buf.Bytes()
}

// marshalTBS returns the to-be-signed encoding, cached when the
// certificate came from a constructor. Callers must not modify the
// returned slice.
func (c *Certificate) marshalTBS() []byte {
	if c.tbs != nil && c.self == c {
		return c.tbs
	}
	return c.encodeTBS()
}

// encodeTBS serialises the to-be-signed portion from the live fields.
func (c *Certificate) encodeTBS() []byte {
	var buf bytes.Buffer
	buf.WriteByte(encodingVersion)
	writeUint64(&buf, c.SerialNumber)
	writeName(&buf, c.Subject)
	writeName(&buf, c.Issuer)
	writeUint64(&buf, uint64(c.NotBefore.UTC().Unix()))
	writeUint64(&buf, uint64(c.NotAfter.UTC().Unix()))
	writeBool(&buf, c.BasicConstraintsValid)
	writeBool(&buf, c.IsCA)
	writeUint64(&buf, uint64(int64(c.MaxPathLen)))
	writeUint16(&buf, uint16(len(c.DNSNames)))
	for _, d := range c.DNSNames {
		writeString(&buf, d)
	}
	writeString(&buf, c.OCSPServer)
	writeString(&buf, c.CRLServer)
	writeBool(&buf, c.MustStaple)
	writeBytes(&buf, c.PublicKey)
	return buf.Bytes()
}

// Parse decodes a certificate produced by Marshal.
func Parse(data []byte) (*Certificate, error) {
	r := &reader{data: data}
	v := r.byte()
	if r.err == nil && v != encodingVersion {
		return nil, fmt.Errorf("certs: unsupported encoding version %d", v)
	}
	c := &Certificate{}
	c.SerialNumber = r.uint64()
	c.Subject = r.name()
	c.Issuer = r.name()
	c.NotBefore = time.Unix(int64(r.uint64()), 0).UTC()
	c.NotAfter = time.Unix(int64(r.uint64()), 0).UTC()
	c.BasicConstraintsValid = r.bool()
	c.IsCA = r.bool()
	c.MaxPathLen = int(int64(r.uint64()))
	n := int(r.uint16())
	if r.err == nil && n > 64 {
		return nil, fmt.Errorf("certs: too many DNS names (%d)", n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		c.DNSNames = append(c.DNSNames, r.string())
	}
	c.OCSPServer = r.string()
	c.CRLServer = r.string()
	c.MustStaple = r.bool()
	c.PublicKey = ed25519.PublicKey(r.bytes())
	c.Signature = r.bytes()
	if r.err != nil {
		return nil, fmt.Errorf("certs: parse: %w", r.err)
	}
	if r.pos != len(r.data) {
		return nil, fmt.Errorf("certs: %d trailing bytes", len(r.data)-r.pos)
	}
	// The wire bytes are the canonical encoding: everything before the
	// signature's length prefix is the TBS section.
	c.tbs = append([]byte(nil), data[:len(data)-2-len(c.Signature)]...)
	c.seal()
	return c, nil
}

// MarshalChain serialises a certificate chain, leaf first, in the TLS
// Certificate-message layout (per-certificate 24-bit length prefixes).
func MarshalChain(chain []*Certificate) []byte {
	var buf bytes.Buffer
	for _, c := range chain {
		enc := c.Marshal()
		buf.WriteByte(byte(len(enc) >> 16))
		buf.WriteByte(byte(len(enc) >> 8))
		buf.WriteByte(byte(len(enc)))
		buf.Write(enc)
	}
	return buf.Bytes()
}

// ParseChain decodes a chain produced by MarshalChain.
func ParseChain(data []byte) ([]*Certificate, error) {
	var chain []*Certificate
	for len(data) > 0 {
		if len(data) < 3 {
			return nil, io.ErrUnexpectedEOF
		}
		n := int(data[0])<<16 | int(data[1])<<8 | int(data[2])
		data = data[3:]
		if len(data) < n {
			return nil, io.ErrUnexpectedEOF
		}
		c, err := Parse(data[:n])
		if err != nil {
			return nil, err
		}
		chain = append(chain, c)
		data = data[n:]
	}
	return chain, nil
}

// --- low-level encoding helpers ---------------------------------------

func writeUint16(b *bytes.Buffer, v uint16) {
	b.WriteByte(byte(v >> 8))
	b.WriteByte(byte(v))
}

func writeUint64(b *bytes.Buffer, v uint64) {
	for shift := 56; shift >= 0; shift -= 8 {
		b.WriteByte(byte(v >> uint(shift)))
	}
}

func writeBool(b *bytes.Buffer, v bool) {
	if v {
		b.WriteByte(1)
	} else {
		b.WriteByte(0)
	}
}

func writeString(b *bytes.Buffer, s string) { writeBytes(b, []byte(s)) }

func writeBytes(b *bytes.Buffer, p []byte) {
	if len(p) > 0xffff {
		panic("certs: field too long")
	}
	writeUint16(b, uint16(len(p)))
	b.Write(p)
}

func writeName(b *bytes.Buffer, n Name) {
	writeString(b, n.CommonName)
	writeString(b, n.Organization)
	writeString(b, n.Country)
}

type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = io.ErrUnexpectedEOF
	}
}

func (r *reader) byte() byte {
	if r.err != nil || r.pos >= len(r.data) {
		r.fail()
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// bool accepts only 0 and 1, so every accepted encoding is canonical:
// re-encoding the parsed fields reproduces the signed bytes.
func (r *reader) bool() bool {
	b := r.byte()
	if b > 1 && r.err == nil {
		r.err = errors.New("non-canonical boolean")
	}
	return b == 1
}

func (r *reader) uint16() uint16 {
	hi, lo := r.byte(), r.byte()
	return uint16(hi)<<8 | uint16(lo)
}

func (r *reader) uint64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(r.byte())
	}
	return v
}

func (r *reader) bytes() []byte {
	n := int(r.uint16())
	if r.err != nil || r.pos+n > len(r.data) {
		r.fail()
		return nil
	}
	p := make([]byte, n)
	copy(p, r.data[r.pos:r.pos+n])
	r.pos += n
	return p
}

func (r *reader) string() string { return string(r.bytes()) }

func (r *reader) name() Name {
	return Name{CommonName: r.string(), Organization: r.string(), Country: r.string()}
}
