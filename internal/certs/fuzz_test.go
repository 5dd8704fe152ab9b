package certs

import (
	"bytes"
	"testing"
	"time"
)

// fuzzSeedChains returns marshalled chains from a small test PKI that
// covers every field of the encoding: a root, a path-length-limited
// intermediate, SAN leaves with revocation endpoints, a leaf without
// BasicConstraints, and a spoofed CA.
func fuzzSeedChains() [][]*Certificate {
	nb := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	na := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	root := NewRootCA(Name{CommonName: "Fuzz Root", Organization: "FuzzOrg", Country: "US"}, 1, nb, na, "fuzz-root")
	inter := root.Issue(Template{
		SerialNumber: 2,
		Subject:      Name{CommonName: "Fuzz Intermediate", Organization: "FuzzOrg", Country: "US"},
		NotBefore:    nb, NotAfter: na,
		IsCA: true, MaxPathLen: 0,
	}, "fuzz-inter")
	leaf := inter.Issue(Template{
		SerialNumber: 3,
		Subject:      Name{CommonName: "fuzz.example.com"},
		NotBefore:    nb, NotAfter: na,
		DNSNames:   []string{"fuzz.example.com", "*.fuzz.example.com"},
		OCSPServer: "http://ocsp.example.com", CRLServer: "http://crl.example.com",
		MustStaple: true,
	}, "fuzz-leaf")
	noBC := root.Issue(Template{
		SerialNumber: 4,
		Subject:      Name{CommonName: "nobc.example.com"},
		NotBefore:    nb, NotAfter: na,
		OmitBasicConstraints: true,
	}, "fuzz-nobc")
	spoof := Spoof(root.Cert, "fuzz-spoof")
	return [][]*Certificate{
		{leaf.Cert, inter.Cert, root.Cert},
		{noBC.Cert, root.Cert},
		{spoof.Cert},
	}
}

// checkCanonical asserts the decoder's round-trip contract for a
// certificate parsed from data: Marshal reproduces data byte for byte,
// re-parsing yields the same Fingerprint, and a shallow copy (which
// re-encodes from its live fields instead of the parsed bytes) agrees.
func checkCanonical(t *testing.T, c *Certificate, data []byte) {
	t.Helper()
	if got := c.Marshal(); !bytes.Equal(got, data) {
		t.Fatalf("Marshal does not round-trip:\n got %x\nwant %x", got, data)
	}
	again, err := Parse(data)
	if err != nil {
		t.Fatalf("re-parse of accepted bytes failed: %v", err)
	}
	if again.Fingerprint() != c.Fingerprint() {
		t.Fatal("Fingerprint changed across parses")
	}
	cp := *c
	if !bytes.Equal(cp.Marshal(), data) || cp.Fingerprint() != c.Fingerprint() {
		t.Fatal("live-field encoding differs from the parsed bytes")
	}
}

func FuzzParse(f *testing.F) {
	for _, chain := range fuzzSeedChains() {
		for _, c := range chain {
			f.Add(c.Marshal())
		}
	}
	f.Add([]byte{})
	f.Add([]byte{encodingVersion})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Parse(data)
		if err != nil {
			return
		}
		checkCanonical(t, c, data)
	})
}

func FuzzParseChain(f *testing.F) {
	for _, chain := range fuzzSeedChains() {
		f.Add(MarshalChain(chain))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, encodingVersion})
	f.Fuzz(func(t *testing.T, data []byte) {
		chain, err := ParseChain(data)
		if err != nil {
			return
		}
		if got := MarshalChain(chain); !bytes.Equal(got, data) {
			t.Fatalf("MarshalChain does not round-trip:\n got %x\nwant %x", got, data)
		}
		rest := data
		for _, c := range chain {
			n := int(rest[0])<<16 | int(rest[1])<<8 | int(rest[2])
			checkCanonical(t, c, rest[3:3+n])
			rest = rest[3+n:]
		}
	})
}
