package certs

import (
	"testing"
	"time"
)

func benchPKI(b *testing.B) (KeyPair, KeyPair, *Pool) {
	b.Helper()
	nb := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	na := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	root := NewRootCA(Name{CommonName: "Bench Root"}, 1, nb, na, "bench-root")
	leaf := root.Issue(Template{
		SerialNumber: 2,
		Subject:      Name{CommonName: "bench.example.com"},
		NotBefore:    nb, NotAfter: na,
		DNSNames: []string{"bench.example.com"},
	}, "bench-leaf")
	pool := NewPool()
	pool.Add(root.Cert)
	return root, leaf, pool
}

func BenchmarkCertificateMarshal(b *testing.B) {
	_, leaf, _ := benchPKI(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(leaf.Cert.Marshal()) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkCertificateParse(b *testing.B) {
	_, leaf, _ := benchPKI(b)
	enc := leaf.Cert.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChainVerify(b *testing.B) {
	root, leaf, pool := benchPKI(b)
	chain := []*Certificate{leaf.Cert, root.Cert}
	opts := VerifyOptions{
		Roots:    pool,
		Hostname: "bench.example.com",
		At:       time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Verify(chain, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChainVerifyParsed verifies as a TLS client does per
// handshake: it re-parses the wire chain on every iteration, so each
// Verify sees fresh certificate objects, and the verification time
// advances a second per iteration, as the simulated clock does between
// handshakes.
func BenchmarkChainVerifyParsed(b *testing.B) {
	root, leaf, pool := benchPKI(b)
	wire := MarshalChain([]*Certificate{leaf.Cert, root.Cert})
	opts := VerifyOptions{Roots: pool, Hostname: "bench.example.com"}
	start := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		chain, err := ParseChain(wire)
		if err != nil {
			b.Fatal(err)
		}
		opts.At = start.Add(time.Duration(i) * time.Second)
		if _, err := Verify(chain, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpoof(b *testing.B) {
	root, _, _ := benchPKI(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pair := Spoof(root.Cert, "bench-spoofer")
		if pair.Cert.SubjectKey() != root.Cert.SubjectKey() {
			b.Fatal("spoof key mismatch")
		}
	}
}

func BenchmarkHostnameVerify(b *testing.B) {
	_, leaf, _ := benchPKI(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := leaf.Cert.VerifyHostname("bench.example.com"); err != nil {
			b.Fatal(err)
		}
	}
}
