package certs

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"testing"
	"testing/quick"
	"time"
)

var (
	t2018 = time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	t2021 = time.Date(2021, 3, 15, 0, 0, 0, 0, time.UTC)
	t2030 = time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
)

func testRoot(t *testing.T) KeyPair {
	t.Helper()
	return NewRootCA(Name{CommonName: "Test Root CA", Organization: "TestOrg", Country: "US"}, 1, t2018, t2030, "root-1")
}

func issueLeaf(t *testing.T, ca KeyPair, host string) KeyPair {
	t.Helper()
	return ca.Issue(Template{
		SerialNumber: 100,
		Subject:      Name{CommonName: host, Organization: "Example", Country: "US"},
		NotBefore:    t2018,
		NotAfter:     t2030,
		DNSNames:     []string{host},
	}, "leaf-"+host)
}

func TestMarshalParseRoundTrip(t *testing.T) {
	ca := testRoot(t)
	leaf := ca.Issue(Template{
		SerialNumber: 42,
		Subject:      Name{CommonName: "device.example.com", Organization: "Ex", Country: "DE"},
		NotBefore:    t2018,
		NotAfter:     t2030,
		DNSNames:     []string{"device.example.com", "*.cdn.example.com"},
		OCSPServer:   "ocsp.example.com",
		CRLServer:    "crl.example.com",
		MustStaple:   true,
	}, "leaf-42")
	enc := leaf.Cert.Marshal()
	got, err := Parse(enc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !bytes.Equal(got.Marshal(), enc) {
		t.Fatal("round trip not byte-identical")
	}
	if got.Subject.CommonName != "device.example.com" || got.SerialNumber != 42 {
		t.Fatalf("fields lost: %+v", got)
	}
	if len(got.DNSNames) != 2 || got.DNSNames[1] != "*.cdn.example.com" {
		t.Fatalf("DNSNames lost: %v", got.DNSNames)
	}
	if !got.MustStaple || got.OCSPServer != "ocsp.example.com" || got.CRLServer != "crl.example.com" {
		t.Fatalf("revocation fields lost: %+v", got)
	}
	if err := got.CheckSignatureFrom(ca.Cert); err != nil {
		t.Fatalf("parsed cert signature invalid: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(nil); err == nil {
		t.Error("Parse(nil) succeeded")
	}
	if _, err := Parse([]byte{9, 0, 0}); err == nil {
		t.Error("Parse with bad version succeeded")
	}
	ca := testRoot(t)
	enc := ca.Cert.Marshal()
	if _, err := Parse(enc[:len(enc)/2]); err == nil {
		t.Error("Parse of truncated cert succeeded")
	}
	if _, err := Parse(append(append([]byte{}, enc...), 0xff)); err == nil {
		t.Error("Parse with trailing bytes succeeded")
	}
}

func TestParseArbitraryBytesNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Parse(data) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestChainRoundTrip(t *testing.T) {
	ca := testRoot(t)
	leaf := issueLeaf(t, ca, "a.example.com")
	chain := []*Certificate{leaf.Cert, ca.Cert}
	enc := MarshalChain(chain)
	got, err := ParseChain(enc)
	if err != nil {
		t.Fatalf("ParseChain: %v", err)
	}
	if len(got) != 2 || got[0].Subject.CommonName != "a.example.com" || !got[1].SelfSigned() {
		t.Fatalf("chain mangled: %v", got)
	}
	if _, err := ParseChain(enc[:len(enc)-2]); err == nil {
		t.Error("truncated chain parsed")
	}
	if _, err := ParseChain([]byte{0, 0}); err == nil {
		t.Error("short chain header parsed")
	}
}

func TestDeterministicKeys(t *testing.T) {
	a := NewRootCA(Name{CommonName: "A"}, 1, t2018, t2030, "seed-x")
	b := NewRootCA(Name{CommonName: "A"}, 1, t2018, t2030, "seed-x")
	if a.Cert.Fingerprint() != b.Cert.Fingerprint() {
		t.Fatal("same seed produced different certificates")
	}
	c := NewRootCA(Name{CommonName: "A"}, 1, t2018, t2030, "seed-y")
	if a.Cert.Fingerprint() == c.Cert.Fingerprint() {
		t.Fatal("different seeds produced identical certificates")
	}
}

func TestVerifyHappyPath(t *testing.T) {
	ca := testRoot(t)
	leaf := issueLeaf(t, ca, "iot.vendor.com")
	roots := NewPool()
	roots.Add(ca.Cert)
	path, err := Verify([]*Certificate{leaf.Cert, ca.Cert}, VerifyOptions{
		Roots: roots, Hostname: "iot.vendor.com", At: t2021,
	})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if len(path) != 2 || path[1].Fingerprint() != ca.Cert.Fingerprint() {
		t.Fatalf("unexpected path: %v", path)
	}
}

func TestVerifyLeafOnlyChain(t *testing.T) {
	// The server may omit the root; chain building should find it in
	// the pool by issuer name.
	ca := testRoot(t)
	leaf := issueLeaf(t, ca, "iot.vendor.com")
	roots := NewPool()
	roots.Add(ca.Cert)
	if _, err := Verify([]*Certificate{leaf.Cert}, VerifyOptions{Roots: roots, Hostname: "iot.vendor.com", At: t2021}); err != nil {
		t.Fatalf("Verify leaf-only: %v", err)
	}
}

func TestVerifyWithIntermediate(t *testing.T) {
	ca := testRoot(t)
	inter := ca.Issue(Template{
		SerialNumber: 2,
		Subject:      Name{CommonName: "Test Intermediate", Organization: "TestOrg", Country: "US"},
		NotBefore:    t2018, NotAfter: t2030,
		IsCA: true, MaxPathLen: 0,
	}, "inter-1")
	leaf := issueLeaf(t, inter, "deep.example.com")
	roots := NewPool()
	roots.Add(ca.Cert)
	path, err := Verify([]*Certificate{leaf.Cert, inter.Cert}, VerifyOptions{
		Roots: roots, Hostname: "deep.example.com", At: t2021,
	})
	if err != nil {
		t.Fatalf("Verify with intermediate: %v", err)
	}
	if len(path) != 3 {
		t.Fatalf("path length = %d, want 3", len(path))
	}
}

func TestVerifyUnknownAuthority(t *testing.T) {
	ca := testRoot(t)
	other := NewRootCA(Name{CommonName: "Evil Root", Organization: "X", Country: "ZZ"}, 9, t2018, t2030, "evil")
	leaf := issueLeaf(t, other, "iot.vendor.com")
	roots := NewPool()
	roots.Add(ca.Cert)
	_, err := Verify([]*Certificate{leaf.Cert, other.Cert}, VerifyOptions{Roots: roots, Hostname: "iot.vendor.com", At: t2021})
	var uae UnknownAuthorityError
	if !errors.As(err, &uae) {
		t.Fatalf("err = %v, want UnknownAuthorityError", err)
	}
}

func TestVerifySpoofedCASignatureError(t *testing.T) {
	// The core side-channel property: a spoofed CA has a name-matching
	// entry in the pool, so verification fails with ErrSignature, not
	// UnknownAuthorityError.
	ca := testRoot(t)
	roots := NewPool()
	roots.Add(ca.Cert)

	spoof := Spoof(ca.Cert, "attacker-key")
	leaf := issueLeaf(t, spoof, "iot.vendor.com")
	_, err := Verify([]*Certificate{leaf.Cert, spoof.Cert}, VerifyOptions{Roots: roots, Hostname: "iot.vendor.com", At: t2021})
	if !errors.Is(err, ErrSignature) {
		t.Fatalf("err = %v, want ErrSignature", err)
	}

	// Sanity: the spoof shares the SubjectKey but not the fingerprint.
	if spoof.Cert.SubjectKey() != ca.Cert.SubjectKey() {
		t.Fatal("spoof SubjectKey differs from target")
	}
	if spoof.Cert.Fingerprint() == ca.Cert.Fingerprint() {
		t.Fatal("spoof fingerprint identical to target")
	}
}

func TestVerifyHostnameMismatch(t *testing.T) {
	ca := testRoot(t)
	leaf := issueLeaf(t, ca, "attacker-owned.com")
	roots := NewPool()
	roots.Add(ca.Cert)
	_, err := Verify([]*Certificate{leaf.Cert, ca.Cert}, VerifyOptions{Roots: roots, Hostname: "iot.vendor.com", At: t2021})
	var he HostnameError
	if !errors.As(err, &he) {
		t.Fatalf("err = %v, want HostnameError", err)
	}
	// SkipHostname models the Amazon-family WrongHostname vulnerability.
	if _, err := Verify([]*Certificate{leaf.Cert, ca.Cert}, VerifyOptions{Roots: roots, Hostname: "iot.vendor.com", At: t2021, SkipHostname: true}); err != nil {
		t.Fatalf("SkipHostname verify failed: %v", err)
	}
}

func TestVerifyExpired(t *testing.T) {
	ca := testRoot(t)
	leaf := ca.Issue(Template{
		SerialNumber: 5,
		Subject:      Name{CommonName: "old.example.com"},
		NotBefore:    t2018,
		NotAfter:     time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC),
		DNSNames:     []string{"old.example.com"},
	}, "old-leaf")
	roots := NewPool()
	roots.Add(ca.Cert)
	_, err := Verify([]*Certificate{leaf.Cert, ca.Cert}, VerifyOptions{Roots: roots, Hostname: "old.example.com", At: t2021})
	var ee ExpiredError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %v, want ExpiredError", err)
	}
	// With zero time the expiry check is skipped.
	if _, err := Verify([]*Certificate{leaf.Cert, ca.Cert}, VerifyOptions{Roots: roots, Hostname: "old.example.com"}); err != nil {
		t.Fatalf("zero-time verify failed: %v", err)
	}
}

func TestVerifyInvalidBasicConstraints(t *testing.T) {
	// Table 2's InvalidBasicConstraints attack: a leaf certificate (no
	// CA bit) used to sign another leaf. Proper validators reject it;
	// validators with SkipBasicConstraints accept it.
	ca := testRoot(t)
	mid := ca.Issue(Template{
		SerialNumber: 7,
		Subject:      Name{CommonName: "legit-leaf.example.com"},
		NotBefore:    t2018, NotAfter: t2030,
		IsCA:     false,
		DNSNames: []string{"legit-leaf.example.com"},
	}, "mid")
	leaf := mid.Issue(Template{
		SerialNumber: 8,
		Subject:      Name{CommonName: "victim.example.com"},
		NotBefore:    t2018, NotAfter: t2030,
		DNSNames: []string{"victim.example.com"},
	}, "victim")
	roots := NewPool()
	roots.Add(ca.Cert)
	chain := []*Certificate{leaf.Cert, mid.Cert, ca.Cert}
	_, err := Verify(chain, VerifyOptions{Roots: roots, Hostname: "victim.example.com", At: t2021})
	var bce BasicConstraintsError
	if !errors.As(err, &bce) {
		t.Fatalf("err = %v, want BasicConstraintsError", err)
	}
	if _, err := Verify(chain, VerifyOptions{Roots: roots, Hostname: "victim.example.com", At: t2021, SkipBasicConstraints: true}); err != nil {
		t.Fatalf("SkipBasicConstraints verify failed: %v", err)
	}
}

func TestVerifyOmittedBasicConstraints(t *testing.T) {
	ca := testRoot(t)
	inter := ca.Issue(Template{
		SerialNumber: 11,
		Subject:      Name{CommonName: "NoBC Intermediate"},
		NotBefore:    t2018, NotAfter: t2030,
		IsCA:                 true,
		OmitBasicConstraints: true,
	}, "nobc")
	leaf := issueLeaf(t, inter, "x.example.com")
	roots := NewPool()
	roots.Add(ca.Cert)
	_, err := Verify([]*Certificate{leaf.Cert, inter.Cert}, VerifyOptions{Roots: roots, Hostname: "x.example.com", At: t2021})
	var bce BasicConstraintsError
	if !errors.As(err, &bce) {
		t.Fatalf("err = %v, want BasicConstraintsError for omitted extension", err)
	}
}

func TestVerifyMaxPathLen(t *testing.T) {
	ca := testRoot(t)
	inter1 := ca.Issue(Template{
		SerialNumber: 20, Subject: Name{CommonName: "I1"},
		NotBefore: t2018, NotAfter: t2030, IsCA: true, MaxPathLen: 0,
	}, "i1")
	inter2 := inter1.Issue(Template{
		SerialNumber: 21, Subject: Name{CommonName: "I2"},
		NotBefore: t2018, NotAfter: t2030, IsCA: true, MaxPathLen: 0,
	}, "i2")
	leaf := issueLeaf(t, inter2, "deep.example.com")
	roots := NewPool()
	roots.Add(ca.Cert)
	chain := []*Certificate{leaf.Cert, inter2.Cert, inter1.Cert, ca.Cert}
	_, err := Verify(chain, VerifyOptions{Roots: roots, Hostname: "deep.example.com", At: t2021})
	var bce BasicConstraintsError
	if !errors.As(err, &bce) {
		t.Fatalf("err = %v, want BasicConstraintsError for pathlen violation", err)
	}
}

func TestVerifyEmptyChainAndNilPool(t *testing.T) {
	if _, err := Verify(nil, VerifyOptions{Roots: NewPool()}); err == nil {
		t.Error("empty chain verified")
	}
	ca := testRoot(t)
	if _, err := Verify([]*Certificate{ca.Cert}, VerifyOptions{}); err == nil {
		t.Error("nil pool verified")
	}
}

func TestVerifyExpiredRootInPool(t *testing.T) {
	expired := NewRootCA(Name{CommonName: "Expired Root"}, 3, t2018,
		time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC), "exp-root")
	leaf := issueLeaf(t, expired, "site.example.com")
	roots := NewPool()
	roots.Add(expired.Cert)
	_, err := Verify([]*Certificate{leaf.Cert}, VerifyOptions{Roots: roots, Hostname: "site.example.com", At: t2021})
	var ee ExpiredError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %v, want ExpiredError for stale root", err)
	}
}

func TestHostnameMatching(t *testing.T) {
	cases := []struct {
		pattern, host string
		want          bool
	}{
		{"example.com", "example.com", true},
		{"example.com", "EXAMPLE.COM", true},
		{"Example.COM", "example.com", true},
		{"example.com", "www.example.com", false},
		{"*.example.com", "www.example.com", true},
		{"*.example.com", "example.com", false},
		{"*.example.com", "a.b.example.com", false},
		{"*.example.com", "wexample.com", false},
		{"*", "example.com", false},
		{"", "example.com", false},
		{"example.com", "", false},
	}
	for _, c := range cases {
		if got := matchHostname(c.pattern, c.host); got != c.want {
			t.Errorf("matchHostname(%q, %q) = %v, want %v", c.pattern, c.host, got, c.want)
		}
	}
}

func TestVerifyHostnameFallsBackToCommonName(t *testing.T) {
	ca := testRoot(t)
	leaf := ca.Issue(Template{
		SerialNumber: 30,
		Subject:      Name{CommonName: "cn-only.example.com"},
		NotBefore:    t2018, NotAfter: t2030,
	}, "cn-only")
	if err := leaf.Cert.VerifyHostname("cn-only.example.com"); err != nil {
		t.Fatalf("CN fallback failed: %v", err)
	}
	if err := leaf.Cert.VerifyHostname("other.example.com"); err == nil {
		t.Fatal("CN fallback matched wrong host")
	}
}

func TestPoolOperations(t *testing.T) {
	p := NewPool()
	a := NewRootCA(Name{CommonName: "A"}, 1, t2018, t2030, "pa")
	b := NewRootCA(Name{CommonName: "B"}, 2, t2018, t2030, "pb")
	p.Add(a.Cert)
	p.Add(a.Cert) // duplicate ignored
	p.Add(b.Cert)
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2", p.Len())
	}
	if !p.Contains(a.Cert) || !p.Contains(b.Cert) {
		t.Fatal("Contains failed")
	}
	if got := len(p.FindBySubject(Name{CommonName: "A"})); got != 1 {
		t.Fatalf("FindBySubject(A) = %d entries", got)
	}
	clone := p.Clone()
	p.Remove(a.Cert)
	if p.Contains(a.Cert) || p.Len() != 1 {
		t.Fatal("Remove failed")
	}
	if !clone.Contains(a.Cert) {
		t.Fatal("Clone shares mutation with original")
	}
	if got := len(p.All()); got != 1 {
		t.Fatalf("All() = %d, want 1", got)
	}
	// Removing a non-member is a no-op.
	p.Remove(a.Cert)
	if p.Len() != 1 {
		t.Fatal("Remove of non-member changed pool")
	}
}

func TestPoolDistinguishesSameSubjectDifferentKeys(t *testing.T) {
	// Two roots with the same subject but different keys (key rotation):
	// chain building must try both.
	oldRoot := NewRootCA(Name{CommonName: "Rotating Root"}, 1, t2018, t2030, "old-key")
	newRoot := NewRootCA(Name{CommonName: "Rotating Root"}, 1, t2018, t2030, "new-key")
	leaf := issueLeaf(t, newRoot, "site.example.com")
	roots := NewPool()
	roots.Add(oldRoot.Cert)
	roots.Add(newRoot.Cert)
	if roots.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (distinct keys)", roots.Len())
	}
	if _, err := Verify([]*Certificate{leaf.Cert}, VerifyOptions{Roots: roots, Hostname: "site.example.com", At: t2021}); err != nil {
		t.Fatalf("rotation verify failed: %v", err)
	}
}

func TestTamperedCertificateFailsSignature(t *testing.T) {
	ca := testRoot(t)
	leaf := issueLeaf(t, ca, "a.example.com")
	tampered := *leaf.Cert
	tampered.Subject.CommonName = "b.example.com"
	if err := tampered.CheckSignatureFrom(ca.Cert); !errors.Is(err, ErrSignature) {
		t.Fatalf("tampered cert err = %v, want ErrSignature", err)
	}
}

func TestNameString(t *testing.T) {
	n := Name{CommonName: "Root", Organization: "Org", Country: "US"}
	if n.String() != "/C=US/O=Org/CN=Root" {
		t.Fatalf("String = %q", n.String())
	}
}

func TestValidAt(t *testing.T) {
	ca := testRoot(t)
	if ca.Cert.ValidAt(t2018.Add(-time.Second)) {
		t.Error("valid before NotBefore")
	}
	if !ca.Cert.ValidAt(t2018) || !ca.Cert.ValidAt(t2030) {
		t.Error("boundary instants should be valid")
	}
	if ca.Cert.ValidAt(t2030.Add(time.Second)) {
		t.Error("valid after NotAfter")
	}
}

// Property: Marshal/Parse round-trips arbitrary field combinations.
func TestMarshalParseProperty(t *testing.T) {
	ca := testRoot(t)
	f := func(serial uint32, cn, org string, nDNS uint8, isCA, mustStaple bool) bool {
		if len(cn) > 200 {
			cn = cn[:200]
		}
		if len(org) > 200 {
			org = org[:200]
		}
		tmpl := Template{
			SerialNumber: uint64(serial),
			Subject:      Name{CommonName: cn, Organization: org, Country: "US"},
			NotBefore:    t2018,
			NotAfter:     t2030,
			IsCA:         isCA,
			MustStaple:   mustStaple,
		}
		for i := 0; i < int(nDNS%5); i++ {
			tmpl.DNSNames = append(tmpl.DNSNames, "h.example.com")
		}
		pair := ca.Issue(tmpl, "prop")
		got, err := Parse(pair.Cert.Marshal())
		if err != nil {
			return false
		}
		return bytes.Equal(got.Marshal(), pair.Cert.Marshal()) &&
			got.CheckSignatureFrom(ca.Cert) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Every key pair comes from deterministicKey, and the possession
// proof's hand-off (tlssim) relies on this: a private key's embedded
// public half is the public key of its seed and the key its certificate
// carries, so Verify under that key accepts what the private key signs.
func TestDeterministicKeyEmbedsSeedPublicKey(t *testing.T) {
	root := testRoot(t)
	leaf := issueLeaf(t, root, "h.com")
	spoof := Spoof(root.Cert, "spoof")
	for _, kp := range []KeyPair{root, leaf, spoof} {
		pub, priv := kp.Cert.PublicKey, kp.Key
		embedded := priv.Public().(ed25519.PublicKey)
		fromSeed := ed25519.NewKeyFromSeed(priv.Seed()).Public().(ed25519.PublicKey)
		if !bytes.Equal(embedded, fromSeed) || !bytes.Equal(pub, fromSeed) {
			t.Fatalf("%s: embedded %x, from seed %x, certificate %x", kp.Cert.Subject, embedded, fromSeed, pub)
		}
		msg := []byte("proof input")
		if !ed25519.Verify(embedded, msg, ed25519.Sign(priv, msg)) {
			t.Fatalf("%s: signature does not verify under the embedded key", kp.Cert.Subject)
		}
	}
	for _, seed := range []string{"", "sim-root", "mitm-leaf-a.example"} {
		pub, priv := deterministicKey(seed)
		if !bytes.Equal(priv.Public().(ed25519.PublicKey), pub) {
			t.Fatalf("seed %q: embedded public half differs from the derived key", seed)
		}
	}
}
