package certs

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// linkCount reports how many (child, parent) links the pool has memoized.
func linkCount(p *Pool) int {
	n := 0
	p.links.Range(func(any, any) bool { n++; return true })
	return n
}

func fingerprints(path []*Certificate) []string {
	out := make([]string, len(path))
	for i, c := range path {
		out[i] = c.Fingerprint()
	}
	return out
}

// memoPKI builds root -> intermediate -> leaf, with the intermediate
// expiring before the leaf so the walk's window checks are visible.
func memoPKI(t *testing.T, interNotAfter time.Time) (root, inter, leaf KeyPair) {
	t.Helper()
	root = testRoot(t)
	inter = root.Issue(Template{
		SerialNumber: 10,
		Subject:      Name{CommonName: "Memo Intermediate", Organization: "TestOrg", Country: "US"},
		NotBefore:    t2018,
		NotAfter:     interNotAfter,
		IsCA:         true,
		MaxPathLen:   0,
	}, "memo-inter")
	leaf = issueLeaf(t, inter, "memo.example.com")
	return root, inter, leaf
}

func reparse(t *testing.T, chain []*Certificate) []*Certificate {
	t.Helper()
	got, err := ParseChain(MarshalChain(chain))
	if err != nil {
		t.Fatalf("ParseChain: %v", err)
	}
	return got
}

func TestLinkMemoHitsAcrossReparsedChainsAndTimes(t *testing.T) {
	root, inter, leaf := memoPKI(t, t2030)
	wire := []*Certificate{leaf.Cert, inter.Cert}
	roots := NewPool()
	roots.Add(root.Cert)

	at1 := t2021
	at2 := t2021.Add(36 * time.Hour)
	for i, at := range []time.Time{at1, at2} {
		opts := VerifyOptions{Roots: roots, Hostname: "memo.example.com", At: at}
		before := linkCount(roots)
		path, err := Verify(reparse(t, wire), opts)

		fresh := NewPool()
		fresh.Add(root.Cert)
		opts.Roots = fresh
		wantPath, wantErr := Verify(reparse(t, wire), opts)

		if err != nil || wantErr != nil {
			t.Fatalf("call %d: err = %v, fresh pool err = %v", i, err, wantErr)
		}
		if !reflect.DeepEqual(fingerprints(path), fingerprints(wantPath)) {
			t.Fatalf("call %d: path differs from a fresh pool's", i)
		}
		if i == 0 && linkCount(roots) != 2 {
			t.Fatalf("first call memoized %d links, want 2", linkCount(roots))
		}
		if i == 1 && linkCount(roots) != before {
			t.Fatalf("second call added %d memo entries", linkCount(roots)-before)
		}
	}
}

func TestLinkMemoStillChecksValidityWindows(t *testing.T) {
	interNotAfter := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	root, inter, leaf := memoPKI(t, interNotAfter)
	chain := []*Certificate{leaf.Cert, inter.Cert}
	roots := NewPool()
	roots.Add(root.Cert)

	if _, err := Verify(chain, VerifyOptions{Roots: roots, At: t2021}); err != nil {
		t.Fatalf("inside the window: %v", err)
	}
	late := interNotAfter.Add(time.Second)
	_, err := Verify(reparse(t, chain), VerifyOptions{Roots: roots, At: late})
	var ee ExpiredError
	if !errors.As(err, &ee) || ee.Cert.Fingerprint() != inter.Cert.Fingerprint() {
		t.Fatalf("after the intermediate's NotAfter: err = %v, want ExpiredError on the intermediate", err)
	}
	_, err = Verify(chain, VerifyOptions{Roots: roots, At: t2030.Add(time.Second)})
	if !errors.As(err, &ee) || ee.Cert != leaf.Cert {
		t.Fatalf("after the leaf's NotAfter: err = %v, want ExpiredError on the leaf", err)
	}
}

func TestLinkMemoTamperedCopyFailsSignature(t *testing.T) {
	ca := testRoot(t)
	leaf := issueLeaf(t, ca, "a.example.com")
	roots := NewPool()
	roots.Add(ca.Cert)
	opts := VerifyOptions{Roots: roots, Hostname: "a.example.com", At: t2021}
	if _, err := Verify([]*Certificate{leaf.Cert, ca.Cert}, opts); err != nil {
		t.Fatalf("original: %v", err)
	}

	renamed := *leaf.Cert
	renamed.Subject.CommonName = "b.example.com"
	resigned := *leaf.Cert
	resigned.Signature = append([]byte(nil), leaf.Cert.Signature...)
	resigned.Signature[0] ^= 1
	for name, tampered := range map[string]*Certificate{"subject": &renamed, "signature": &resigned} {
		if _, err := Verify([]*Certificate{tampered, ca.Cert}, opts); !errors.Is(err, ErrSignature) {
			t.Fatalf("tampered %s: err = %v, want ErrSignature", name, err)
		}
	}
	if _, err := Verify([]*Certificate{leaf.Cert, ca.Cert}, opts); err != nil {
		t.Fatalf("original after tampered copies: %v", err)
	}
}

func TestLinkMemoFollowsPoolMembership(t *testing.T) {
	ca := testRoot(t)
	leaf := issueLeaf(t, ca, "a.example.com")
	chain := []*Certificate{leaf.Cert}
	roots := NewPool()
	opts := VerifyOptions{Roots: roots, Hostname: "a.example.com", At: t2021}

	var uae UnknownAuthorityError
	for step, want := range []bool{false, true, false, true} {
		switch step {
		case 1, 3:
			roots.Add(ca.Cert)
		case 2:
			roots.Remove(ca.Cert)
		}
		_, err := Verify(chain, opts)
		if want && err != nil {
			t.Fatalf("step %d (trusted): %v", step, err)
		}
		if !want && !errors.As(err, &uae) {
			t.Fatalf("step %d (untrusted): err = %v, want UnknownAuthorityError", step, err)
		}
	}
}

func TestLinkMemoSpoofedCAWarm(t *testing.T) {
	ca := testRoot(t)
	roots := NewPool()
	roots.Add(ca.Cert)
	opts := VerifyOptions{Roots: roots, Hostname: "iot.vendor.com", At: t2021}

	// Warm the memo with the genuine CA's link first.
	genuine := issueLeaf(t, ca, "iot.vendor.com")
	if _, err := Verify([]*Certificate{genuine.Cert, ca.Cert}, opts); err != nil {
		t.Fatalf("genuine chain: %v", err)
	}
	spoof := Spoof(ca.Cert, "attacker-key")
	leaf := issueLeaf(t, spoof, "iot.vendor.com")
	for i := 0; i < 2; i++ {
		_, err := Verify(reparse(t, []*Certificate{leaf.Cert, spoof.Cert}), opts)
		if !errors.Is(err, ErrSignature) {
			t.Fatalf("call %d: err = %v, want ErrSignature", i, err)
		}
	}
}

func TestLinkMemoConcurrentVerify(t *testing.T) {
	root, inter, leaf := memoPKI(t, t2030)
	roots := NewPool()
	roots.Add(root.Cert)
	wire := MarshalChain([]*Certificate{leaf.Cert, inter.Cert})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			chain, err := ParseChain(wire)
			if err == nil {
				_, err = Verify(chain, VerifyOptions{Roots: roots, Hostname: "memo.example.com", At: t2021})
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	if n := linkCount(roots); n != 2 {
		t.Fatalf("memo holds %d links, want 2", n)
	}
}
