package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// tracesSnippet is `go tool pprof -traces` output in the shape the
// toolchain prints: a header, then one block per sample with the value
// on the innermost frame's line, optional label lines, inline markers.
const tracesSnippet = `File: perfbench
Build ID: c3ac022e067b597c3078f20a7bf55b67e7f2cad0
Type: cpu
Time: 2026-10-17 02:05:27 UTC
Duration: 2.01s, Total samples = 2.51s (124.57%)
-----------+-------------------------------------------------------
      10ms   crypto/internal/fips140/edwards25519/field.feMul
             crypto/internal/fips140/edwards25519/field.(*Element).Multiply (inline)
             crypto/ed25519.Sign (inline)
             repro/internal/certs.(*KeyPair).Issue
             repro/internal/mitm.(*Proxy).spoofChain
             repro/internal/core.(*Study).RunAll
-----------+-------------------------------------------------------
      30ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.systemstack
-----------+-------------------------------------------------------
   request:  handshake
      20ms   repro/internal/wire.(*ClientHello).Marshal (inline)
             repro/internal/tlssim.Client
             main.(*fixture).measure.func7
-----------+-------------------------------------------------------
     1.20s   repro/internal/newlayer.Work
             main.main
-----------+-------------------------------------------------------
      10ms   repro/internal/wire.ParseClientHello
             repro/internal/tlssim.Client
-----------+-------------------------------------------------------
`

func TestParseTraces(t *testing.T) {
	got, err := parseTraces(strings.NewReader(tracesSnippet))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"certs":    10 * time.Millisecond,
		"runtime":  30 * time.Millisecond,
		"wire":     30 * time.Millisecond,
		"newlayer": 1200 * time.Millisecond,
	}
	if len(got) != len(want) {
		t.Fatalf("layers = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}

	shares, err := layerShares(got)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if _, ok := shares["newlayer"]; ok {
		t.Error("a module missing from the list got its own share")
	}
	if s := shares["unlisted"]; math.Abs(s-1.2/1.27) > 1e-9 {
		t.Errorf("unlisted share = %v, want %v", s, 1.2/1.27)
	}
	if len(shares) != len(modules)+2 {
		t.Errorf("%d shares, want every module plus runtime and unlisted", len(shares))
	}
}

func TestParseTracesRejectsGarbage(t *testing.T) {
	in := "-----------+---\n   tenms   repro/internal/wire.F\n"
	if _, err := parseTraces(strings.NewReader(in)); err == nil {
		t.Fatal("a malformed sample value parsed")
	}
	if _, err := layerShares(map[string]time.Duration{}); err == nil {
		t.Fatal("an empty profile produced shares")
	}
}

func TestModuleOf(t *testing.T) {
	for frame, want := range map[string]string{
		"repro/internal/certs.(*Certificate).seal": "certs",
		"repro/internal/tlssim.Client.func1":       "tlssim",
		"repro/internal/wire.ParseClientHello":     "wire",
		"repro.studyFixture":                       "",
		"runtime.mallocgc":                         "",
	} {
		if got := moduleOf(frame); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", frame, got, want)
		}
	}
}
