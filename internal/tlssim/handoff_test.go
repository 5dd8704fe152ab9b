package tlssim_test

import (
	"crypto/ed25519"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/mitm"
	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/tlssim"
)

// doubleCheck runs scenario with every hand-off hit checked against the
// real ed25519.Verify. It fails on any disagreement, and when the number
// of proofs accepted on a record's word is zero but wantHits is set,
// since then it checked nothing.
func doubleCheck(t *testing.T, name string, wantHits bool, scenario func(t *testing.T)) {
	t.Helper()
	var hits, disagreements atomic.Int64
	restore := tlssim.SetHandOffHit(func(key ed25519.PublicKey, input, sig []byte) {
		hits.Add(1)
		if !ed25519.Verify(key, input, sig) {
			disagreements.Add(1)
		}
	})
	defer restore()
	scenario(t)
	t.Logf("%s: %d hand-off hits, %d disagreements", name, hits.Load(), disagreements.Load())
	if d := disagreements.Load(); d != 0 {
		t.Errorf("%s: %d hand-off hits where ed25519.Verify disagrees", name, d)
	}
	if h := hits.Load(); wantHits && h == 0 {
		t.Errorf("%s: no proof was accepted on a hand-off record", name)
	} else if !wantHits && h != 0 {
		t.Errorf("%s: %d proofs accepted on a hand-off record, want none", name, h)
	}
}

func TestHandOffAgreesWithVerifyPaperStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full study skipped in -short mode")
	}
	doubleCheck(t, "paper study", true, func(t *testing.T) {
		s := core.NewStudy()
		s.Parallelism = 4
		if _, err := s.RunAll(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestHandOffAgreesWithVerifyUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos study skipped in -short mode")
	}
	for _, parallelism := range []int{1, 8} {
		doubleCheck(t, "aggressive chaos", true, func(t *testing.T) {
			s := core.NewStudy()
			s.Parallelism = parallelism
			s.PassiveFrom = device.StudyStart
			s.PassiveTo = clock.Month{Year: 2018, Mon: 6}
			s.SetFaultPlan(fault.NewPlan(7, fault.Profiles["aggressive"]))
			if _, err := s.RunAll(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// activeTestbed builds the active-experiment testbed the study uses.
func activeTestbed() (*netem.Network, *device.Registry, *mitm.Proxy) {
	clk := clock.NewSimulated(device.ActiveSnapshot.Start())
	nw := netem.New(clk)
	reg := device.NewRegistry(clk)
	cloud.New(nw, reg)
	return nw, reg, mitm.NewProxy(nw, reg.Universe)
}

// The interception attacks (NoValidation, InvalidBasicConstraints,
// WrongHostname) and the downgrade triggers (FailedHandshake,
// IncompleteHandshake) against every active device. The remaining
// mode, SpoofedCA, is what the root-store probes below present.
func TestHandOffAgreesWithVerifyMITMAttacks(t *testing.T) {
	doubleCheck(t, "mitm attack modes", true, func(t *testing.T) {
		_, reg, p := activeTestbed()
		for _, dev := range reg.ActiveDevices() {
			p.RunInterception(dev)
			p.RunDowngrade(dev)
		}
	})
}

// The root-store probes present forged chains, anchored at a spoofed or
// an unknown CA, and every device that validates rejects them before it
// reaches the proof; the ones that do not validate skip the proof. So
// no proof may be accepted on a record's word here: a hit would mean a
// forged chain reached the proof check.
func TestHandOffAgreesWithVerifyRootStoreProbes(t *testing.T) {
	doubleCheck(t, "root-store probes", false, func(t *testing.T) {
		_, reg, p := activeTestbed()
		if _, _, err := probe.New(p, reg).ExploreAll(); err != nil {
			t.Fatal(err)
		}
	})
}
