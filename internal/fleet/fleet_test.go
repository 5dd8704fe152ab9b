package fleet_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/rootstore"
)

// TestFleetDeterminism pins the generator's subset-composability
// contract: device i is a pure function of (seed, i), so the first K
// devices of an N-device fleet are identical to a K-device fleet with
// the same seed — IDs, categories, destination sets, slot shapes.
// This is what makes coordinator sharding by device-ID prefix sound.
func TestFleetDeterminism(t *testing.T) {
	t.Parallel()
	const k, n = 100, 1000
	small := fleet.Devices(rootstore.NewUniverse(), fleet.Spec{N: k, Seed: 9})
	large := fleet.Devices(rootstore.NewUniverse(), fleet.Spec{N: n, Seed: 9})
	if len(small) != k || len(large) != n {
		t.Fatalf("got %d and %d devices, want %d and %d", len(small), len(large), k, n)
	}
	for i := 0; i < k; i++ {
		a, b := small[i], large[i]
		if a.ID != b.ID {
			t.Fatalf("device %d: ID %q vs %q across fleet sizes", i, a.ID, b.ID)
		}
		if a.ID != fleet.ID(i) {
			t.Errorf("device %d: ID %q, want %q", i, a.ID, fleet.ID(i))
		}
		if a.Category != b.Category {
			t.Errorf("device %d: category %v vs %v", i, a.Category, b.Category)
		}
		if len(a.Slots) != len(b.Slots) {
			t.Fatalf("device %d: %d slots vs %d", i, len(a.Slots), len(b.Slots))
		}
		for si := range a.Slots {
			ap, bp := a.Slots[si].Phases, b.Slots[si].Phases
			if len(ap) != len(bp) {
				t.Fatalf("device %d slot %d: %d phases vs %d", i, si, len(ap), len(bp))
			}
			for pi := range ap {
				if ap[pi].From != bp[pi].From {
					t.Errorf("device %d slot %d phase %d: From %v vs %v", i, si, pi, ap[pi].From, bp[pi].From)
				}
			}
		}
		if len(a.Destinations) != len(b.Destinations) {
			t.Fatalf("device %d: %d destinations vs %d", i, len(a.Destinations), len(b.Destinations))
		}
		for di := range a.Destinations {
			ad, bd := a.Destinations[di], b.Destinations[di]
			if ad.Host != bd.Host || ad.MonthlyConns != bd.MonthlyConns || ad.Boot != bd.Boot || ad.FirstParty != bd.FirstParty {
				t.Errorf("device %d destination %d: %+v vs %+v", i, di, ad, bd)
			}
		}
	}

	// Same (spec, universe) twice is also bit-stable.
	again := fleet.Devices(rootstore.NewUniverse(), fleet.Spec{N: k, Seed: 9})
	for i := range small {
		if small[i].ID != again[i].ID || len(small[i].Destinations) != len(again[i].Destinations) {
			t.Fatalf("device %d differs between identical Devices calls", i)
		}
	}

	// A different seed samples a different fleet (same IDs, different
	// composition somewhere in the first K devices).
	other := fleet.Devices(rootstore.NewUniverse(), fleet.Spec{N: k, Seed: 10})
	same := true
	for i := range small {
		if len(small[i].Destinations) != len(other[i].Destinations) ||
			small[i].Destinations[0].Host != other[i].Destinations[0].Host {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 9 and 10 produced indistinguishable fleets")
	}
}

// fleetWindowRun drives an n-device fleet through a two-month passive
// window at parallelism 8 with the streaming spill path armed as a
// counting discard, and returns (handshakes, records spilled).
func fleetWindowRun(t testing.TB, n int) (int, int) {
	from, to, err := core.ParseWindow("2018-01..2018-02")
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewStudyFromConfig(core.Config{
		Parallelism: 8,
		WindowFrom:  from, WindowTo: to,
		FleetN: n, FleetSeed: 1,
		NoTrace: true,
	})
	if err != nil {
		t.Fatalf("NewStudyFromConfig: %v", err)
	}
	spilled := 0
	s.SpillMonth = func(m clock.Month, obs []*capture.Observation, revs []capture.RevocationEvent) error {
		spilled += len(obs) + len(revs)
		return nil
	}
	stats, err := s.RunPassiveWindow(from, to)
	if err != nil {
		t.Fatalf("RunPassiveWindow: %v", err)
	}
	return stats.Handshakes, spilled
}

// TestFleetSmoke is the `make fleet` gate: a 10k-device fleet (1k
// under -short) runs a two-month passive window through the
// month-spill path, and peak RSS stays under a ceiling that a
// whole-run in-memory capture store — or unshared per-device configs —
// would blow through. Measured baseline is ~81 MiB at 10k devices
// (2 vCPU, go1.24.0); the ceiling leaves ~2.5x headroom for toolchain
// drift. Under -race (`make race`) the same run measures ~212 MiB, and
// the ceiling there stays at 512 MiB (~2.4x).
func TestFleetSmoke(t *testing.T) {
	n := 10_000
	if testing.Short() {
		n = 1_000
	}
	handshakes, spilled := fleetWindowRun(t, n)
	if handshakes == 0 {
		t.Fatal("fleet run performed no handshakes")
	}
	if spilled == 0 {
		t.Fatal("fleet run spilled no capture records")
	}
	if kib, ok := fleet.PeakRSSKiB(); ok {
		ceilingKiB := int64(200 << 10) // 200 MiB
		if raceEnabled {
			ceilingKiB = 512 << 10
		}
		t.Logf("fleet n=%d: %d handshakes, %d records spilled, peak RSS %d KiB", n, handshakes, spilled, kib)
		if kib > ceilingKiB {
			t.Errorf("peak RSS %d KiB exceeds the %d KiB fleet ceiling", kib, ceilingKiB)
		}
	}
}

var fleetBenchOut = flag.String("fleet.benchout", "", "write the fleet-scale benchmark to this JSON file")

// fleetBenchResult is what one child process measures for one fleet size.
type fleetBenchResult struct {
	Devices    int   `json:"devices"`
	WallNs     int64 `json:"wall_ns"`
	PeakRSSKiB int64 `json:"peak_rss_kib"`
	Handshakes int   `json:"handshakes"`
	Spilled    int   `json:"spilled"`
}

// TestFleetBenchChild is the re-exec target for TestEmitFleetBench: it
// runs one fleet study in a fresh process (so VmHWM reflects only that
// fleet size) and writes its measurement to $IOTLS_FLEET_BENCH_OUT.
// It is skipped in normal test runs.
func TestFleetBenchChild(t *testing.T) {
	nStr := os.Getenv("IOTLS_FLEET_BENCH_N")
	out := os.Getenv("IOTLS_FLEET_BENCH_OUT")
	if nStr == "" || out == "" {
		t.Skip("bench child: driven by TestEmitFleetBench only")
	}
	n, err := strconv.Atoi(nStr)
	if err != nil || n <= 0 {
		t.Fatalf("bad IOTLS_FLEET_BENCH_N %q", nStr)
	}
	start := time.Now()
	handshakes, spilled := fleetWindowRun(t, n)
	wall := time.Since(start)
	kib, ok := fleet.PeakRSSKiB()
	if !ok {
		t.Fatal("bench child: no VmHWM available (non-Linux procfs?)")
	}
	raw, err := json.Marshal(fleetBenchResult{
		Devices: n, WallNs: wall.Nanoseconds(), PeakRSSKiB: kib,
		Handshakes: handshakes, Spilled: spilled,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// runBenchChild re-execs the test binary to measure one fleet size in
// an isolated process, so each VmHWM reading is attributable.
func runBenchChild(t *testing.T, n int) fleetBenchResult {
	t.Helper()
	out := fmt.Sprintf("%s/bench-%d.json", t.TempDir(), n)
	cmd := exec.Command(os.Args[0], "-test.run=^TestFleetBenchChild$", "-test.count=1", "-test.timeout=25m")
	cmd.Env = append(os.Environ(),
		"IOTLS_FLEET_BENCH_N="+strconv.Itoa(n),
		"IOTLS_FLEET_BENCH_OUT="+out,
	)
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("bench child n=%d: %v\n%s", n, err, b)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("bench child n=%d wrote no result: %v", n, err)
	}
	var r fleetBenchResult
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatalf("bench child n=%d result: %v", n, err)
	}
	return r
}

// TestEmitFleetBench measures the streaming engine at 10k and 100k
// synthetic devices (each in its own process, two-month window,
// parallelism 8) and writes BENCH_fleet.json. The headline number is
// the peak-RSS growth ratio across the 10x device-count step: the
// memory-bounded engine's contract is that it stays well under 10x.
// Runs only when -fleet.benchout is set (see `make bench`).
func TestEmitFleetBench(t *testing.T) {
	if *fleetBenchOut == "" {
		t.Skip("pass -fleet.benchout=FILE to emit the fleet benchmark")
	}
	small := runBenchChild(t, 10_000)
	large := runBenchChild(t, 100_000)

	growth := float64(large.PeakRSSKiB) / float64(small.PeakRSSKiB)
	doc := struct {
		Schema        string           `json:"schema"`
		Window        string           `json:"window"`
		Parallelism   int              `json:"parallelism"`
		Fleet10k      fleetBenchResult `json:"fleet_10k"`
		Fleet100k     fleetBenchResult `json:"fleet_100k"`
		RSSGrowth10x  float64          `json:"rss_growth_10x"`
		GrowthCeiling float64          `json:"growth_ceiling"`
	}{
		Schema:      "iotls.bench.fleet/v1",
		Window:      "2018-01..2018-02",
		Parallelism: 8,
		Fleet10k:    small, Fleet100k: large,
		RSSGrowth10x:  growth,
		GrowthCeiling: 10,
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*fleetBenchOut, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("fleet bench: 10k peak %d KiB, 100k peak %d KiB, growth %.2fx", small.PeakRSSKiB, large.PeakRSSKiB, growth)
	if growth >= 10 {
		t.Errorf("peak RSS grew %.2fx across a 10x fleet step; the streaming engine must stay sublinear", growth)
	}
}
