package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runConfig is what every workload is built from.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	work    string
	pins    *pinFile
	nproc   int
}

// opResult is what one operation reports to the loop.
type opResult struct {
	// handshakes counts the TLS handshakes the operation simulated, the
	// handshake records it analysed (analyze_disk), or the handshakes the
	// merged study holds (coordinated_study).
	handshakes int64
	// records counts the dataset records the operation produced,
	// decoded or merged.
	records int64
}

// opOptions selects how one operation runs.
type opOptions struct {
	// probe, when non-nil, records layer timings (traced pass only).
	probe *layerProbe
	// noTrace runs the study with the program's causal trace off; the
	// traced pass uses it to measure the trace's own overhead.
	noTrace bool
}

// instance is one set-up workload, ready to run operations one at a
// time. op is the timed part; the finish function it returns runs
// untimed: it gates the output, counts the operation's work and
// releases its state.
type instance interface {
	op(o opOptions) (finish func() (opResult, error), err error)
	close()
}

// workload describes one named workload (BENCHMARK.json and README.md
// give the reasons for each).
type workload struct {
	// setupRepeats is how many times the end-to-end pass builds the
	// workload (each with its warm-up operation) to take setup_s as a
	// median; the last build serves the timed loop.
	setupRepeats int
	// programTrace marks a workload whose operations run the program's
	// causal trace; its traced pass also runs them with the trace off.
	programTrace bool
	params       func(cfg runConfig) map[string]any
	setup        func(cfg runConfig, dir string) (instance, error)
}

// gate counts operations and their failures.
type gate struct {
	attempted, failed int
}

// sample is one timed operation.
type sample struct {
	wall, cpu time.Duration
	rssKiB    int64
	res       opResult
}

// do runs one operation: it collects the previous operation's garbage
// and resets the RSS high-water mark, times the op, reads the
// operation's peak RSS, then runs the untimed finish.
func (g *gate) do(inst instance, o opOptions, around func(start bool)) sample {
	runtime.GC()
	resetPeakRSS()
	if around != nil {
		around(true)
	}
	c0 := cpuTime()
	t0 := time.Now()
	finish, err := inst.op(o)
	wall := time.Since(t0)
	cpu := cpuTime() - c0
	rss := peakRSSKiB()
	if around != nil {
		around(false)
	}
	var res opResult
	if err == nil {
		res, err = finish()
	}
	g.attempted++
	if err != nil {
		g.failed++
		if g.failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: operation %d failed the gate: %v\n", g.attempted, err)
		}
	}
	return sample{wall: wall, cpu: cpu, rssKiB: rss, res: res}
}

// setUp builds the workload and runs its warm-up operation, returning
// the instance and the set-up time (the check is not counted).
func setUp(wl workload, cfg runConfig, g *gate, n int) (instance, float64, error) {
	dir := filepath.Join(cfg.work, "setup-"+strconv.Itoa(n))
	t0 := time.Now()
	inst, err := wl.setup(cfg, dir)
	if err != nil {
		return nil, 0, err
	}
	built := time.Since(t0)
	s := g.do(inst, opOptions{}, nil)
	return inst, (built + s.wall).Seconds(), nil
}

// endToEndMetrics is what the untraced pass prints, in BENCHMARK.json
// order.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"handshakes_per_s", "1/s"},
	{"records_per_s", "1/s"},
	{"peak_rss_mib", "MiB"},
	{"op_success_ratio", "ratio"},
}

// runEndToEnd is the untraced pass: set up (several times, for the
// setup_s median), then a closed loop of operations for cfg.seconds.
func runEndToEnd(wl workload, cfg runConfig) (*result, map[string]any, error) {
	g := &gate{}
	var inst instance
	var setups []float64
	for i := 0; i < wl.setupRepeats; i++ {
		if inst != nil {
			inst.close()
		}
		var secs float64
		var err error
		inst, secs, err = setUp(wl, cfg, g, i)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, secs)
	}
	defer inst.close()

	// Hand set-up's garbage back to the OS once, so it does not sit in
	// the operations' RSS.
	debug.FreeOSMemory()
	var samples []sample
	deadline := time.Now().Add(cfg.seconds)
	for len(samples) == 0 || time.Now().Before(deadline) {
		s := g.do(inst, opOptions{}, nil)
		samples = append(samples, s)
	}

	var walls, cpus, rss, hps, rps []float64
	for _, s := range samples {
		w := s.wall.Seconds()
		walls = append(walls, w)
		cpus = append(cpus, s.cpu.Seconds())
		rss = append(rss, float64(s.rssKiB)/1024)
		hps = append(hps, float64(s.res.handshakes)/w)
		rps = append(rps, float64(s.res.records)/w)
	}
	values := map[string]float64{
		"setup_s":          median(setups),
		"wall_s":           median(walls),
		"cpu_s":            median(cpus),
		"handshakes_per_s": median(hps),
		"records_per_s":    median(rps),
		"peak_rss_mib":     median(rss),
		"op_success_ratio": float64(g.attempted-g.failed) / float64(g.attempted),
	}
	res := &result{
		Correct:   g.failed == 0,
		Attempted: g.attempted,
		Failed:    g.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range endToEndMetrics {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	params := wl.params(cfg)
	params["timed_ops"] = len(samples)
	params["wall_quartiles_s"] = quartiles(walls)
	params["handshakes_per_op"] = samples[0].res.handshakes
	params["records_per_op"] = samples[0].res.records
	params["setup_repeats"] = wl.setupRepeats
	return res, params, nil
}

// runTraced is the per-layer pass. Operations alternate between plain
// (as in the end-to-end pass) and traced (layer hooks armed, CPU
// profile on); a workload that runs the program's causal trace adds a
// third, trace-off operation.
// The plain/traced wall ratio is the benchmark's own tracing overhead.
func runTraced(wl workload, cfg runConfig) (*result, map[string]any, error) {
	g := &gate{}
	inst, _, err := setUp(wl, cfg, g, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	defer inst.close()

	kinds := []string{"plain", "traced"}
	if wl.programTrace {
		kinds = append(kinds, "no_trace")
	}
	probe := newLayerProbe()
	var profiles []string
	var profFile *os.File
	walls := map[string][]float64{}
	var rt0, rtSum rtSample
	// around brackets each traced operation with its own CPU profile
	// and runtime/metrics reading; pprof merges the profiles later.
	around := func(start bool) {
		if start {
			f, err := os.Create(filepath.Join(cfg.work, fmt.Sprintf("cpu-%d.pprof", len(profiles))))
			if err == nil && pprof.StartCPUProfile(f) == nil {
				profiles = append(profiles, f.Name())
				profFile = f
			} else if err == nil {
				f.Close()
			}
			rt0 = readRuntime()
			return
		}
		rtSum = rtSum.add(readRuntime().sub(rt0))
		if profFile != nil {
			pprof.StopCPUProfile()
			profFile.Close()
			profFile = nil
		}
	}

	debug.FreeOSMemory()
	// Whole cycles only; another cycle starts while at least half of it
	// fits before the deadline, so slow operations do not double the run.
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	cycleStart := start
	for i := 0; ; i++ {
		if i > 0 && i%len(kinds) == 0 {
			cycle := time.Since(cycleStart)
			if !time.Now().Add(cycle / 2).Before(deadline) {
				break
			}
			cycleStart = time.Now()
		}
		kind := kinds[i%len(kinds)]
		var s sample
		switch kind {
		case "plain":
			s = g.do(inst, opOptions{}, nil)
		case "traced":
			s = g.do(inst, opOptions{probe: probe}, around)
			probe.opDone()
		case "no_trace":
			s = g.do(inst, opOptions{noTrace: true}, nil)
		}
		walls[kind] = append(walls[kind], s.wall.Seconds())
	}

	m := probe.metrics()
	m["bench.tracing_overhead_ratio"] = metric{median(walls["traced"]) / median(walls["plain"]), "ratio"}
	if w := walls["no_trace"]; len(w) > 0 {
		m["trace.overhead_ratio"] = metric{median(walls["plain"]) / median(w), "ratio"}
	}
	rtSum.into(m, len(walls["traced"]))

	fx, err := newFixture()
	if err != nil {
		return nil, nil, fmt.Errorf("layer probes: %w", err)
	}
	if err := fx.measure(m); err != nil {
		return nil, nil, fmt.Errorf("layer probes: %w", err)
	}

	shares, err := cpuShares(profiles)
	if err != nil {
		return nil, nil, fmt.Errorf("cpu attribution: %w", err)
	}
	for k, v := range shares {
		m["cpu.share."+k] = metric{v, "ratio"}
	}

	res := &result{
		Correct:   g.failed == 0,
		Attempted: g.attempted,
		Failed:    g.failed,
		Metrics:   completeLayerMetrics(m),
	}
	params := wl.params(cfg)
	params["traced_ops"] = len(walls["traced"])
	params["plain_ops"] = len(walls["plain"])
	params["cpu_profiles"] = len(profiles)
	return res, params, nil
}

// resetPeakRSS resets the process's RSS high-water mark to its current
// RSS, so the next reading covers one operation. Writing 5 to
// clear_refs does this on Linux 4.0+; where it cannot, the peak also
// covers what ran before, which only overstates it.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSKiB reads the process's RSS high-water mark (VmHWM).
func peakRSSKiB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			v, _ := strconv.ParseInt(f[1], 10, 64)
			return v
		}
	}
	return 0
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quartiles returns the first quartile, median and third quartile of
// xs by the nearest-rank rule.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 { return s[int(q*float64(len(s)-1)+0.5)] }
	return [3]float64{at(0.25), median(s), at(0.75)}
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
