package main

import (
	"runtime/metrics"
	"sync/atomic"
	"time"

	"repro/internal/capture"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/telemetry"
)

// layerMetrics is every per-layer metric the traced pass prints, with
// its unit; a metric a workload's operations never reach reads 0. The
// cpu.share.* metrics are appended from the module list.
var layerMetrics = append([]metricSpec{
	{"core.phase.passive_s", "s"},
	{"core.phase.passive_analysis_s", "s"},
	{"core.phase.active_capture_s", "s"},
	{"core.phase.downgrade_s", "s"},
	{"core.phase.old_version_s", "s"},
	{"core.phase.interception_s", "s"},
	{"core.phase.probe_s", "s"},
	{"core.phase.passthrough_s", "s"},
	{"traffic.month_s", "s"},
	{"traffic.handshakes", "count"},
	{"traffic.failed_connects", "count"},
	{"tlssim.handshake_us", "us"},
	{"tlssim.client.handshakes", "count"},
	{"tlssim.client.established", "count"},
	{"tlssim.client.failed", "count"},
	{"certs.verify_us", "us"},
	{"certs.issue_us", "us"},
	{"certs.spoof_us", "us"},
	{"wire.clienthello_ns", "ns"},
	{"wire.record_ns", "ns"},
	{"netem.dial_us", "us"},
	{"netem.dials", "count"},
	{"netem.mirror.frames", "count"},
	{"netem.mirror.bytes", "bytes"},
	{"capture.mirror_us_per_conn", "us"},
	{"capture.observations", "count"},
	{"capture.records", "count"},
	{"dataset.spill_ms_per_month", "ms"},
	{"dataset.write_mb_per_s", "MB/s"},
	{"dataset.finish_ms", "ms"},
	{"dataset.read_ms", "ms"},
	{"dataset.read_mb_per_s", "MB/s"},
	{"dataset.restore_ms", "ms"},
	{"analysis.render_ms", "ms"},
	{"trace.spans_per_study", "count"},
	{"trace.span_ns", "ns"},
	{"trace.overhead_ratio", "ratio"},
	{"coord.jobs.dispatched", "count"},
	{"coord.jobs.requeued", "count"},
	{"coord.speculative.launched", "count"},
	{"coord.http.retries", "count"},
	{"coord.useful_ratio", "ratio"},
	{"dataset.fetch.retries", "count"},
	{"dataset.fetch.restarts", "count"},
	{"serve.job_s", "s"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.alloc_mib_per_op", "MiB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"bench.tracing_overhead_ratio", "ratio"},
}, cpuShareMetrics()...)

// metricSpec names a printed metric and its unit.
type metricSpec struct{ name, unit string }

func cpuShareMetrics() []metricSpec {
	var out []metricSpec
	for _, m := range append(append([]string(nil), modules...), "runtime", "unlisted") {
		out = append(out, metricSpec{"cpu.share." + m, "ratio"})
	}
	return out
}

// completeLayerMetrics returns exactly the layerMetrics set, taking
// values from m and 0 where the workload never reached the layer.
func completeLayerMetrics(m map[string]metric) map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		out[lm.name] = metric{m[lm.name].Value, lm.unit}
	}
	return out
}

// layerProbe records what the traced operations spend in each layer.
// Values accumulate per operation (cur) and each metric reports the
// median over operations. Keys starting with "_" are raw inputs to the
// derived metrics and are not reported.
type layerProbe struct {
	cur    map[string]float64
	series map[string][]float64
	phase  map[string]time.Time

	mirrorNs, mirrorConns atomic.Int64
}

func newLayerProbe() *layerProbe {
	return &layerProbe{
		cur:    map[string]float64{},
		series: map[string][]float64{},
		phase:  map[string]time.Time{},
	}
}

// add accumulates v into the current operation's value of name. A nil
// probe (untraced operations) ignores it. Callers are the benchmark's
// own goroutine and the study's phase and spill hooks, which run
// between study phases, never concurrently with each other.
func (p *layerProbe) add(name string, v float64) {
	if p != nil {
		p.cur[name] += v
	}
}

// sample adds v to name's series directly, for a value measured per
// item inside an operation (a worker job) rather than per operation.
func (p *layerProbe) sample(name string, v float64) {
	if p != nil {
		p.series[name] = append(p.series[name], v)
	}
}

// since adds the seconds elapsed since t to name.
func (p *layerProbe) since(name string, t time.Time) {
	p.add(name, time.Since(t).Seconds())
}

// sinceMs adds the milliseconds elapsed since t to name.
func (p *layerProbe) sinceMs(name string, t time.Time) {
	p.add(name, 1000*time.Since(t).Seconds())
}

// armStudy installs the probe's hooks on a study before it runs: phase
// timing, the gateway-mirror timer, and (when the study streams) the
// spill timer. None changes what the study computes.
func (p *layerProbe) armStudy(s *core.Study) {
	if p == nil {
		return
	}
	mirror := p.timedMirror(s.Collector.Mirror)
	s.Network.SetMirror(mirror)
	// The active snapshot installs its own collector for the length of
	// its phase and restores the plain one after; re-arm the timer at
	// every phase boundary so all other phases stay covered.
	s.PhaseStart = func(name string) {
		s.Network.SetMirror(mirror)
		p.phase[name] = time.Now()
	}
	s.PhaseDone = func(name string) {
		p.since("core.phase."+name+"_s", p.phase[name])
		s.Network.SetMirror(mirror)
	}
	if spill := s.SpillMonth; spill != nil {
		s.SpillMonth = func(m clock.Month, obs []*capture.Observation, revs []capture.RevocationEvent) error {
			t := time.Now()
			err := spill(m, obs, revs)
			p.since("_spill_s", t)
			p.add("_spill_months", 1)
			return err
		}
	}
}

// timedMirror wraps the gateway's mirror factory, timing the capture
// layer's work on every mirrored connection.
func (p *layerProbe) timedMirror(f netem.MirrorFactory) netem.MirrorFactory {
	return func(meta netem.ConnMeta) netem.Mirror {
		t := time.Now()
		inner := f(meta)
		p.mirrorNs.Add(int64(time.Since(t)))
		if inner == nil {
			return nil
		}
		p.mirrorConns.Add(1)
		return &mirrorTimer{inner: inner, ns: &p.mirrorNs}
	}
}

type mirrorTimer struct {
	inner netem.Mirror
	ns    *atomic.Int64
}

func (m *mirrorTimer) ClientBytes(b []byte) {
	t := time.Now()
	m.inner.ClientBytes(b)
	m.ns.Add(int64(time.Since(t)))
}

func (m *mirrorTimer) ServerBytes(b []byte) {
	t := time.Now()
	m.inner.ServerBytes(b)
	m.ns.Add(int64(time.Since(t)))
}

func (m *mirrorTimer) CloseMirror() {
	t := time.Now()
	m.inner.CloseMirror()
	m.ns.Add(int64(time.Since(t)))
}

// counterMetrics maps the telemetry counters the traced pass reads to
// the metrics they feed; the "_" names are inputs to derived metrics.
var counterMetrics = map[string]string{
	"traffic.handshakes":         "traffic.handshakes",
	"traffic.failed_connects":    "traffic.failed_connects",
	"traffic.months":             "_months",
	"tlssim.client.handshakes":   "tlssim.client.handshakes",
	"tlssim.client.established":  "tlssim.client.established",
	"tlssim.client.failed":       "tlssim.client.failed",
	"netem.dials":                "netem.dials",
	"netem.mirror.frames":        "netem.mirror.frames",
	"netem.mirror.client_bytes":  "netem.mirror.bytes",
	"netem.mirror.server_bytes":  "netem.mirror.bytes",
	"capture.observations":       "capture.observations",
	"capture.records":            "capture.records",
	"dataset.write.bytes":        "_write_bytes",
	"dataset.read.bytes":         "_read_bytes",
	"coord.jobs.dispatched":      "coord.jobs.dispatched",
	"coord.jobs.requeued":        "coord.jobs.requeued",
	"coord.jobs.completed":       "_jobs_completed",
	"coord.speculative.launched": "coord.speculative.launched",
	"coord.http.retries":         "coord.http.retries",
	"dataset.fetch.retries":      "dataset.fetch.retries",
	"dataset.fetch.restarts":     "dataset.fetch.restarts",
}

// counters adds a telemetry snapshot's counters of interest.
func (p *layerProbe) counters(snap *telemetry.Snapshot) {
	if p == nil {
		return
	}
	for from, to := range counterMetrics {
		p.add(to, float64(snap.Counters[from]))
	}
}

// opDone closes one traced operation: derived metrics are computed
// from its raw values and every reported value joins its series.
func (p *layerProbe) opDone() {
	c := p.cur
	ratio := func(name string, num, den float64) {
		if den > 0 {
			c[name] = num / den
		}
	}
	ratio("traffic.month_s", c["core.phase.passive_s"]-c["_spill_s"], c["_months"])
	ratio("dataset.spill_ms_per_month", 1000*c["_spill_s"], c["_spill_months"])
	ratio("dataset.write_mb_per_s", c["_write_bytes"]/1e6, c["_spill_s"]+c["_finish_s"])
	ratio("dataset.read_mb_per_s", c["_read_bytes"]/1e6, c["_read_s"])
	ratio("coord.useful_ratio", c["_jobs_completed"], c["coord.jobs.dispatched"])
	ratio("capture.mirror_us_per_conn", float64(p.mirrorNs.Swap(0))/1e3, float64(p.mirrorConns.Swap(0)))
	c["dataset.finish_ms"] = 1000 * c["_finish_s"]
	c["dataset.read_ms"] = 1000 * c["_read_s"]
	for name, v := range c {
		if name[0] != '_' {
			p.series[name] = append(p.series[name], v)
		}
	}
	p.cur = map[string]float64{}
}

// metrics reports each series' median.
func (p *layerProbe) metrics() map[string]metric {
	out := map[string]metric{}
	for name, vs := range p.series {
		out[name] = metric{Value: median(vs)}
	}
	return out
}

// rtSample is a runtime/metrics reading.
type rtSample struct {
	gcCPU, usedCPU, allocBytes, gcCycles float64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return rtSample{gcCPU: v(0), usedCPU: v(1) - v(2), allocBytes: v(3), gcCycles: v(4)}
}

func (a rtSample) add(b rtSample) rtSample {
	return rtSample{a.gcCPU + b.gcCPU, a.usedCPU + b.usedCPU, a.allocBytes + b.allocBytes, a.gcCycles + b.gcCycles}
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{a.gcCPU - b.gcCPU, a.usedCPU - b.usedCPU, a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles}
}

// into reports the summed reading of ops operations.
func (a rtSample) into(m map[string]metric, ops int) {
	if a.usedCPU > 0 {
		m["runtime.gc_cpu_share"] = metric{Value: a.gcCPU / a.usedCPU}
	}
	if ops > 0 {
		m["runtime.alloc_mib_per_op"] = metric{Value: a.allocBytes / float64(ops) / (1 << 20)}
		m["runtime.gc_cycles_per_op"] = metric{Value: a.gcCycles / float64(ops)}
	}
}
