package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// Workload parameters. The catalog workloads (paper_study, analyze_disk,
// coordinated_study) run the paper's fixed 40-device inputs; the seed
// selects the synthetic fleet of fleet_stream.
const (
	fleetDevices   = 10000
	fleetWindow    = "2018-01..2018-02"
	coordWindow    = "2018-01..2018-06"
	coordWorkers   = 2
	coordOpTimeout = 2 * time.Minute
)

var workloads = map[string]workload{
	"paper_study": {
		setupRepeats: 3,
		programTrace: true,
		params: func(cfg runConfig) map[string]any {
			return map[string]any{"devices": "catalog", "window": "full", "parallelism": cfg.nproc, "trace": true}
		},
		setup: func(cfg runConfig, _ string) (instance, error) { return &paperStudy{cfg: cfg}, nil },
	},
	"fleet_stream": {
		setupRepeats: 1,
		params: func(cfg runConfig) map[string]any {
			return map[string]any{"devices": fleetDevices, "fleet_seed": cfg.seed, "window": fleetWindow, "parallelism": cfg.nproc, "trace": false}
		},
		setup: newFleetStream,
	},
	"analyze_disk": {
		setupRepeats: 3,
		params: func(cfg runConfig) map[string]any {
			return map[string]any{"devices": "catalog", "window": "full", "parallelism": cfg.nproc, "source": "paper_study dataset captured in set-up"}
		},
		setup: newAnalyzeDisk,
	},
	"coordinated_study": {
		setupRepeats: 3,
		params: func(cfg runConfig) map[string]any {
			return map[string]any{"devices": "catalog", "window": coordWindow, "workers": coordWorkers, "parallelism": cfg.nproc, "options": "coord defaults"}
		},
		setup: newCoordinated,
	},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func mustWindow(w string) (from, to clock.Month) {
	from, to, err := core.ParseWindow(w)
	if err != nil {
		panic(err)
	}
	return from, to
}

// studyGate is the check every study operation passes: no degradation,
// no PARTIAL artifact, no leaked telemetry or trace span.
func studyGate(s *core.Study, rep *core.Report, rendered string) error {
	if rep.Degraded() {
		return fmt.Errorf("degraded report: %d incident(s)", len(rep.Degradations))
	}
	if strings.Contains(rendered, "PARTIAL") {
		return errors.New("rendered report holds a PARTIAL artifact")
	}
	if n := s.MetricsSnapshot().Counters["telemetry.spans.leaked"]; n != 0 {
		return fmt.Errorf("telemetry.spans.leaked = %d", n)
	}
	if t := s.Tracer(); t != nil && t.Live() != 0 {
		return fmt.Errorf("%d trace spans never ended", t.Live())
	}
	return nil
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// --- paper_study -------------------------------------------------------

type paperStudy struct{ cfg runConfig }

func (w *paperStudy) op(o opOptions) (func() (opResult, error), error) {
	s, err := core.NewStudyFromConfig(core.Config{Parallelism: w.cfg.nproc, NoTrace: o.noTrace})
	if err != nil {
		return nil, err
	}
	o.probe.armStudy(s)
	rep, err := s.RunAll()
	if err != nil {
		return nil, err
	}
	t := time.Now()
	out := rep.Render(s)
	o.probe.sinceMs("analysis.render_ms", t)
	return func() (opResult, error) {
		pin := w.cfg.pins.PaperStudy
		snap := s.MetricsSnapshot()
		res := opResult{
			handshakes: snap.Counters["tlssim.client.handshakes"],
			records:    int64(dataset.FromStudy(s, rep).Len()),
		}
		o.probe.counters(snap)
		if t := s.Tracer(); t != nil {
			o.probe.add("trace.spans_per_study", float64(len(t.Spans())))
		}
		if err := studyGate(s, rep, out); err != nil {
			return res, err
		}
		if got := digest(out); got != pin.RenderSHA256 {
			return res, fmt.Errorf("render sha256 %s, pinned %s", got, pin.RenderSHA256)
		}
		if err := expect("handshakes", res.handshakes, pin.Handshakes); err != nil {
			return res, err
		}
		if o.noTrace {
			return res, nil // the dataset lacks the trace shard's records
		}
		return res, expect("dataset records", res.records, pin.Records)
	}, nil
}

func (w *paperStudy) close() {}

// --- fleet_stream ------------------------------------------------------

type fleetStream struct {
	cfg runConfig
	n   int // operations run, for per-operation directories
}

func newFleetStream(cfg runConfig, _ string) (instance, error) {
	return &fleetStream{cfg: cfg}, nil
}

func (w *fleetStream) op(o opOptions) (func() (opResult, error), error) {
	from, to := mustWindow(fleetWindow)
	s, err := core.NewStudyFromConfig(core.Config{
		Parallelism: w.cfg.nproc,
		FleetN:      fleetDevices,
		FleetSeed:   w.cfg.seed,
		WindowFrom:  from,
		WindowTo:    to,
		NoTrace:     true, // as `iotls fleet` forces
	})
	if err != nil {
		return nil, err
	}
	w.n++
	dir := filepath.Join(w.cfg.work, "fleet-"+strconv.Itoa(w.n))
	sp, err := dataset.NewSpiller(dir, s, dataset.Options{Telemetry: s.Telemetry})
	if err != nil {
		return nil, err
	}
	o.probe.armStudy(s)
	rep, err := s.RunAll()
	if err != nil {
		sp.Abort()
		os.RemoveAll(dir)
		return nil, err
	}
	t := time.Now()
	err = sp.Finish(rep)
	o.probe.since("_finish_s", t)
	if err != nil {
		sp.Abort()
		os.RemoveAll(dir)
		return nil, err
	}
	return func() (opResult, error) {
		defer os.RemoveAll(dir)
		snap := s.MetricsSnapshot()
		o.probe.counters(snap)
		res := opResult{
			handshakes: snap.Counters["tlssim.client.handshakes"],
			records:    snap.Counters["dataset.write.records"],
		}
		if err := studyGate(s, rep, ""); err != nil {
			return res, err
		}
		if passive := int64(rep.PassiveStats.Handshakes); res.handshakes != passive || int64(sp.Spilled()) != passive {
			return res, fmt.Errorf("handshakes %d, passive handshakes %d, spilled %d: want all equal", res.handshakes, passive, sp.Spilled())
		}
		if want, ok := w.cfg.pins.fleetHandshakes(w.cfg.seed); ok {
			if err := expect("fleet handshakes", res.handshakes, want); err != nil {
				return res, err
			}
		}
		// Read the stream back: every shard must pass its CRC and hold
		// exactly what was spilled and written.
		ds, err := dataset.Read(dir, nil)
		if err != nil {
			return res, err
		}
		if got := int64(len(ds.Observations) + len(ds.Revocations)); got != int64(sp.Spilled()) {
			return res, fmt.Errorf("read back %d passive records, spilled %d", got, sp.Spilled())
		}
		return res, expect("records read back", int64(ds.Len()), res.records)
	}, nil
}

func (w *fleetStream) close() {}

// --- analyze_disk ------------------------------------------------------

type analyzeDisk struct {
	cfg runConfig
	dir string
	// scaffold is the unrun testbed the next operation restores into.
	// Restore needs a fresh one each time; building it costs CA-universe
	// key generation, so it is built untimed, keeping this workload free
	// of certs work.
	scaffold *core.Study
}

// newAnalyzeDisk captures the paper study's dataset once, through the
// streaming spill path, for every operation to analyse.
func newAnalyzeDisk(cfg runConfig, dir string) (instance, error) {
	src := filepath.Join(dir, "source")
	if _, err := captureDataset(core.Config{Parallelism: cfg.nproc}, src); err != nil {
		return nil, err
	}
	return &analyzeDisk{cfg: cfg, dir: src, scaffold: core.NewStudy()}, nil
}

// captureDataset runs one study into a streamed dataset at dir and
// returns the TLS handshakes it simulated.
func captureDataset(c core.Config, dir string) (handshakes int64, err error) {
	s, err := core.NewStudyFromConfig(c)
	if err != nil {
		return 0, err
	}
	sp, err := dataset.NewSpiller(dir, s, dataset.Options{Telemetry: s.Telemetry})
	if err != nil {
		return 0, err
	}
	rep, err := s.RunAll()
	if err == nil {
		err = sp.Finish(rep)
	}
	if err != nil {
		sp.Abort()
		return 0, err
	}
	if rep.Degraded() {
		return 0, fmt.Errorf("capture degraded: %d incident(s)", len(rep.Degradations))
	}
	return s.MetricsSnapshot().Counters["tlssim.client.handshakes"], nil
}

func (w *analyzeDisk) op(o opOptions) (func() (opResult, error), error) {
	scaffold := w.scaffold
	t := time.Now()
	ds, err := dataset.Read(w.dir, scaffold.Telemetry)
	if err != nil {
		w.scaffold = core.NewStudy()
		return nil, err
	}
	o.probe.since("_read_s", t)
	t = time.Now()
	rep, err := dataset.Restore(scaffold, ds)
	if err != nil {
		w.scaffold = core.NewStudy()
		return nil, err
	}
	o.probe.sinceMs("dataset.restore_ms", t)
	t = time.Now()
	out := rep.Render(scaffold)
	o.probe.sinceMs("analysis.render_ms", t)
	return func() (opResult, error) {
		w.scaffold = core.NewStudy()
		pin := w.cfg.pins.PaperStudy
		o.probe.counters(scaffold.MetricsSnapshot())
		res := opResult{
			handshakes: int64(len(ds.Observations) + len(ds.ActiveObservations)),
			records:    int64(ds.Len()),
		}
		if err := studyGate(scaffold, rep, out); err != nil {
			return res, err
		}
		if got := digest(out); got != pin.RenderSHA256 {
			return res, fmt.Errorf("render sha256 %s, pinned %s (paper_study's)", got, pin.RenderSHA256)
		}
		if err := expect("handshake records", res.handshakes, pin.HandshakeRecords); err != nil {
			return res, err
		}
		return res, expect("records", res.records, pin.Records)
	}, nil
}

func (w *analyzeDisk) close() {}

// --- coordinated_study -------------------------------------------------

type coordinated struct {
	cfg     runConfig
	workers []*coord.LocalWorker
	study   core.Config
	// canon holds the local capture's canonical shard bytes, the bytes
	// every coordinated merge must reproduce.
	canon map[string][]byte
	// localHandshakes is what the local capture simulated; the workers'
	// subset jobs must add up to it.
	localHandshakes int64
	seen            map[*serve.Job]bool
	n               int
}

// newCoordinated spawns the loopback workers, waits until each is
// ready, and captures the same window locally (trace off, like worker
// jobs; canonicalised by a self-merge) as the byte-identity reference.
func newCoordinated(cfg runConfig, dir string) (inst instance, err error) {
	from, to := mustWindow(coordWindow)
	w := &coordinated{
		cfg:   cfg,
		study: core.Config{Parallelism: cfg.nproc, WindowFrom: from, WindowTo: to},
		seen:  map[*serve.Job]bool{},
	}
	w.workers, err = coord.SpawnLocalWorkers(coordWorkers, coord.LocalOptions{WorkDir: filepath.Join(dir, "workers")})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	for _, u := range coord.URLs(w.workers) {
		if err := waitReady(u); err != nil {
			return nil, err
		}
	}
	local := w.study
	local.NoTrace = true
	raw, canon := filepath.Join(dir, "local-raw"), filepath.Join(dir, "local-canon")
	if w.localHandshakes, err = captureDataset(local, raw); err != nil {
		return nil, err
	}
	if err := dataset.Merge(canon, []string{raw}, dataset.Options{}); err != nil {
		return nil, err
	}
	if w.canon, err = shardBytes(canon); err != nil {
		return nil, err
	}
	return w, nil
}

// waitReady polls a worker's /readyz until it answers 200.
func waitReady(base string) error {
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("worker %s not ready: %v", base, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// shardBytes reads every shard file of a dataset directory (the
// manifest aside: it records N provenance runs after a coordinated run).
func shardBytes(dir string) (map[string][]byte, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.bin*"))
	if err != nil {
		return nil, err
	}
	out := map[string][]byte{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		out[filepath.Base(f)] = b
	}
	return out, nil
}

func (w *coordinated) op(o opOptions) (func() (opResult, error), error) {
	w.n++
	out := filepath.Join(w.cfg.work, "coord-"+strconv.Itoa(w.n))
	tel := telemetry.New(nil)
	ctx, cancel := context.WithTimeout(context.Background(), coordOpTimeout)
	defer cancel()
	res, err := coord.New(coord.Options{
		Workers:   coord.URLs(w.workers),
		Config:    w.study,
		OutDir:    out,
		Telemetry: tel,
	}).Run(ctx)
	if err != nil {
		os.RemoveAll(out)
		return nil, err
	}
	return func() (opResult, error) {
		defer os.RemoveAll(out)
		pin := w.cfg.pins.CoordinatedStudy
		snap := tel.Snapshot()
		o.probe.counters(snap)
		// Speculative and requeued attempts simulate their subsets again,
		// so the workers' total exceeds the merged study's handshakes
		// exactly when the fabric re-ran work.
		var simulated int64
		for _, job := range w.newJobs() {
			js := job.Registry().Snapshot()
			simulated += js.Counters["tlssim.client.handshakes"]
			o.probe.counters(js)
			if st := job.StatusNow(); st.Started != nil && st.Finished != nil {
				o.probe.sample("serve.job_s", st.Finished.Sub(*st.Started).Seconds())
			}
		}
		r := opResult{handshakes: w.localHandshakes}
		m, err := readManifest(res.DatasetDir)
		if err != nil {
			return r, err
		}
		for _, sh := range m.Shards {
			r.records += sh.Records
		}
		switch {
		case res.Partial:
			return r, fmt.Errorf("PARTIAL merge: %d subset(s) lost", len(res.Lost))
		case res.Degraded:
			return r, errors.New("merged report is degraded")
		}
		got, err := shardBytes(res.DatasetDir)
		if err != nil {
			return r, err
		}
		if len(got) != len(w.canon) {
			return r, fmt.Errorf("merged dataset has %d shards, local capture %d", len(got), len(w.canon))
		}
		for name, want := range w.canon {
			if !bytes.Equal(got[name], want) {
				return r, fmt.Errorf("merged shard %s differs from the local capture", name)
			}
		}
		reran := snap.Counters["coord.speculative.launched"]+snap.Counters["coord.jobs.requeued"] > 0
		if simulated < w.localHandshakes || (!reran && simulated != w.localHandshakes) {
			return r, fmt.Errorf("workers simulated %d handshakes, the local capture %d (work re-run: %v)", simulated, w.localHandshakes, reran)
		}
		if err := expect("local handshakes", w.localHandshakes, pin.Handshakes); err != nil {
			return r, err
		}
		return r, expect("merged records", r.records, pin.Records)
	}, nil
}

// newJobs lists the worker jobs not yet accounted to an operation.
func (w *coordinated) newJobs() []*serve.Job {
	var out []*serve.Job
	for _, lw := range w.workers {
		for _, j := range lw.Manager.Jobs() {
			if !w.seen[j] {
				w.seen[j] = true
				out = append(out, j)
			}
		}
	}
	return out
}

func readManifest(dir string) (*dataset.Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, dataset.ManifestName))
	if err != nil {
		return nil, err
	}
	m := &dataset.Manifest{}
	return m, json.Unmarshal(b, m)
}

func (w *coordinated) close() { coord.CloseLocalWorkers(w.workers) }
