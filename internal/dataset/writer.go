package dataset

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/clock"
	"repro/internal/telemetry"
)

// Options configure dataset I/O.
type Options struct {
	// Gzip compresses shard files (shards gain a .gz suffix). The CRC
	// and byte counts in the manifest always cover the uncompressed
	// record stream, so integrity checking is compression-independent.
	Gzip bool
	// Telemetry receives dataset.* I/O counters and spans; nil is fine.
	Telemetry *telemetry.Registry
	// NoPooling bypasses the shared encode-buffer pool: encode buffers
	// are freshly allocated instead of recycled. The written bytes are
	// identical either way —
	// the round-trip determinism test pins that — so the knob exists
	// only for that test and for debugging aliasing suspicions.
	NoPooling bool
}

// writeCounters caches the write-path telemetry handles; Registry
// lookups are too heavy for once-per-record.
type writeCounters struct {
	shards  *telemetry.Counter
	records *telemetry.Counter
	bytes   *telemetry.Counter
}

func newWriteCounters(tel *telemetry.Registry) writeCounters {
	return writeCounters{
		shards:  tel.Counter("dataset.write.shards"),
		records: tel.Counter("dataset.write.records"),
		bytes:   tel.Counter("dataset.write.bytes"),
	}
}

// Writer streams records into a dataset directory, one shard per
// passive month plus the active and aux shards, without ever holding a
// whole dataset in memory. Close finalises the shard catalog and
// writes the manifest; a Writer that is never Closed leaves no
// manifest, so half-written directories are not readable datasets.
type Writer struct {
	dir    string
	opts   Options
	ctrs   writeCounters
	shards map[string]*shardWriter
	runs   []Run
	active bool
	closed bool

	// last caches the most recent (kind, month) → shard resolution:
	// records arrive in long same-shard runs, so the common case skips
	// the name build and map lookup entirely.
	lastKind  string
	lastMonth clock.Month
	lastShard *shardWriter
}

// shardWriter frames records into one shard file. The CRC and byte
// count are computed over the uncompressed stream, before gzip.
type shardWriter struct {
	info ShardInfo
	f    *os.File
	bw   *bufio.Writer
	gz   *gzip.Writer
	out  io.Writer
	crc  hash.Hash32
	ctrs writeCounters
}

// newShardWriter opens one shard file for streaming.
func newShardWriter(dir, name, kind, month string, gzipped bool, ctrs writeCounters) (*shardWriter, error) {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return nil, fmt.Errorf("dataset: create shard: %w", err)
	}
	sw := &shardWriter{
		info: ShardInfo{File: name, Kind: kind, Month: month},
		f:    f,
		bw:   bufio.NewWriterSize(f, 1<<16),
		crc:  crc32.NewIEEE(),
		ctrs: ctrs,
	}
	sw.out = sw.bw
	if gzipped {
		sw.gz = gzip.NewWriter(sw.bw)
		sw.out = sw.gz
	}
	ctrs.shards.Inc()
	return sw, nil
}

// writeRecord frames one encoded payload: uvarint length prefix, then
// the payload, both covered by the stream CRC. The prefix lives on the
// stack, so framing allocates nothing.
func (sw *shardWriter) writeRecord(payload []byte) error {
	var prefix [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(prefix[:], uint64(len(payload)))
	if _, err := sw.out.Write(prefix[:n]); err != nil {
		return fmt.Errorf("dataset: write shard %s: %w", sw.info.File, err)
	}
	if _, err := sw.out.Write(payload); err != nil {
		return fmt.Errorf("dataset: write shard %s: %w", sw.info.File, err)
	}
	sw.crc.Write(prefix[:n])
	sw.crc.Write(payload)
	frameLen := int64(n) + int64(len(payload))
	sw.info.Records++
	sw.info.Bytes += frameLen
	sw.ctrs.records.Inc()
	sw.ctrs.bytes.Add(frameLen)
	return nil
}

// finish flushes and closes the shard, sealing its CRC. The file is
// closed even when the flush fails.
func (sw *shardWriter) finish() error {
	var err error
	if sw.gz != nil {
		if gerr := sw.gz.Close(); gerr != nil {
			err = fmt.Errorf("dataset: finish shard %s: %w", sw.info.File, gerr)
		}
	}
	if err == nil {
		if ferr := sw.bw.Flush(); ferr != nil {
			err = fmt.Errorf("dataset: flush shard %s: %w", sw.info.File, ferr)
		}
	}
	if cerr := sw.f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("dataset: close shard %s: %w", sw.info.File, cerr)
	}
	sw.info.CRC32 = sw.crc.Sum32()
	return err
}

// shardName renders a shard's file name.
func shardName(kind string, month clock.Month, gzipped bool) string {
	var name string
	switch kind {
	case KindPassive:
		name = "passive-" + month.String() + ".bin"
	case KindActive:
		name = "active.bin"
	case KindTrace:
		name = "trace.bin"
	default:
		name = "aux.bin"
	}
	if gzipped {
		name += ".gz"
	}
	return name
}

// NewWriter creates the dataset directory (if needed) and prepares for
// streaming. It refuses to overwrite an existing dataset.
func NewWriter(dir string, opts Options) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dataset: create %s: %w", dir, err)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err == nil {
		return nil, fmt.Errorf("dataset: %s already holds a dataset (refusing to overwrite)", dir)
	}
	return &Writer{
		dir:    dir,
		opts:   opts,
		ctrs:   newWriteCounters(opts.Telemetry),
		shards: make(map[string]*shardWriter),
	}, nil
}

// AddRun records one capture run's provenance in the manifest.
func (w *Writer) AddRun(r Run) { w.runs = append(w.runs, r) }

// SetHasActive marks that an active snapshot was captured (even if it
// produced zero observations).
func (w *Writer) SetHasActive() { w.active = true }

func (w *Writer) shard(kind string, month clock.Month) (*shardWriter, error) {
	if w.lastShard != nil && kind == w.lastKind && month == w.lastMonth {
		return w.lastShard, nil
	}
	name := shardName(kind, month, w.opts.Gzip)
	sw, ok := w.shards[name]
	if !ok {
		monthStr := ""
		if kind == KindPassive {
			monthStr = month.String()
		}
		var err error
		sw, err = newShardWriter(w.dir, name, kind, monthStr, w.opts.Gzip, w.ctrs)
		if err != nil {
			return nil, err
		}
		w.shards[name] = sw
	}
	w.lastKind, w.lastMonth, w.lastShard = kind, month, sw
	return sw, nil
}

// write frames one encoded record payload into the given shard.
func (w *Writer) write(kind string, month clock.Month, payload []byte) error {
	if w.closed {
		return fmt.Errorf("dataset: write after Close")
	}
	sw, err := w.shard(kind, month)
	if err != nil {
		return err
	}
	return sw.writeRecord(payload)
}

// writeDataset streams ds through the Writer in the dataset's canonical
// section order: passive observations, then revocation events (each
// record landing in its month's shard), the active snapshot, the aux
// sections (probes, downgrades, old versions, interceptions,
// passthroughs, degradations), then the trace spans. It is the only
// code that encodes dataset records, so a whole-run Write and a
// month-by-month Spiller cannot disagree on a shard's record order.
func (w *Writer) writeDataset(ds *Dataset) error {
	w.runs = append(w.runs, ds.Runs...)
	if ds.HasActive {
		w.active = true
	}
	e := getEnc(w.opts.NoPooling)
	defer putEnc(e, w.opts.NoPooling)
	for _, o := range ds.Observations {
		e.reset()
		encodeObservation(e, recObservation, o)
		if err := w.write(KindPassive, o.Month, e.b); err != nil {
			return err
		}
	}
	for _, ev := range ds.Revocations {
		e.reset()
		encodeRevocation(e, ev)
		if err := w.write(KindPassive, clock.MonthOf(ev.Time), e.b); err != nil {
			return err
		}
	}
	for _, o := range ds.ActiveObservations {
		e.reset()
		encodeObservation(e, recActiveObservation, o)
		if err := w.write(KindActive, clock.Month{}, e.b); err != nil {
			return err
		}
	}
	for _, r := range ds.ProbeReports {
		e.reset()
		encodeProbeReport(e, r)
		if err := w.write(KindAux, clock.Month{}, e.b); err != nil {
			return err
		}
	}
	for _, r := range ds.Downgrades {
		e.reset()
		encodeDowngrade(e, r)
		if err := w.write(KindAux, clock.Month{}, e.b); err != nil {
			return err
		}
	}
	for _, r := range ds.OldVersions {
		e.reset()
		encodeOldVersion(e, r)
		if err := w.write(KindAux, clock.Month{}, e.b); err != nil {
			return err
		}
	}
	for _, r := range ds.Interceptions {
		e.reset()
		encodeInterception(e, r)
		if err := w.write(KindAux, clock.Month{}, e.b); err != nil {
			return err
		}
	}
	for _, r := range ds.Passthroughs {
		e.reset()
		encodePassthrough(e, r)
		if err := w.write(KindAux, clock.Month{}, e.b); err != nil {
			return err
		}
	}
	for _, d := range ds.Degradations {
		e.reset()
		encodeDegradation(e, d)
		if err := w.write(KindAux, clock.Month{}, e.b); err != nil {
			return err
		}
	}
	for _, r := range ds.TraceSpans {
		e.reset()
		encodeTraceSpan(e, r)
		if err := w.write(KindTrace, clock.Month{}, e.b); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes every shard and writes the manifest. The Writer is
// unusable afterwards.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	m := &Manifest{
		Schema:    Schema,
		Version:   Version,
		Gzip:      w.opts.Gzip,
		HasActive: w.active,
		Runs:      w.runs,
	}
	var err error
	for _, sw := range w.shards {
		if ferr := sw.finish(); ferr != nil && err == nil {
			err = ferr
		}
		m.Shards = append(m.Shards, sw.info)
	}
	if err != nil {
		return err
	}
	return writeManifest(w.dir, m)
}

// abort closes every open shard file without sealing a manifest: the
// directory stays unreadable as a dataset (readers require the
// manifest), which is the contract for interrupted streaming writes.
func (w *Writer) abort() {
	if w.closed {
		return
	}
	w.closed = true
	for _, sw := range w.shards {
		_ = sw.finish()
	}
}

// Write persists a whole in-memory Dataset to dir by streaming it
// through a Writer, so the directory is byte-identical to a Spiller's
// for the same run. On any error the Writer is aborted: no manifest is
// written and the directory is not a readable dataset.
func Write(dir string, ds *Dataset, opts Options) (err error) {
	span := opts.Telemetry.StartSpan("dataset.write")
	defer func() { span.EndErr(err) }()
	w, err := NewWriter(dir, opts)
	if err != nil {
		return err
	}
	if err := w.writeDataset(ds); err != nil {
		w.abort()
		return err
	}
	return w.Close()
}
