package dataset_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/report"
)

// runFull drives the complete study at the given parallelism,
// optionally with a fault plan armed.
func runFull(t *testing.T, parallelism int, plan *fault.Plan) (*core.Study, *core.Report) {
	t.Helper()
	s := core.NewStudy()
	s.Parallelism = parallelism
	if plan != nil {
		s.SetFaultPlan(plan)
	}
	rep, err := s.RunAll()
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	return s, rep
}

// roundTrip persists the run, reads it back, and restores it into a
// fresh study scaffold.
func roundTrip(t *testing.T, s *core.Study, rep *core.Report, gz bool) (*core.Study, *core.Report) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ds")
	ds := dataset.FromStudy(s, rep)
	if err := dataset.Write(dir, ds, dataset.Options{Gzip: gz}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := dataset.Read(dir, nil)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	s2 := core.NewStudy()
	rep2, err := dataset.Restore(s2, got)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	return s2, rep2
}

// artifactFiles renders the per-artifact report files and returns
// their contents keyed by file name.
func artifactFiles(t *testing.T, s *core.Study, rep *core.Report) map[string]string {
	t.Helper()
	dir := t.TempDir()
	files, err := report.Write(dir, s, rep)
	if err != nil {
		t.Fatalf("report.Write: %v", err)
	}
	out := make(map[string]string, len(files))
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(dir, filepath.Base(f)))
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(f)] = string(raw)
	}
	return out
}

// TestRoundTripByteIdentical is the subsystem's core contract: for the
// same seed, capture → persist → read → restore renders every artifact
// byte-identical to the in-memory run — at parallelism 1 and 8, with
// and without gzip, and under an armed fault plan.
func TestRoundTripByteIdentical(t *testing.T) {
	cases := []struct {
		name        string
		parallelism int
		gzip        bool
		plan        func() *fault.Plan
	}{
		{name: "sequential", parallelism: 1},
		{name: "parallel8", parallelism: 8},
		{name: "parallel8_gzip", parallelism: 8, gzip: true},
		{name: "faults_aggressive", parallelism: 8, plan: func() *fault.Plan {
			return fault.NewPlan(7, fault.Profiles["aggressive"])
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var plan *fault.Plan
			if tc.plan != nil {
				plan = tc.plan()
			}
			s, rep := runFull(t, tc.parallelism, plan)
			want := rep.Render(s)
			wantFiles := artifactFiles(t, s, rep)

			s2, rep2 := roundTrip(t, s, rep, tc.gzip)
			if got := rep2.Render(s2); got != want {
				t.Errorf("restored render differs from in-memory render (%d vs %d bytes)", len(got), len(want))
			}
			gotFiles := artifactFiles(t, s2, rep2)
			if len(gotFiles) != len(wantFiles) {
				t.Fatalf("restored run wrote %d artifact files, want %d", len(gotFiles), len(wantFiles))
			}
			for name, want := range wantFiles {
				if gotFiles[name] != want {
					t.Errorf("artifact %s differs after round trip", name)
				}
			}
			if rep2.Degraded() != rep.Degraded() {
				t.Errorf("Degraded() = %v after round trip, want %v", rep2.Degraded(), rep.Degraded())
			}
		})
	}
}

// streamCapture runs the full study with the month-spill streaming
// path armed, persisting into dir as each passive month completes.
func streamCapture(t *testing.T, parallelism int, dir string, opts dataset.Options) {
	t.Helper()
	s := core.NewStudy()
	s.Parallelism = parallelism
	sp, err := dataset.NewSpiller(dir, s, opts)
	if err != nil {
		t.Fatalf("NewSpiller: %v", err)
	}
	rep, err := s.RunAll()
	if err != nil {
		sp.Abort()
		t.Fatalf("RunAll: %v", err)
	}
	if err := sp.Finish(rep); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if sp.Spilled() == 0 {
		t.Fatal("streaming run spilled no passive records")
	}
}

// TestStreamingSpillByteIdentical pins the memory-bounded engine's
// contract: streaming each completed month to disk at the month
// barrier produces a dataset directory byte-identical to a whole-run
// FromStudy+Write — every shard and the manifest — at
// parallelism 1 and 8 and with gzip-compressed shards, and the streamed
// dataset restores to the same rendered artifacts as the in-memory run.
func TestStreamingSpillByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		par  int
		opts dataset.Options
	}{
		{"sequential", 1, dataset.Options{}},
		{"parallel8", 8, dataset.Options{}},
		{"sequential_gzip", 1, dataset.Options{Gzip: true}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			base := t.TempDir()

			s, rep := runFull(t, tc.par, nil)
			bulkDir := filepath.Join(base, "bulk")
			if err := dataset.Write(bulkDir, dataset.FromStudy(s, rep), tc.opts); err != nil {
				t.Fatalf("Write: %v", err)
			}

			streamDir := filepath.Join(base, "stream")
			streamCapture(t, tc.par, streamDir, tc.opts)

			want := readDirFiles(t, bulkDir)
			got := readDirFiles(t, streamDir)
			if len(got) != len(want) {
				t.Fatalf("streamed dataset has %d files, bulk has %d", len(got), len(want))
			}
			for name, w := range want {
				g, ok := got[name]
				if !ok {
					t.Errorf("streamed dataset missing file %s", name)
					continue
				}
				if string(g) != string(w) {
					t.Errorf("file %s differs between streamed and bulk datasets (%d vs %d bytes)", name, len(g), len(w))
				}
			}

			// The streamed dataset restores to the same report and the
			// same artifact files as the in-memory run.
			ds, err := dataset.Read(streamDir, nil)
			if err != nil {
				t.Fatalf("Read(streamed): %v", err)
			}
			s2 := core.NewStudy()
			rep2, err := dataset.Restore(s2, ds)
			if err != nil {
				t.Fatalf("Restore(streamed): %v", err)
			}
			if gotR, wantR := rep2.Render(s2), rep.Render(s); gotR != wantR {
				t.Errorf("restored streamed render differs from in-memory render (%d vs %d bytes)", len(gotR), len(wantR))
			}
			gotFiles := artifactFiles(t, s2, rep2)
			wantFiles := artifactFiles(t, s, rep)
			if len(gotFiles) != len(wantFiles) {
				t.Fatalf("streamed restore wrote %d artifact files, want %d", len(gotFiles), len(wantFiles))
			}
			for name, w := range wantFiles {
				if gotFiles[name] != w {
					t.Errorf("artifact %s differs after streamed round trip", name)
				}
			}
		})
	}
}

// TestWriterRefusesOverwrite pins that a capture cannot clobber an
// existing dataset directory.
func TestWriterRefusesOverwrite(t *testing.T) {
	t.Parallel()
	dir := filepath.Join(t.TempDir(), "ds")
	w, err := dataset.NewWriter(dir, dataset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := dataset.NewWriter(dir, dataset.Options{}); err == nil {
		t.Fatal("NewWriter over an existing dataset succeeded, want refusal")
	}
}

// readDirFiles loads every regular file in dir keyed by name.
func readDirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = raw
	}
	return out
}

// TestPoolingByteIdenticalOutput pins that encode-buffer pooling is
// invisible on disk: the same dataset written with pooled encoders and
// with freshly allocated buffers produces byte-identical shard files
// and manifests.
func TestPoolingByteIdenticalOutput(t *testing.T) {
	t.Parallel()
	s, rep := runFull(t, 8, nil)
	ds := dataset.FromStudy(s, rep)
	base := t.TempDir()

	pooled := filepath.Join(base, "pooled")
	fresh := filepath.Join(base, "fresh")
	if err := dataset.Write(pooled, ds, dataset.Options{}); err != nil {
		t.Fatalf("Write pooled: %v", err)
	}
	if err := dataset.Write(fresh, ds, dataset.Options{NoPooling: true}); err != nil {
		t.Fatalf("Write unpooled: %v", err)
	}

	want := readDirFiles(t, pooled)
	got := readDirFiles(t, fresh)
	if len(got) != len(want) {
		t.Fatalf("pooled wrote %d files, unpooled %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("unpooled run missing file %s", name)
		}
		if string(g) != string(w) {
			t.Errorf("file %s differs between pooled and unpooled writes (%d vs %d bytes)", name, len(w), len(g))
		}
	}
}
