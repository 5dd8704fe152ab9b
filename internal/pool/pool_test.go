package pool

import (
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/trace"
)

// TestRunEveryItemOnce pins the dispatch contract: every item in
// [0, items) runs exactly once and every worker index stays below
// min(Parallelism(p), items), at any parallelism.
func TestRunEveryItemOnce(t *testing.T) {
	for _, tc := range []struct{ par, items int }{
		{0, 100}, {1, 7}, {2, 1}, {3, 2}, {8, 100}, {8, 3}, {4, 0},
	} {
		limit := Parallelism(tc.par)
		if limit > tc.items {
			limit = tc.items
		}
		counts := make([]atomic.Int32, tc.items)
		var badWorker atomic.Int32
		badWorker.Store(-1)
		Run(tc.par, tc.items, func(worker, item int) {
			if worker < 0 || worker >= limit {
				badWorker.Store(int32(worker))
			}
			counts[item].Add(1)
		})
		if w := badWorker.Load(); w >= 0 {
			t.Errorf("par=%d items=%d: worker index %d outside [0, %d)", tc.par, tc.items, w, limit)
		}
		for i := range counts {
			if n := counts[i].Load(); n != 1 {
				t.Errorf("par=%d items=%d: item %d ran %d times, want 1", tc.par, tc.items, i, n)
			}
		}
	}
}

// TestRunInline pins the sequential path: one worker, or one item,
// runs fn on the calling goroutine in item order as worker 0 — so the
// unsynchronised appends below are safe and ordered.
func TestRunInline(t *testing.T) {
	for _, tc := range []struct{ par, items int }{{1, 5}, {8, 1}} {
		var order, workers []int
		Run(tc.par, tc.items, func(worker, item int) {
			order = append(order, item)
			workers = append(workers, worker)
		})
		if len(order) != tc.items {
			t.Fatalf("par=%d items=%d: ran %d items", tc.par, tc.items, len(order))
		}
		for i := range order {
			if order[i] != i || workers[i] != 0 {
				t.Errorf("par=%d items=%d: call %d ran item %d on worker %d, want item %d on worker 0",
					tc.par, tc.items, i, order[i], workers[i], i)
			}
		}
	}
}

// spanRecords runs RunSpans over items under a fresh tracer, checks
// that each item's span took the item index as its ordinal, and returns
// the recorded tree in canonical order.
func spanRecords(t *testing.T, par, items int) []trace.SpanRecord {
	t.Helper()
	tr := trace.New(nil, 1)
	root := tr.Root("pool", "test")
	RunSpans(par, items, root, "item", strconv.Itoa, func(_, _ int, _ *trace.Span) {})
	root.End("ok")
	recs := tr.Spans()
	for _, r := range recs {
		if r.Name != "item" {
			continue
		}
		if r.Detail != strconv.FormatUint(r.Ordinal, 10) || r.Status != "ok" {
			t.Errorf("par=%d: span %q has ordinal %d status %q, want ordinal = item index and ok", par, r.Detail, r.Ordinal, r.Status)
		}
	}
	return recs
}

// TestRunSpansDeterministic pins that each item's child span takes the
// item index as its ordinal, so the recorded span tree is identical at
// parallelism 1 and 8.
func TestRunSpansDeterministic(t *testing.T) {
	const items = 20
	seq := spanRecords(t, 1, items)
	par := spanRecords(t, 8, items)
	if len(seq) != items+1 {
		t.Fatalf("recorded %d spans, want %d (root + one per item)", len(seq), items+1)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("span records differ between parallelism 1 and 8")
	}
}

// TestRunSpansNilParent pins that a nil parent traces nothing: fn runs
// for every item with a nil span.
func TestRunSpansNilParent(t *testing.T) {
	var ran, traced atomic.Int32
	RunSpans(4, 10, nil, "item", func(int) string { return "" }, func(_, _ int, sp *trace.Span) {
		ran.Add(1)
		if sp != nil {
			traced.Add(1)
		}
	})
	if ran.Load() != 10 || traced.Load() != 0 {
		t.Fatalf("ran %d items with %d non-nil spans, want 10 and 0", ran.Load(), traced.Load())
	}
}
