package obs_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// budgets are the retention budgets the eviction tests run under: far
// below the span count, one entry, and sizes on both sides of the
// store's 1024-entry chunk (1000 and 1500 are not chunk multiples).
var budgets = []int{16, 1, 1000, 1024, 1025, 1500}

// latenessSeries is the exposition of the series fed at span close.
func latenessSeries(t *testing.T, tel *obs.Telemetry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tel.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var keep []string
	for _, line := range strings.Split(buf.String(), "\n") {
		for _, name := range []string{"sda_span_lateness", "sda_lateness_quantiles", "sda_latency_quantiles"} {
			if strings.HasPrefix(line, name) {
				keep = append(keep, line)
			}
		}
	}
	return strings.Join(keep, "\n")
}

// TestRingKeepsLatestSpans pins the retention policy: under a budget far
// below the span and edge counts, the stores keep the *latest* spans and
// edges, oldest first, exactly as an unbounded run recorded them;
// evictions are counted exactly; and open spans pushed out of the ring
// still feed the lateness series at close.
func TestRingKeepsLatestSpans(t *testing.T) {
	cfg := smallConfig()
	cfg.Obs = obs.Options{Enabled: true}
	_, full := runObserved(t, cfg, 3)
	allSpans, allEdges := full.Spans(), full.Edges()
	total := full.TotalSpans()
	if full.DroppedSpans() != 0 || total != uint64(len(allSpans)) {
		t.Fatalf("reference run evicted spans: %d of %d retained", len(allSpans), total)
	}
	for _, budget := range budgets {
		cfg.Obs = obs.Options{Enabled: true, MaxSpans: budget}
		_, tel := runObserved(t, cfg, 3)

		spans := tel.Spans()
		if len(spans) != budget {
			t.Fatalf("budget %d: retained %d spans", budget, len(spans))
		}
		if tel.TotalSpans() != total || total <= uint64(budget) {
			t.Fatalf("budget %d: %d spans recorded, reference %d", budget, tel.TotalSpans(), total)
		}
		if got := tel.DroppedSpans(); got != total-uint64(budget) {
			t.Fatalf("budget %d: dropped %d spans, want total-retained = %d", budget, got, total-uint64(budget))
		}
		// Keep-latest: retained ids are exactly the top of the id space,
		// in release order, and each span is the reference run's.
		for i, rec := range spans {
			if want := total - uint64(budget) + uint64(i) + 1; rec.ID != want {
				t.Fatalf("budget %d: span %d: id %d, want %d (latest-span retention)", budget, i, rec.ID, want)
			}
		}
		if !reflect.DeepEqual(spans, allSpans[len(allSpans)-budget:]) {
			t.Fatalf("budget %d: retained spans differ from the reference run's latest", budget)
		}

		edges := tel.Edges()
		if len(allEdges) <= budget || len(edges) != budget {
			t.Fatalf("budget %d: retained %d of %d edges", budget, len(edges), len(allEdges))
		}
		if !reflect.DeepEqual(edges, allEdges[len(allEdges)-budget:]) {
			t.Fatalf("budget %d: retained edges differ from the reference run's latest", budget)
		}
		if got, want := tel.DroppedEdges()-full.DroppedEdges(), uint64(len(allEdges)-budget); got != want {
			t.Fatalf("budget %d: %d edges evicted, want %d", budget, got, want)
		}

		if got, want := latenessSeries(t, tel), latenessSeries(t, full); got != want {
			t.Fatalf("budget %d: lateness series depend on eviction:\n%s\nwant:\n%s", budget, got, want)
		}
	}
}

// TestGlobalCountsSurviveEviction checks that outcome accounting reads
// counters, not the span ring, so it is identical under any retention
// budget.
func TestGlobalCountsSurviveEviction(t *testing.T) {
	run := func(maxSpans int) (resolved, missed int) {
		cfg := smallConfig()
		cfg.Obs = obs.Options{Enabled: true, MaxSpans: maxSpans}
		_, tel := runObserved(t, cfg, 9)
		return tel.GlobalCounts()
	}
	rBig, mBig := run(1 << 16)
	if rBig == 0 {
		t.Fatalf("no globals resolved")
	}
	for _, budget := range append([]int{8}, budgets...) {
		if r, m := run(budget); r != rBig || m != mBig {
			t.Fatalf("global counts changed with retention budget %d: (%d,%d) vs (%d,%d)",
				budget, rBig, mBig, r, m)
		}
	}
}

// TestExemplarsSurviveEviction checks the exemplar invariants: bounded
// size, deterministic selection independent of the ring budget, and
// worst-lateness members really are the maxima of the retained class.
func TestExemplarsSurviveEviction(t *testing.T) {
	run := func(maxSpans int) (*obs.Telemetry, []obs.Record) {
		cfg := smallConfig()
		cfg.Obs = obs.Options{Enabled: true, MaxSpans: maxSpans, ExemplarK: 4}
		_, tel := runObserved(t, cfg, 3)
		return tel, tel.Exemplars()
	}
	_, tight := run(8)
	_, loose := run(1 << 16)
	if len(tight) == 0 {
		t.Fatalf("no exemplars retained")
	}
	// Exemplar selection sees every closed span regardless of ring
	// eviction, so the sets must be identical.
	if !reflect.DeepEqual(tight, loose) {
		t.Fatalf("exemplar selection depends on the ring budget:\ntight: %v\nloose: %v", tight, loose)
	}
	for _, budget := range budgets {
		if _, ex := run(budget); !reflect.DeepEqual(ex, loose) {
			t.Fatalf("exemplar selection depends on the ring budget %d", budget)
		}
	}
	// Bounded: at most 4 kinds x 2 classes x K.
	if len(tight) > 4*2*4 {
		t.Fatalf("exemplar set exceeds budget: %d records", len(tight))
	}
	// Exemplars must be closed spans and duplicate-free within a class
	// (dedup key rep+id appears at most twice: once per class).
	seen := map[uint64]int{}
	for _, rec := range tight {
		if rec.End == nil {
			t.Fatalf("open span %d retained as exemplar", rec.ID)
		}
		seen[rec.ID]++
		if seen[rec.ID] > 2 {
			t.Fatalf("span %d appears %d times across 2 classes", rec.ID, seen[rec.ID])
		}
	}
}

// TestExemplarSeedChangesOnlyTies checks that the seed is a tie-break:
// with distinct latenesses the selection is seed-independent, and any
// seed yields a deterministic set.
func TestExemplarSeedChangesOnlyTies(t *testing.T) {
	run := func(seed uint64) []obs.Record {
		cfg := smallConfig()
		cfg.Obs = obs.Options{Enabled: true, ExemplarSeed: seed, ExemplarK: 4}
		_, tel := runObserved(t, cfg, 3)
		return tel.Exemplars()
	}
	a1, a2 := run(1), run(1)
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("exemplar selection not deterministic at fixed seed")
	}
}

func runObservedSys(t *testing.T, cfg sim.Config, seed uint64) *sim.System {
	t.Helper()
	sys, err := sim.NewSystem(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	sys.Finish(sys.Horizon())
	return sys
}
