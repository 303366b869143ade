package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// workload is one benchmark input. Its methods run on the benchmark's
// goroutine; a pass that starts goroutines waits for them before it
// returns.
type workload interface {
	// setup makes the public set-up calls a pass depends on, keeps what
	// they built, and returns the host time of those calls alone.
	setup(tr *tracer) (time.Duration, error)
	// dropSetup releases what setup built that the passes do not use.
	dropSetup()
	// pass runs the workload once and verifies its output. With a
	// non-nil tracer it also records spans and per-layer counts.
	pass(tr *tracer) (passResult, error)
	// probe makes the traced run's direct timed calls into layers the
	// workload's entry points hide, and returns ledger values by name.
	probe(tr *tracer) (map[string]float64, error)
	close()
}

// passResult is the verified outcome of one pass.
type passResult struct {
	units, failed int
	failures      []string
	latencies     []time.Duration // one per call a user waits on
	// fingerprint renders the pass's exact outputs; passes with the same
	// inputs must produce the same fingerprint, traced or not.
	fingerprint string
	// counts are per-layer counts summed over the pass.
	counts map[string]float64
}

func (p *passResult) fail(units int, format string, args ...any) {
	p.failed += units
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

func (p *passResult) count(name string, v float64) {
	if p.counts == nil {
		p.counts = map[string]float64{}
	}
	p.counts[name] += v
}

// minPasses is the fewest measured passes a run makes, whatever its
// budget.
const minPasses = 3

// Set-up is repeated until setupBudget has been spent or maxSetups runs
// were made, and reported as the median.
const (
	setupBudget = 1500 * time.Millisecond
	maxSetups   = 200
	minSetups   = 3
)

// runStats collects the measurements of one phase of a run.
type runStats struct {
	passes            int
	attempted, failed int
	failures          []string
	walls             []float64          // host seconds per pass
	allocs            []float64          // bytes allocated per pass
	gcs               []float64          // GC cycles per pass
	latencies         []float64          // microseconds per waited-on call
	counts            map[string]float64 // per-layer counts summed over passes
}

func (s *runStats) add(p passResult, wall time.Duration, alloc uint64, gcs uint32) {
	s.passes++
	s.attempted += p.units
	s.failed += p.failed
	s.failures = append(s.failures, p.failures...)
	s.walls = append(s.walls, wall.Seconds())
	s.allocs = append(s.allocs, float64(alloc))
	s.gcs = append(s.gcs, float64(gcs))
	for _, l := range p.latencies {
		s.latencies = append(s.latencies, float64(l)/float64(time.Microsecond))
	}
	if s.counts == nil {
		s.counts = map[string]float64{}
	}
	for k, v := range p.counts {
		s.counts[k] += v
	}
}

// measureSetup repeats the workload's set-up back to back, after one
// collection, and returns the median set-up time and the live heap after
// the last set-up, taken after a collection while the set-up's result is
// still referenced.
func measureSetup(w workload, tr *tracer) (setupS, heapMB float64, n int, err error) {
	var times []float64
	var spent time.Duration
	runtime.GC()
	for len(times) < minSetups || (spent < setupBudget && len(times) < maxSetups) {
		w.dropSetup()
		d, err := w.setup(tr)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, d.Seconds())
		spent += d
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.dropSetup()
	return median(times), float64(ms.HeapAlloc) / 1e6, len(times), nil
}

// measurePasses runs passes until budget has elapsed (and at least
// minPasses ran), checking each fingerprint against ref.
func measurePasses(w workload, ref string, budget time.Duration, tr *tracer, s *runStats) error {
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start) < budget; n++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		end := tr.span("pass")
		t0 := time.Now()
		p, err := w.pass(tr)
		wall := time.Since(t0)
		end()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		if p.fingerprint != ref {
			kind := "pass"
			if tr != nil {
				kind = "traced pass"
			}
			p.fail(p.units-p.failed, "%s %d: exact outputs differ from the untraced first pass", kind, n+1)
		}
		s.add(p, wall, m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC)
	}
	return nil
}

// warmUp runs the first pass, which fills caches and lazy set-up and
// gives the fingerprint every later pass must reproduce. Its output is
// verified and counted, but not timed.
func warmUp(w workload, s *runStats) (string, error) {
	p, err := w.pass(nil)
	if err != nil {
		return "", err
	}
	s.attempted += p.units
	s.failed += p.failed
	s.failures = append(s.failures, p.failures...)
	return p.fingerprint, nil
}

// runUntraced measures the end-to-end metrics.
func runUntraced(w workload, budget time.Duration) (*result, error) {
	setupS, heapMB, setups, err := measureSetup(w, nil)
	if err != nil {
		return nil, err
	}
	var s runStats
	start := time.Now()
	ref, err := warmUp(w, &s)
	if err != nil {
		return nil, err
	}
	if err := measurePasses(w, ref, budget, nil, &s); err != nil {
		return nil, err
	}
	r := &result{
		passes:    s.passes,
		elapsed:   time.Since(start),
		attempted: s.attempted,
		failed:    s.failed,
		failures:  s.failures,
		metrics:   endToEnd,
		values: map[string]float64{
			"setup_s":        setupS,
			"wall_s":         median(s.walls),
			"alloc_mb":       median(s.allocs) / 1e6,
			"setup_heap_mb":  heapMB,
			"latency_us_p50": percentile(s.latencies, 50),
		},
	}
	r.notes = append(r.notes,
		fmt.Sprintf("samples: %d set-ups, %d passes, %d latency samples", setups, s.passes, len(s.latencies)),
		fmt.Sprintf("latency_us_p99: %.6g us (nearest rank; the slowest call below 100 samples)", percentile(s.latencies, 99)),
		fmt.Sprintf("wall_s quartiles: %.6g / %.6g / %.6g s", percentile(s.walls, 25), median(s.walls), percentile(s.walls, 75)),
		fmt.Sprintf("fail_ratio: %.6g (%d of %d units)", ratio(float64(s.failed), float64(s.attempted)), s.failed, s.attempted))
	wall := sum(s.walls)
	if events := s.counts["des.events"]; events > 0 {
		r.notes = append(r.notes, fmt.Sprintf("events_per_s: %.6g simulated events per host second", events/wall))
	} else {
		r.notes = append(r.notes, fmt.Sprintf("tasks_per_s: %.6g tasks per host second", float64(len(s.latencies))/wall))
	}
	return r, nil
}

// runTraced measures the per-layer ledger. Half the budget runs untraced
// passes, half runs traced passes under the CPU profiler; every pass must
// reproduce the untraced warm-up pass's exact outputs, so tracing can be
// shown not to perturb the model.
func runTraced(w workload, budget time.Duration, outDir string) (*result, error) {
	tr := newTracer()
	if _, _, _, err := measureSetup(w, tr); err != nil {
		return nil, err
	}
	var u, t runStats
	start := time.Now()
	ref, err := warmUp(w, &u)
	if err != nil {
		return nil, err
	}
	if err := measurePasses(w, ref, budget/2, nil, &u); err != nil {
		return nil, err
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(outDir, "cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	err = measurePasses(w, ref, budget/2, tr, &t)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	probes, err := w.probe(tr)
	if err != nil {
		return nil, err
	}
	shares, samples, err := foldProfile(profPath)
	if err != nil {
		return nil, err
	}

	v := ledger(t.counts, float64(t.passes))
	for k, x := range probes {
		v[k] = x
	}
	for k, x := range shares {
		v["cpu."+k] = x
	}
	v["sim.new_system_ms"] = tr.mean("sim.NewSystem") * 1e3
	v["obs.snapshot_ms"] = tr.mean("Telemetry.Snapshot") * 1e3
	v["core.go_us"] = tr.mean("Orchestrator.Go") * 1e6
	v["core.wait_us"] = tr.mean("Handle.Wait") * 1e6
	v["go.gc_cycles"] = median(u.gcs)
	v["go.alloc_b_per_event"] = ratio(sum(u.allocs), u.counts["des.events"])
	v["bench.trace_overhead_s"] = median(t.walls) - median(u.walls)

	r := &result{
		passes:    u.passes + t.passes,
		elapsed:   time.Since(start),
		attempted: u.attempted + t.attempted,
		failed:    u.failed + t.failed,
		failures:  append(u.failures, t.failures...),
		metrics:   perLayer,
		values:    v,
	}
	r.notes = append(r.notes,
		fmt.Sprintf("wall_s untraced %.6g s (%d passes), traced %.6g s (%d passes)", median(u.walls), u.passes, median(t.walls), t.passes),
		fmt.Sprintf("cpu profile: %d samples", samples))
	r.notes = append(r.notes, tr.table()...)
	return r, nil
}

// ledger turns the counts summed over the traced passes into per-pass
// counts and ratios.
func ledger(c map[string]float64, passes float64) map[string]float64 {
	v := map[string]float64{}
	for _, k := range []string{
		"des.events", "workload.globals", "workload.locals",
		"node.served", "node.aborted", "node.crashes",
		"trace.events", "scenario.oracle_checks", "scenario.violations",
		"obs.spans", "obs.spans_dropped", "obs.edges",
		"core.steps_served", "core.steps_dropped",
	} {
		v[k] = c[k] / passes
	}
	v["des.cancel_ratio"] = ratio(c["des.cancelled"], c["des.scheduled"])
	v["des.pool_hit_rate"] = ratio(c["des.pool_hits"], c["des.scheduled"])
	v["node.useful_ratio"] = ratio(c["node.served"], c["node.served"]+c["node.aborted"])
	v["node.mean_queue_len"] = ratio(c["rep.mean_queue_len"], c["rep.count"])
	v["procmgr.missed_work"] = ratio(c["rep.missed_work"], c["rep.count"])
	return v
}

// tracer records spans around the benchmark's calls into the program. A
// nil *tracer records nothing. It is used from one goroutine.
type tracer struct {
	open  []openSpan
	spans map[string]*spanStat
}

type openSpan struct {
	name  string
	start time.Time
	child time.Duration // time covered by finished child spans
}

type spanStat struct {
	n           int
	total, self time.Duration
}

func newTracer() *tracer { return &tracer{spans: map[string]*spanStat{}} }

func noEnd() {}

// span opens a span and returns the function that closes it. Spans nest:
// a span's self time excludes the spans opened inside it.
func (t *tracer) span(name string) func() {
	if t == nil {
		return noEnd
	}
	t.open = append(t.open, openSpan{name: name, start: time.Now()})
	return func() {
		s := t.open[len(t.open)-1]
		d := time.Since(s.start)
		t.open = t.open[:len(t.open)-1]
		if len(t.open) > 0 {
			t.open[len(t.open)-1].child += d
		}
		t.record(s.name, 1, d, d-s.child)
	}
}

// record adds n finished spans of total duration (self of it not covered
// by children) measured elsewhere, such as on the live clients'
// goroutines.
func (t *tracer) record(name string, n int, total, self time.Duration) {
	if t == nil {
		return
	}
	s := t.spans[name]
	if s == nil {
		s = &spanStat{}
		t.spans[name] = s
	}
	s.n += n
	s.total += total
	s.self += self
}

// mean returns the mean duration of the named span in seconds, or 0.
func (t *tracer) mean(name string) float64 {
	s := t.spans[name]
	if s == nil || s.n == 0 {
		return 0
	}
	return s.total.Seconds() / float64(s.n)
}

// table renders the spans for the report.
func (t *tracer) table() []string {
	lines := []string{fmt.Sprintf("%-24s %9s %12s %12s %12s", "span", "calls", "total_ms", "self_ms", "mean_us")}
	names := make([]string, 0, len(t.spans))
	for name := range t.spans {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := t.spans[name]
		lines = append(lines, fmt.Sprintf("%-24s %9d %12.3f %12.3f %12.3f", name, s.n,
			s.total.Seconds()*1e3, s.self.Seconds()*1e3, s.total.Seconds()*1e6/float64(s.n)))
	}
	return lines
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <=
// 100), or 0 for no samples. It does not modify xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the nearest-rank 50th percentile: a measured sample, never an
// average of two.
func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
