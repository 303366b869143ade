package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// small keeps every workload to a fraction of a second per pass.
var small = sizes{table1Reps: 2, table1Duration: 2000, fleetScale: 100, goldenRepeats: 1, liveTasks: 50}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, tc := range []struct{ p, want float64 }{
		{1, 1}, {10, 1}, {25, 3}, {50, 5}, {75, 8}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := median([]float64{4}); got != 4 {
		t.Errorf("median of one sample = %v, want 4", got)
	}
}

// syntheticTraces is `pprof -traces` output in the toolchain's format:
// one record per stack, innermost frame first.
const syntheticTraces = `File: perfbench
Type: cpu
Duration: 1s, Total samples = 1.60s (160.00%)
-----------+-------------------------------------------------------
      10ms   crypto/internal/fips140/sha256.blockSHANI
             crypto/sha256.Sum256
             repro/internal/trace.(*Tracer).Hash
             repro/internal/scenario.runWith
             main.(*golden).pass
-----------+-------------------------------------------------------
      20ms   runtime.mallocgc
             runtime.growslice (inline)
             repro/internal/des.(*Engine).alloc (inline)
             repro/internal/des.(*Engine).AtCall
             repro/internal/node.(*Node).Submit
-----------+-------------------------------------------------------
     1.50s   strconv.AppendFloat
             repro/internal/obs/tracetree.Build (inline)
             repro/internal/scenario.runWith
-----------+-------------------------------------------------------
      30ms   runtime.gcBgMarkWorker
             runtime.goexit
-----------+-------------------------------------------------------
      10ms   math/rand.(*rngSource).Seed
             repro/internal/rng.NewStream
-----------+-------------------------------------------------------
      10ms   sort.Float64s
             main.percentile
             main.runUntraced
-----------+-------------------------------------------------------
      20ms   repro/internal/stats.MeanCI
             repro/internal/sim.Run
-----------+-------------------------------------------------------
`

func TestFoldTraces(t *testing.T) {
	shares, samples, err := foldTraces(strings.NewReader(syntheticTraces))
	if err != nil {
		t.Fatal(err)
	}
	if samples != 7 {
		t.Errorf("samples = %d, want 7", samples)
	}
	// Each record's time goes to the innermost frame of this repository;
	// the standard library frames above it count against that module.
	want := map[string]float64{
		"trace": 10, "des": 20, "obs": 1500, "gc": 30, "rng": 10, "bench": 10, "other": 20,
	}
	for m, ms := range want {
		if got := shares[m]; math.Abs(got-ms/1600) > 1e-12 {
			t.Errorf("share[%s] = %v, want %v", m, got, ms/1600)
		}
	}
	if len(shares) != len(want) {
		t.Errorf("shares = %v, want modules %v", shares, want)
	}
}

func TestFoldTracesRejectsBadInput(t *testing.T) {
	for _, in := range []string{
		"",
		"File: x\n-----------+---\n",
		"-----------+---\n   tenms   main.main\n",
	} {
		if _, _, err := foldTraces(strings.NewReader(in)); err == nil {
			t.Errorf("foldTraces(%q) succeeded", in)
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/des.(*Engine).Run":            "des",
		"repro/internal/obs/tracetree.Build":          "obs",
		"repro/internal/workload.FixedParallel.New":   "workload",
		"repro/internal/par.Map.func1":                "other",
		"repro.Simulate":                              "other",
		"main.(*live).runClient":                      "bench",
		"runtime.mallocgc":                            "",
		"crypto/sha256.Sum256":                        "",
		"repro/internal/sda.Div.AssignParallel[...]":  "sda",
		"repro/internal/procmgr.(*Manager).release.1": "procmgr",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the
// workloads and metrics this program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	check := func(kind string, got []entry, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d] = %s (%s), want %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// TestShortRunsRepeat runs each sim workload at a short scale twice
// untraced and once traced: all three passes must verify and give the
// same exact counts.
func TestShortRunsRepeat(t *testing.T) {
	exact := []string{"des.events", "workload.globals", "workload.locals", "trace.events", "scenario.oracle_checks"}
	for _, name := range []string{"table1", "fleet-10k", "golden"} {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, "..", 7, small)
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			if _, err := w.setup(nil); err != nil {
				t.Fatal(err)
			}
			var passes []passResult
			for _, tr := range []*tracer{nil, nil, newTracer()} {
				p, err := w.pass(tr)
				if err != nil {
					t.Fatal(err)
				}
				if p.failed != 0 || p.units == 0 {
					t.Fatalf("pass verified %d units with %d failed: %v", p.units, p.failed, p.failures)
				}
				passes = append(passes, p)
			}
			for i, p := range passes[1:] {
				if p.fingerprint != passes[0].fingerprint {
					t.Errorf("pass %d: exact outputs differ from the first pass", i+2)
				}
				for _, k := range exact {
					if p.counts[k] != passes[0].counts[k] {
						t.Errorf("pass %d: %s = %v, first pass %v", i+2, k, p.counts[k], passes[0].counts[k])
					}
				}
			}
			if passes[0].counts["des.events"] == 0 {
				t.Error("no simulated events counted")
			}
			if passes[2].counts["des.scheduled"] == 0 {
				t.Error("traced pass recorded no flight counts")
			}
		})
	}
}

func TestLivePass(t *testing.T) {
	w, err := newWorkload("live", "..", 7, small)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if _, err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	p, err := w.pass(newTracer())
	if err != nil {
		t.Fatal(err)
	}
	tasks := liveClients * small.liveTasks
	if p.units != tasks || p.failed != 0 || len(p.latencies) != tasks {
		t.Fatalf("pass: %d units, %d failed, %d latencies; want %d tasks, none failed: %v",
			p.units, p.failed, len(p.latencies), tasks, p.failures)
	}
	if got := p.counts["core.steps_served"]; got != float64(5*tasks) {
		t.Errorf("steps served = %v, want %d", got, 5*tasks)
	}
}

// TestRunPrintsEveryMetric runs the command itself: the untraced run
// must end with a JSON line holding every end-to-end metric, the traced
// run (which folds a real CPU profile with go tool pprof) every
// per-layer metric.
func TestRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full-size live workload")
	}
	for _, tc := range []struct {
		trace string
		want  []metric
	}{{"0", endToEnd}, {"1", perLayer}} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "live", "--seconds", "1", "--trace", tc.trace, "--root", "..", "--out", t.TempDir()}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", tc.trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var last struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("trace %s: last line: %v", tc.trace, err)
		}
		if !last.Correct || last.Attempted == 0 || last.Failed != 0 || len(last.Metrics) != len(tc.want) {
			t.Fatalf("trace %s: result %+v", tc.trace, last)
		}
		for _, m := range tc.want {
			if got, ok := last.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", tc.trace, m.name, got, m.unit)
			}
		}
		if tc.trace == "1" && last.Metrics["cpu.core"].Value == 0 {
			t.Error("traced live run charged no CPU to core")
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "live", "--trace", "2"},
		{"--workload", "live", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want 2 and no result", args, code, stdout.String())
		}
	}
}
