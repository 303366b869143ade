// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload of the simulator or of the live runtime for a fixed host time,
// verifies the output of every pass, and prints the end-to-end metrics —
// or, with --trace 1, the per-layer ledger — followed by one JSON line.
//
// Build and run it from the repository root with run.sh, which compiles it
// from source:
//
//	bash perfbench/run.sh --workload table1 --seed 1 --seconds 15 --trace 0
//
// README.md in this directory describes the workloads and every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metric names one reported number and its unit.
type metric struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in report order.
// BENCHMARK.json at the repository root lists the same names and units.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"alloc_mb", "MB"},
	{"setup_heap_mb", "MB"},
	{"latency_us_p50", "us"},
}

// perLayer lists the ledger of a traced run, in report order. A metric
// whose layer a workload does not exercise reads 0 on that workload.
var perLayer = []metric{
	{"sim.new_system_ms", "ms"},
	{"rng.us_per_stream", "us"},
	{"workload.ns_per_global", "ns"},
	{"sim.ns_per_event", "ns"},
	{"des.events", "count"},
	{"workload.globals", "count"},
	{"workload.locals", "count"},
	{"des.cancel_ratio", "ratio"},
	{"des.pool_hit_rate", "ratio"},
	{"node.served", "count"},
	{"node.aborted", "count"},
	{"node.crashes", "count"},
	{"node.useful_ratio", "ratio"},
	{"node.mean_queue_len", "items"},
	{"procmgr.missed_work", "ratio"},
	{"trace.events", "count"},
	{"scenario.oracle_checks", "count"},
	{"scenario.violations", "count"},
	{"obs.spans", "count"},
	{"obs.spans_dropped", "count"},
	{"obs.edges", "count"},
	{"obs.snapshot_ms", "ms"},
	{"obs.overhead_x", "x"},
	{"core.go_us", "us"},
	{"core.wait_us", "us"},
	{"core.steps_served", "count"},
	{"core.steps_dropped", "count"},
	{"go.gc_cycles", "count"},
	{"go.alloc_b_per_event", "B"},
	{"bench.trace_overhead_s", "s"},
	{"cpu.workload", "share"},
	{"cpu.rng", "share"},
	{"cpu.des", "share"},
	{"cpu.node", "share"},
	{"cpu.procmgr", "share"},
	{"cpu.sda", "share"},
	{"cpu.task", "share"},
	{"cpu.sim", "share"},
	{"cpu.trace", "share"},
	{"cpu.scenario", "share"},
	{"cpu.analysis", "share"},
	{"cpu.obs", "share"},
	{"cpu.core", "share"},
	{"cpu.other", "share"},
	{"cpu.gc", "share"},
	{"cpu.bench", "share"},
}

// workloadNames are the accepted --workload values.
var workloadNames = []string{"table1", "fleet-10k", "golden", "live"}

// defaultSeed is the workload seed of table1 and live when --seed is not
// given.
const defaultSeed = 1

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the arguments, runs one workload and writes the report. It
// returns the process exit code: 0 when every output was verified, 1 when
// a check failed, 2 when the benchmark could not run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", defaultSeed, "workload seed of table1 and live (the scenario workloads keep the seeds in their files)")
	seconds := fs.Int("seconds", 25, "host seconds of measured passes")
	traced := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer ledger")
	root := fs.String("root", ".", "repository root (holds testdata/scenarios)")
	out := fs.String("out", ".bench_build", "directory for the CPU profile of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: want --workload <name> [--seed n] [--seconds n>=1] [--trace 0|1]")
		return 2
	}
	w, err := newWorkload(*name, *root, *seed, fullSize)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defer w.close()

	budget := time.Duration(*seconds) * time.Second
	var r *result
	if *traced == 1 {
		r, err = runTraced(w, budget, *out)
	} else {
		r, err = runUntraced(w, budget)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	r.workload = *name
	if err := r.write(stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if r.failed > 0 {
		return 1
	}
	return 0
}

// result is what one invocation reports.
type result struct {
	workload          string
	passes            int
	elapsed           time.Duration
	attempted, failed int
	failures          []string
	metrics           []metric           // the metrics of the JSON line, in order
	values            map[string]float64 // every reported value by name
	notes             []string           // extra report lines: sample counts, throughput
}

// maxFailureLines bounds how many failed checks are printed.
const maxFailureLines = 20

// write prints the human-readable report and then the JSON line. No
// metric is reported when any output failed its check.
func (r *result) write(stdout, stderr io.Writer) error {
	for i, f := range r.failures {
		if i == maxFailureLines {
			fmt.Fprintf(stderr, "FAIL %s: ... %d more\n", r.workload, len(r.failures)-i)
			break
		}
		fmt.Fprintf(stderr, "FAIL %s: %s\n", r.workload, f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	if r.failed == 0 {
		fmt.Fprintf(stdout, "%s: %d passes in %.1f s, %d units verified\n", r.workload, r.passes, r.elapsed.Seconds(), r.attempted)
		for _, m := range r.metrics {
			v := r.values[m.name]
			fmt.Fprintf(stdout, "  %-24s %14.6g %s\n", m.name, v, m.unit)
			line.Metrics[m.name] = value{v, m.unit}
		}
		for _, n := range r.notes {
			fmt.Fprintf(stdout, "  %s\n", n)
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

// sizes scales the workloads: fullSize is what the benchmark measures;
// the tests use smaller ones.
type sizes struct {
	table1Reps     int     // replications per table1 pass
	table1Duration float64 // measured horizon of each table1 replication
	fleetScale     int     // ApplyStressScale factor of fleet-10k (1 = full size)
	goldenRepeats  int     // runs of the golden suite per pass
	liveTasks      int     // tasks per live client per pass
}

var fullSize = sizes{table1Reps: 16, table1Duration: 20000, fleetScale: 1, goldenRepeats: 2, liveTasks: 5000}

// newWorkload builds the named workload; root is the repository root.
func newWorkload(name, root string, seed uint64, sz sizes) (workload, error) {
	scenarios := filepath.Join(root, "testdata", "scenarios")
	switch name {
	case "table1":
		return newTable1(seed, sz)
	case "fleet-10k":
		return newFleet(filepath.Join(scenarios, "stress_fleet_10k.json"), sz)
	case "golden":
		return newGolden(scenarios, sz)
	case "live":
		return newLive(seed, sz), nil
	case "":
		return nil, errors.New("--workload is required")
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}
