package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// stressWorkers is the replication worker count of a fleet-10k pass.
const stressWorkers = 2

// fleet runs the 10k-node stress scenario at full size with its checker
// and oracle on. Node choice over the whole fleet and per-node RNG seeding
// dominate it, and its set-up is heavy. Its seed stays the one in the
// scenario file: the file's assert bands were fitted to it.
type fleet struct {
	path  string
	scale int
	sc    *scenario.Scenario
	sys   *sim.System // the set-up system, held only while it is measured
}

func newFleet(path string, sz sizes) (*fleet, error) {
	w := &fleet{path: path, scale: sz.fleetScale}
	// The passes need a loaded scenario even before set-up is measured.
	_, err := w.setup(nil)
	w.sys = nil
	return w, err
}

// setup times loading and validating the scenario, translating it into a
// sim.Config, and wiring one replication at the fleet's k. Fleet expansion
// and chaos compilation happen inside RunStress and are not part of it.
func (w *fleet) setup(tr *tracer) (time.Duration, error) {
	t0 := time.Now()
	end := tr.span("scenario.Load")
	sc, err := scenario.Load(w.path)
	end()
	if err != nil {
		return 0, err
	}
	if !sc.IsStress() {
		return 0, fmt.Errorf("%s is not a stress scenario", w.path)
	}
	sc.ApplyStressScale(w.scale)
	end = tr.span("Scenario.Config")
	cfg, err := sc.Config()
	end()
	if err != nil {
		return 0, err
	}
	end = tr.span("sim.NewSystem")
	sys, err := sim.NewSystem(cfg, sim.RepSeed(sc.Seed, 0))
	end()
	d := time.Since(t0)
	w.sc, w.sys = sc, sys
	return d, err
}

func (w *fleet) dropSetup() { w.sys = nil }
func (w *fleet) close()     {}

func (w *fleet) pass(tr *tracer) (passResult, error) {
	var out *scenario.Outcome
	var fl *des.Flight
	var err error
	end := tr.span("scenario.RunStress")
	t0 := time.Now()
	if tr == nil {
		out, err = scenario.RunStress(w.sc, stressWorkers)
	} else {
		out, fl, err = scenario.RunStressFlight(w.sc, stressWorkers)
	}
	lat := time.Since(t0)
	end()
	if err != nil {
		return passResult{}, fmt.Errorf("RunStress: %w", err)
	}
	p := passResult{
		units:       len(out.Reps),
		latencies:   []time.Duration{lat},
		fingerprint: out.Summary(),
	}
	addReps(&p, out.Reps)
	addOutcome(&p, out)
	if !out.Passed() {
		p.fail(p.units, "%s: %s", w.sc.Name, strings.Join(out.Failures, "; "))
	}
	var h simHooks
	h.addFlight(fl)
	h.flush(&p)
	return p, nil
}

func (w *fleet) probe(tr *tracer) (map[string]float64, error) {
	cfg, err := w.sc.Config()
	if err != nil {
		return nil, err
	}
	return probeSim(tr, []sim.Config{cfg}, []uint64{sim.RepSeed(w.sc.Seed, 0)})
}

// addOutcome adds a scenario outcome's checker and oracle counts.
func addOutcome(p *passResult, out *scenario.Outcome) {
	p.count("trace.events", float64(out.TraceEvents))
	p.count("scenario.oracle_checks", float64(out.OracleChecks))
	p.count("scenario.violations", float64(len(out.Violations)))
}

// golden runs the 14 non-stress scenarios through scenario.RunObserved
// with default telemetry and snapshots each run's telemetry. They exercise
// what the other workloads bypass: DAG and conditional-DAG release, abort
// cascades, fault injection, strategy swaps, trace hashing and causal
// telemetry. Their seeds stay the ones in the scenario files, which the
// golden hashes depend on.
type golden struct {
	dir       string
	repeats   int
	hashes    map[string]string
	scenarios []*scenario.Scenario
	systems   []*sim.System // the set-up systems, held only while measured
}

func newGolden(dir string, sz sizes) (*golden, error) {
	hashes, err := scenario.ReadGolden(filepath.Join(dir, scenario.GoldenFile))
	if err != nil {
		return nil, err
	}
	w := &golden{dir: dir, repeats: sz.goldenRepeats, hashes: hashes}
	_, err = w.setup(nil)
	w.systems = nil
	if err == nil && len(w.scenarios) == 0 {
		err = fmt.Errorf("no non-stress scenarios in %s", dir)
	}
	return w, err
}

// setup times loading and validating every scenario file, translating
// each non-stress scenario into a sim.Config, and wiring its system.
func (w *golden) setup(tr *tracer) (time.Duration, error) {
	t0 := time.Now()
	end := tr.span("scenario.LoadDir")
	all, err := scenario.LoadDir(w.dir)
	end()
	if err != nil {
		return 0, err
	}
	var scs []*scenario.Scenario
	var systems []*sim.System
	for _, sc := range all {
		if sc.IsStress() {
			continue
		}
		end := tr.span("Scenario.Config")
		cfg, err := sc.Config()
		end()
		if err != nil {
			return 0, err
		}
		end = tr.span("sim.NewSystem")
		sys, err := sim.NewSystem(cfg, sc.Seed)
		end()
		if err != nil {
			return 0, err
		}
		scs = append(scs, sc)
		systems = append(systems, sys)
	}
	d := time.Since(t0)
	w.scenarios, w.systems = scs, systems
	return d, nil
}

func (w *golden) dropSetup() { w.systems = nil }
func (w *golden) close()     {}

func (w *golden) pass(tr *tracer) (passResult, error) {
	var p passResult
	var fp strings.Builder
	for r := 0; r < w.repeats; r++ {
		for _, sc := range w.scenarios {
			var h simHooks
			var sys *sim.System
			t0 := time.Now()
			end := tr.span("scenario.RunObserved")
			var out *scenario.Outcome
			var tel *obs.Telemetry
			var err error
			if tr == nil {
				out, tel, err = scenario.RunObserved(sc, obs.DefaultOptions())
			} else {
				out, tel, err = scenario.RunObservedWith(sc, obs.DefaultOptions(), func(s *sim.System) {
					sys = s
					h.attach(s)
				})
			}
			end()
			if err != nil {
				return passResult{}, fmt.Errorf("%s: %w", sc.Name, err)
			}
			end = tr.span("Telemetry.Snapshot")
			snap := tel.Snapshot(0)
			end()
			p.latencies = append(p.latencies, time.Since(t0))

			p.units++
			fmt.Fprintf(&fp, "%s %s %d %d %d %+v\n", sc.Name, out.TraceHash, out.TraceEvents,
				snap.TotalSpans, len(snap.Edges), out.Rep)
			addReps(&p, []sim.RepResult{out.Rep})
			addOutcome(&p, out)
			if want, ok := w.hashes[sc.Name]; !ok || out.TraceHash != want {
				p.fail(1, "%s: trace hash %s differs from golden %q", sc.Name, out.TraceHash, want)
			} else if !out.Passed() {
				p.fail(1, "%s: %s", sc.Name, strings.Join(out.Failures, "; "))
			}
			if sys != nil {
				h.done(sys)
				h.flush(&p)
				p.count("obs.spans", float64(tel.TotalSpans()))
				p.count("obs.spans_dropped", float64(tel.DroppedSpans()))
				p.count("obs.edges", float64(len(tel.Edges()))+float64(tel.DroppedEdges()))
			}
		}
	}
	p.fingerprint = fp.String()
	return p, nil
}

// overheadPasses is how many golden passes run through scenario.Run, with
// telemetry off, to give obs.overhead_x its base.
const overheadPasses = 3

func (w *golden) probe(tr *tracer) (map[string]float64, error) {
	cfgs := make([]sim.Config, len(w.scenarios))
	seeds := make([]uint64, len(w.scenarios))
	for i, sc := range w.scenarios {
		cfg, err := sc.Config()
		if err != nil {
			return nil, err
		}
		cfgs[i], seeds[i] = cfg, sc.Seed
	}
	v, err := probeSim(tr, cfgs, seeds)
	if err != nil {
		return nil, err
	}

	// obs.overhead_x: the observed pass against the same pass through
	// scenario.Run, alternating so drift hits both sides alike.
	var on, off []float64
	for i := 0; i < overheadPasses; i++ {
		t0 := time.Now()
		p, err := w.pass(nil)
		if err != nil {
			return nil, err
		}
		if p.failed > 0 {
			return nil, fmt.Errorf("observed pass: %s", strings.Join(p.failures, "; "))
		}
		on = append(on, time.Since(t0).Seconds())
		t0 = time.Now()
		for r := 0; r < w.repeats; r++ {
			for _, sc := range w.scenarios {
				end := tr.span("scenario.Run")
				out, err := scenario.Run(sc)
				end()
				if err != nil {
					return nil, fmt.Errorf("%s: %w", sc.Name, err)
				}
				if out.TraceHash != w.hashes[sc.Name] {
					return nil, fmt.Errorf("%s: unobserved trace hash %s differs from golden", sc.Name, out.TraceHash)
				}
			}
		}
		off = append(off, time.Since(t0).Seconds())
	}
	v["obs.overhead_x"] = ratio(median(on), median(off))
	return v, nil
}
