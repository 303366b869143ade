package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/sda"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// table1 runs sim.Run at the paper's Table 1 point: k=6, load 0.5,
// frac_local 0.75, 4-way parallel globals, UD-DIV-1 under EDF with no
// abortion. No hook is attached to the untraced pass, so nearly all the
// work is the event loop: the des calendar, the node queue and the
// process manager's release protocol.
type table1 struct {
	cfg sim.Config
	sys *sim.System // the set-up system, held only while it is measured
}

// maxUtilizationGap is how far table1's mean utilization may sit from the
// configured load.
const maxUtilizationGap = 0.02

func newTable1(seed uint64, sz sizes) (*table1, error) {
	cfg := sim.Default()
	cfg.PSP = sda.Div{X: 1}
	cfg.Duration = simtime.Duration(sz.table1Duration)
	cfg.Warmup = 1000
	cfg.Replications = sz.table1Reps
	cfg.Workers = 2
	cfg.Seed = seed
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &table1{cfg: cfg}, nil
}

func (w *table1) setup(tr *tracer) (time.Duration, error) {
	end := tr.span("sim.NewSystem")
	t0 := time.Now()
	sys, err := sim.NewSystem(w.cfg, sim.RepSeed(w.cfg.Seed, 0))
	d := time.Since(t0)
	end()
	w.sys = sys
	return d, err
}

func (w *table1) dropSetup() { w.sys = nil }
func (w *table1) close()     {}

func (w *table1) pass(tr *tracer) (passResult, error) {
	cfg := w.cfg
	var h simHooks
	if tr != nil {
		cfg.OnReplication = h.attach
		cfg.OnReplicationDone = h.done
	}
	end := tr.span("sim.Run")
	t0 := time.Now()
	res, err := sim.Run(cfg)
	lat := time.Since(t0)
	end()
	if err != nil {
		return passResult{}, fmt.Errorf("sim.Run: %w", err)
	}
	p := passResult{
		units:       len(res.Reps),
		latencies:   []time.Duration{lat},
		fingerprint: fmt.Sprintf("%+v", res.Reps),
	}
	addReps(&p, res.Reps)
	if u := res.Utilization.Mean; math.Abs(u-cfg.Spec.Load) > maxUtilizationGap {
		p.fail(p.units, "mean utilization %.4f is more than %.2f from the configured load %.2f", u, maxUtilizationGap, cfg.Spec.Load)
	}
	h.flush(&p)
	return p, nil
}

func (w *table1) probe(tr *tracer) (map[string]float64, error) {
	return probeSim(tr, []sim.Config{w.cfg}, []uint64{sim.RepSeed(w.cfg.Seed, 0)})
}

// addReps adds the exact counts of replication results to a pass.
func addReps(p *passResult, reps []sim.RepResult) {
	for _, r := range reps {
		p.count("des.events", float64(r.Events))
		p.count("workload.globals", float64(r.Globals))
		p.count("workload.locals", float64(r.Locals))
		p.count("rep.count", 1)
		p.count("rep.missed_work", r.MissedWork)
		p.count("rep.mean_queue_len", r.MeanQueueLen)
	}
}

// simHooks reads each replication's engine and nodes through hooks that
// do not serialise a run: it attaches a des.Flight before the first event
// and reads the flight and the node counters once the replication is
// done. It is safe for concurrent replications.
type simHooks struct {
	mu                         sync.Mutex
	scheduled, cancelled, hits float64
	served, aborted, crashes   uint64
}

func (h *simHooks) attach(sys *sim.System) {
	sys.Eng.AttachFlight(des.NewFlight(len(sys.Nodes)))
}

func (h *simHooks) done(sys *sim.System) {
	f := sys.Eng.Flight()
	var served, aborted, crashes uint64
	for _, n := range sys.Nodes {
		served += n.Served()
		aborted += n.AbortedCount()
		crashes += n.Crashes()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.addFlight(f)
	h.served += served
	h.aborted += aborted
	h.crashes += crashes
}

// addFlight adds one replication's flight counts. The pool hit rate is
// weighted by scheduled events: every schedule takes one record from the
// pool.
func (h *simHooks) addFlight(f *des.Flight) {
	if f == nil {
		return
	}
	s := float64(f.Scheduled())
	h.scheduled += s
	h.cancelled += float64(f.Cancelled())
	h.hits += f.PoolHitRate() * s
}

// flush adds the hooks' counts to a traced pass.
func (h *simHooks) flush(p *passResult) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.scheduled == 0 && h.served == 0 {
		return
	}
	p.count("des.scheduled", h.scheduled)
	p.count("des.cancelled", h.cancelled)
	p.count("des.pool_hits", h.hits)
	p.count("node.served", float64(h.served))
	p.count("node.aborted", float64(h.aborted))
	p.count("node.crashes", float64(h.crashes))
}

// Direct probes time at least probeMinTime or probeMinCalls calls,
// whichever takes longer.
const (
	probeStreams  = 10000
	probeMinTime  = 50 * time.Millisecond
	probeMinCalls = 100
)

// probeSink keeps probed results alive so the calls cannot be removed.
var probeSink any

// probeSim times, at the workload's parameters, the layers sim.Run and
// the scenario runners hide: seeding an RNG stream, drawing one global
// task, and the event loop alone (System.Finish on a freshly wired,
// unhooked system) per simulated event.
func probeSim(tr *tracer, cfgs []sim.Config, seeds []uint64) (map[string]float64, error) {
	v := map[string]float64{}

	end := tr.span("rng.NewStream")
	t0 := time.Now()
	for i := 0; i < probeStreams; i++ {
		probeSink = rng.NewStream(uint64(i))
	}
	v["rng.us_per_stream"] = time.Since(t0).Seconds() * 1e6 / probeStreams
	end()

	var genTime time.Duration
	var gens int
	for i, cfg := range cfgs {
		spec := cfg.Spec
		if spec.Factory == nil && spec.DagFactory == nil {
			continue
		}
		stream := rng.NewStream(seeds[i])
		end := tr.span("workload.NewGlobal")
		t0 := time.Now()
		for n := 0; n < probeMinCalls || time.Since(t0) < probeMinTime; n++ {
			var err error
			if spec.Factory != nil {
				probeSink, err = spec.NewGlobal(stream, simtime.Time(n))
			} else {
				probeSink, err = spec.NewGlobalDag(stream, simtime.Time(n))
			}
			if err != nil {
				return nil, fmt.Errorf("probe global task: %w", err)
			}
			gens++
		}
		genTime += time.Since(t0)
		end()
	}
	v["workload.ns_per_global"] = ratio(float64(genTime.Nanoseconds()), float64(gens))

	var finishTime time.Duration
	var events uint64
	for i, cfg := range cfgs {
		end := tr.span("sim.NewSystem")
		sys, err := sim.NewSystem(cfg, seeds[i])
		end()
		if err != nil {
			return nil, fmt.Errorf("probe system: %w", err)
		}
		end = tr.span("System.Start")
		err = sys.Start()
		end()
		if err != nil {
			return nil, fmt.Errorf("probe system: %w", err)
		}
		end = tr.span("System.Finish")
		t0 := time.Now()
		rep := sys.Finish(sys.Horizon())
		finishTime += time.Since(t0)
		end()
		events += rep.Events
	}
	v["sim.ns_per_event"] = ratio(float64(finishTime.Nanoseconds()), float64(events))
	return v, nil
}
