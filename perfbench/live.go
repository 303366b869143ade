package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sda"
)

// live drives the core Orchestrator, the only workload on real goroutines
// and wall-clock timers. Each task is Sequence(Group(a@feed1, b@feed2),
// c@rules, d@db, e@gateway) with no-op steps under EQF-DIV-1 and
// deadline abortion. It is a closed loop: liveClients goroutines each wait
// for a task's Report before submitting the next.
type live struct {
	seed  uint64
	tasks int // tasks per client per pass
	o     *core.Orchestrator
}

const (
	liveClients  = 2
	liveDeadline = 50 * time.Millisecond
)

// liveNodes are the orchestrator's nodes, in AddNode order.
var liveNodes = []string{"feed1", "feed2", "rules", "db", "gateway"}

// livePex are the predicted step durations of the livepipeline example:
// the two feeds, then rules, db and gateway.
var livePex = [5]time.Duration{8 * time.Millisecond, 8 * time.Millisecond, 10 * time.Millisecond, 6 * time.Millisecond, 5 * time.Millisecond}

func newLive(seed uint64, sz sizes) *live {
	return &live{seed: seed, tasks: sz.liveTasks}
}

// setup times creating the orchestrator and adding its nodes. The
// orchestrator stays for the passes; a repeated set-up closes the
// previous one first, untimed.
func (w *live) setup(*tracer) (time.Duration, error) {
	w.close()
	t0 := time.Now()
	o := core.NewOrchestrator(core.WithStrategies(sda.EQF{}, sda.Div{X: 1}), core.WithDeadlineAbort())
	for _, n := range liveNodes {
		if _, err := o.AddNode(n); err != nil {
			o.Close()
			return 0, err
		}
	}
	d := time.Since(t0)
	w.o = o
	return d, nil
}

func (w *live) dropSetup() {}

func (w *live) close() {
	if w.o != nil {
		w.o.Close()
		w.o = nil
	}
}

func noop(context.Context) error { return nil }

// task builds one task. The workload seed only jitters the predicted
// durations (x0.75 to x1.25), which set the steps' virtual deadlines.
func (w *live) task(r *rand.Rand) *core.Work {
	pex := func(i int) time.Duration {
		return time.Duration(float64(livePex[i]) * (0.75 + 0.5*r.Float64()))
	}
	return core.Sequence("task",
		core.Group("gather",
			core.Step("a", "feed1", pex(0), noop),
			core.Step("b", "feed2", pex(1), noop)),
		core.Step("c", "rules", pex(2), noop),
		core.Step("d", "db", pex(3), noop),
		core.Step("e", "gateway", pex(4), noop))
}

// client is one closed-loop caller's share of a pass.
type client struct {
	latencies        []time.Duration
	goTime, waitTime time.Duration
	failures         []string
	err              error
}

func (w *live) runClient(id int, c *client) {
	r := rand.New(rand.NewSource(int64(w.seed)*liveClients + int64(id)))
	ctx := context.Background()
	for i := 0; i < w.tasks; i++ {
		work := w.task(r)
		t0 := time.Now()
		h, err := w.o.Go(ctx, work, t0.Add(liveDeadline))
		t1 := time.Now()
		if err != nil {
			c.err = fmt.Errorf("Orchestrator.Go: %w", err)
			return
		}
		rep, err := h.Wait(ctx)
		t2 := time.Now()
		if err != nil {
			c.err = fmt.Errorf("Handle.Wait: %w", err)
			return
		}
		c.latencies = append(c.latencies, t2.Sub(t0))
		c.goTime += t1.Sub(t0)
		c.waitTime += t2.Sub(t1)
		if msg := checkReport(rep); msg != "" {
			c.failures = append(c.failures, fmt.Sprintf("client %d task %d: %s", id, i, msg))
		}
	}
}

// checkReport returns why a task failed, or "" when it met its deadline
// and every step finished without error.
func checkReport(rep core.Report) string {
	switch {
	case rep.Err != nil:
		return rep.Err.Error()
	case rep.Missed:
		return fmt.Sprintf("missed its deadline by %v", rep.Finish.Sub(rep.Deadline))
	case len(rep.Steps) != len(livePex):
		return fmt.Sprintf("%d steps reported, want %d", len(rep.Steps), len(livePex))
	}
	for _, s := range rep.Steps {
		if s.Err != nil || s.Finish.IsZero() {
			return fmt.Sprintf("step %s did not finish: %v", s.Name, s.Err)
		}
	}
	return ""
}

func (w *live) nodeCounts() (served, dropped uint64) {
	for _, n := range liveNodes {
		nd := w.o.Node(n)
		served += nd.Served()
		dropped += nd.Dropped()
	}
	return served, dropped
}

func (w *live) pass(tr *tracer) (passResult, error) {
	served0, dropped0 := w.nodeCounts()
	clients := make([]client, liveClients)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w.runClient(i, &clients[i])
		}(i)
	}
	wg.Wait()
	served, dropped := w.nodeCounts()

	var p passResult
	for i := range clients {
		c := &clients[i]
		if c.err != nil {
			return passResult{}, c.err
		}
		p.units += len(c.latencies)
		p.latencies = append(p.latencies, c.latencies...)
		for _, f := range c.failures {
			p.fail(1, "%s", f)
		}
		tr.record("Orchestrator.Go", len(c.latencies), c.goTime, c.goTime)
		tr.record("Handle.Wait", len(c.latencies), c.waitTime, c.waitTime)
	}
	p.count("core.steps_served", float64(served-served0))
	p.count("core.steps_dropped", float64(dropped-dropped0))
	// Only counts are exact on real goroutines: every task runs all of
	// its steps exactly once.
	p.fingerprint = fmt.Sprintf("tasks %d steps %d dropped %d", p.units, served-served0, dropped-dropped0)
	return p, nil
}

func (w *live) probe(*tracer) (map[string]float64, error) { return nil, nil }
