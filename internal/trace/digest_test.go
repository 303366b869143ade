package trace_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/des"
	"repro/internal/node"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/task"
	"repro/internal/trace"
)

// refTracer is the event log the package kept before hashing was
// streamed: every event is stored, and unnamed tasks are labelled
// t<id> by first appearance of each (item, generation) pair.
type refTracer struct {
	events []trace.Event
	names  map[refKey]string
}

type refKey struct {
	it  *node.Item
	gen uint32
}

func (r *refTracer) record(kind trace.Kind, n *node.Node, it *node.Item, at simtime.Time) {
	name := it.Task.Name
	if name == "" {
		k := refKey{it, it.Generation()}
		var ok bool
		if name, ok = r.names[k]; !ok {
			name = fmt.Sprintf("t%d", len(r.names))
			r.names[k] = name
		}
	}
	r.events = append(r.events, trace.Event{
		Kind: kind, Node: n.ID(), At: at, Task: name,
		Virtual: it.Task.VirtualDeadline, Boost: it.Task.PriorityBoost,
	})
}

func (r *refTracer) OnEnqueue(n *node.Node, it *node.Item, at simtime.Time) {
	r.record(trace.KindEnqueue, n, it, at)
}
func (r *refTracer) OnStart(n *node.Node, it *node.Item, at simtime.Time) {
	r.record(trace.KindStart, n, it, at)
}
func (r *refTracer) OnFinish(n *node.Node, it *node.Item, at simtime.Time) {
	r.record(trace.KindFinish, n, it, at)
}
func (r *refTracer) OnAbort(n *node.Node, it *node.Item, at simtime.Time) {
	r.record(trace.KindAbort, n, it, at)
}
func (r *refTracer) OnPreempt(n *node.Node, it *node.Item, at simtime.Time) {
	r.record(trace.KindPreempt, n, it, at)
}

// refHash is the end-of-run serialization over a stored event log: the
// reference the streaming Digest must reproduce byte for byte.
func refHash(events []trace.Event) string {
	h := sha256.New()
	var buf []byte
	for _, e := range events {
		buf = buf[:0]
		buf = strconv.AppendInt(buf, int64(e.Kind), 10)
		buf = append(buf, '|')
		buf = strconv.AppendInt(buf, int64(e.Node), 10)
		buf = append(buf, '|')
		buf = strconv.AppendFloat(buf, float64(e.At), 'g', 17, 64)
		buf = append(buf, '|')
		buf = append(buf, e.Task...)
		buf = append(buf, '|')
		buf = strconv.AppendFloat(buf, float64(e.Virtual), 'g', 17, 64)
		buf = append(buf, '|')
		buf = strconv.AppendBool(buf, e.Boost)
		buf = append(buf, '\n')
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// observers is one of each implementation, attached to the same run.
type observers struct {
	ref *refTracer
	tr  *trace.Tracer
	d   *trace.Digest
}

func newObservers() observers {
	return observers{
		ref: &refTracer{names: map[refKey]string{}},
		tr:  trace.New(),
		d:   trace.NewDigest(),
	}
}

func (o observers) observer() node.Observer { return node.CombineObservers(o.ref, o.tr, o.d) }

// check asserts that the Digest, the Tracer and the reference agree on
// the run they observed, and returns the hash.
func (o observers) check(t *testing.T, name string) string {
	t.Helper()
	if len(o.ref.events) == 0 {
		t.Fatalf("%s: no events observed", name)
	}
	events := o.tr.Events()
	if !reflect.DeepEqual(events, o.ref.events) {
		t.Fatalf("%s: Tracer event log differs from the reference log", name)
	}
	want := refHash(events)
	if got := o.d.Hash(); got != want {
		t.Errorf("%s: Digest.Hash = %s, reference = %s", name, got, want)
	}
	if got := o.tr.Hash(); got != o.d.Hash() {
		t.Errorf("%s: Tracer.Hash = %s, Digest.Hash = %s", name, got, o.d.Hash())
	}
	if o.d.Len() != len(events) || o.tr.Len() != len(events) {
		t.Errorf("%s: Len Digest %d, Tracer %d, events %d", name, o.d.Len(), o.tr.Len(), len(events))
	}
	return want
}

// TestDigestMatchesReferenceOnScenarios runs every non-stress golden
// scenario's model with all three observers attached. The scenario
// timelines (faults, bursts, strategy swaps) are not armed here, so only
// the scenarios without one also reproduce their golden hash, which
// pins the serialization to golden.txt.
func TestDigestMatchesReferenceOnScenarios(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "scenarios")
	golden, err := scenario.ReadGolden(filepath.Join(dir, scenario.GoldenFile))
	if err != nil {
		t.Fatal(err)
	}
	all, err := scenario.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ran, anchored := 0, 0
	for _, sc := range all {
		if sc.IsStress() {
			continue
		}
		cfg, err := sc.Config()
		if err != nil {
			t.Fatal(err)
		}
		o := newObservers()
		cfg.Observer = o.observer()
		sys, err := sim.NewSystem(cfg, sc.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Start(); err != nil {
			t.Fatal(err)
		}
		sys.Finish(sys.Horizon())
		h := o.check(t, sc.Name)
		ran++
		if len(sc.Events) == 0 {
			anchored++
			if h != golden[sc.Name] {
				t.Errorf("%s: hash %s, golden %s", sc.Name, h, golden[sc.Name])
			}
		}
	}
	if ran < 14 || anchored == 0 {
		t.Fatalf("ran %d scenarios (%d anchored to golden.txt), want all 14 and at least one anchor", ran, anchored)
	}
}

// TestDigestMatchesReferenceMultiServerPreemptive drives a two-server
// node and a preemptive node with unnamed pooled items in waves: each
// wave reacquires the previous wave's recycled items, so every label is
// a new generation of a reused item.
func TestDigestMatchesReferenceMultiServerPreemptive(t *testing.T) {
	eng := des.New()
	o := newObservers()
	multi := node.New(0, eng, node.WithObserver(o.observer()), node.WithServers(2))
	pre := node.New(1, eng, node.WithObserver(o.observer()), node.WithPreemption())
	for wave := 0; wave < 4; wave++ {
		base := eng.Now()
		var items []*node.Item
		for i := 0; i < 12; i++ {
			n := multi
			if i%2 == 1 {
				n = pre
			}
			tk := task.MustSimple("", n.ID(), simtime.Duration(1+i%3))
			// Later arrivals often carry earlier deadlines, so the
			// preemptive node suspends its current item.
			tk.VirtualDeadline = base.Add(simtime.Duration(20 - i))
			tk.RealDeadline = tk.VirtualDeadline
			it := n.AcquireItem(tk)
			items = append(items, it)
			at := base.Add(simtime.Duration(i) / 2)
			if _, err := eng.At(at, func() {
				if err := n.Submit(it); err != nil {
					t.Error(err)
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		// Withdraw one item per wave: an abort event.
		victim := items[10]
		if _, err := eng.At(base.Add(5.25), func() { multi.Remove(victim) }); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		for i, it := range items {
			if i%2 == 1 {
				pre.RecycleItem(it)
			} else {
				multi.RecycleItem(it)
			}
		}
	}
	o.check(t, "multi-server/preemptive")
	kinds := map[trace.Kind]int{}
	for _, e := range o.tr.Events() {
		kinds[e.Kind]++
	}
	if kinds[trace.KindPreempt] == 0 || kinds[trace.KindAbort] == 0 {
		t.Fatalf("run did not exercise preemption and abort: %v", kinds)
	}
}
