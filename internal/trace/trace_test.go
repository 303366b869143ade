package trace

import (
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/node"
	"repro/internal/simtime"
	"repro/internal/task"
)

// mkItem builds an item with the given name, virtual deadline and exec.
func mkItem(t *testing.T, name string, vdl simtime.Time, ex simtime.Duration) *node.Item {
	t.Helper()
	tk := task.MustSimple(name, 0, ex)
	tk.VirtualDeadline = vdl
	tk.RealDeadline = vdl
	return node.NewItem(tk)
}

func TestTracerRecordsLifeCycle(t *testing.T) {
	eng := des.New()
	tr := New()
	n := node.New(0, eng, node.WithObserver(tr))
	if err := n.Submit(mkItem(t, "a", 10, 2)); err != nil {
		t.Fatal(err)
	}
	if err := n.Submit(mkItem(t, "b", 20, 1)); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	events := tr.Events()
	// a: enqueue, start, finish; b: enqueue, start, finish = 6 events.
	if len(events) != 6 {
		t.Fatalf("events = %d, want 6:\n%s", len(events), tr.Log())
	}
	kinds := []Kind{}
	for _, e := range events {
		kinds = append(kinds, e.Kind)
	}
	want := []Kind{KindEnqueue, KindStart, KindEnqueue, KindFinish, KindStart, KindFinish}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %v, want %v\n%s", i, kinds[i], want[i], tr.Log())
		}
	}
	if events[3].At != 2 || events[5].At != 3 {
		t.Errorf("finish times = %v, %v; want 2 and 3", events[3].At, events[5].At)
	}
}

func TestTracerRecordsAbort(t *testing.T) {
	eng := des.New()
	tr := New()
	n := node.New(0, eng, node.WithObserver(tr))
	blocker := mkItem(t, "blocker", 1, 5)
	victim := mkItem(t, "victim", 2, 1)
	if err := n.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	if err := n.Submit(victim); err != nil {
		t.Fatal(err)
	}
	n.Remove(victim)
	eng.Run()
	aborts := 0
	for _, e := range tr.Events() {
		if e.Kind == KindAbort && e.Task == "victim" {
			aborts++
		}
	}
	if aborts != 1 {
		t.Errorf("abort events for victim = %d, want 1\n%s", aborts, tr.Log())
	}
}

func TestTracerRecordsPreempt(t *testing.T) {
	eng := des.New()
	tr := New()
	n := node.New(0, eng, node.WithObserver(tr), node.WithPreemption())
	if err := n.Submit(mkItem(t, "long", 100, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.At(3, func() {
		if err := n.Submit(mkItem(t, "urgent", 4, 1)); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	preempts, starts := 0, map[string]int{}
	for _, e := range tr.Events() {
		if e.Kind == KindPreempt {
			preempts++
		}
		if e.Kind == KindStart {
			starts[e.Task]++
		}
	}
	if preempts != 1 {
		t.Errorf("preempt events = %d, want 1", preempts)
	}
	if starts["long"] != 2 {
		t.Errorf("long started %d times, want 2 (suspend + resume)", starts["long"])
	}
}

func TestGanttRendersSegments(t *testing.T) {
	eng := des.New()
	tr := New()
	n := node.New(0, eng, node.WithObserver(tr))
	if err := n.Submit(mkItem(t, "alpha", 10, 5)); err != nil {
		t.Fatal(err)
	}
	if err := n.Submit(mkItem(t, "beta", 20, 5)); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	chart := tr.Gantt(0, 10, 20)
	if !strings.Contains(chart, "node0") {
		t.Errorf("missing node row:\n%s", chart)
	}
	if !strings.Contains(chart, "a = alpha") || !strings.Contains(chart, "b = beta") {
		t.Errorf("missing legend:\n%s", chart)
	}
	// First half a's letter, second half b's.
	row := ""
	for _, line := range strings.Split(chart, "\n") {
		if strings.HasPrefix(line, "node0") {
			row = line
		}
	}
	if !strings.Contains(row, "aaaa") || !strings.Contains(row, "bbbb") {
		t.Errorf("expected solid a and b runs:\n%s", chart)
	}
}

// TestGanttDeterministicOnMultiServer renders two items that started
// together on a two-server node and are still in service when the trace
// ends: their letters, legend and overlap winner must not vary between
// renders.
func TestGanttDeterministicOnMultiServer(t *testing.T) {
	eng := des.New()
	tr := New()
	n := node.New(0, eng, node.WithObserver(tr), node.WithServers(2))
	for _, name := range []string{"p", "q"} {
		if err := n.Submit(mkItem(t, name, 50, 10)); err != nil {
			t.Fatal(err)
		}
	}
	// A third arrival waits for a server and moves the trace end to 3.
	if _, err := eng.At(3, func() {
		if err := n.Submit(mkItem(t, "r", 50, 1)); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(5)
	first := tr.Gantt(0, 4, 20)
	for i := 0; i < 50; i++ {
		if got := tr.Gantt(0, 4, 20); got != first {
			t.Fatalf("render %d differs:\n%s\nvs first:\n%s", i, got, first)
		}
	}
	if !strings.Contains(first, "a = p") || !strings.Contains(first, "b = q") {
		t.Errorf("letters not assigned in task order:\n%s", first)
	}
}

func TestGanttEmptyAndDegenerate(t *testing.T) {
	tr := New()
	if got := tr.Gantt(0, 10, 40); !strings.Contains(got, "empty") {
		t.Errorf("empty trace chart = %q", got)
	}
	eng := des.New()
	n := node.New(0, eng, node.WithObserver(tr))
	if err := n.Submit(mkItem(t, "x", 5, 1)); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got := tr.Gantt(10, 10, 40); !strings.Contains(got, "empty") {
		t.Errorf("degenerate window chart = %q", got)
	}
	// Tiny width is clamped, not panicking.
	_ = tr.Gantt(0, 10, 1)
}

func TestQueueLengths(t *testing.T) {
	eng := des.New()
	tr := New()
	n := node.New(0, eng, node.WithObserver(tr))
	// Three arrivals at t=0: one starts service, two wait.
	for _, name := range []string{"s1", "s2", "s3"} {
		if err := n.Submit(mkItem(t, name, 10, 2)); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	samples := tr.QueueLengths(0)
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	maxLen := 0
	for _, s := range samples {
		if s.Len > maxLen {
			maxLen = s.Len
		}
	}
	if maxLen != 2 {
		t.Errorf("peak queue = %d, want 2 (one in service)", maxLen)
	}
	if last := samples[len(samples)-1]; last.Len != 0 {
		t.Errorf("final queue = %d, want 0", last.Len)
	}
}

func TestUnnamedTasksGetStableLabels(t *testing.T) {
	eng := des.New()
	tr := New()
	n := node.New(0, eng, node.WithObserver(tr))
	if err := n.Submit(mkItem(t, "", 10, 1)); err != nil {
		t.Fatal(err)
	}
	if err := n.Submit(mkItem(t, "", 20, 1)); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	names := map[string]bool{}
	for _, e := range tr.Events() {
		names[e.Task] = true
	}
	if len(names) != 2 {
		t.Errorf("distinct labels = %d, want 2 (%v)", len(names), names)
	}
	// The same item keeps one label across its events.
	counts := map[string]int{}
	for _, e := range tr.Events() {
		counts[e.Task]++
	}
	for name, c := range counts {
		if c != 3 { // enqueue, start, finish
			t.Errorf("label %s appears %d times, want 3", name, c)
		}
	}
}

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{
		KindEnqueue: "enqueue", KindStart: "start", KindFinish: "finish",
		KindAbort: "abort", KindPreempt: "preempt", Kind(99): "Kind(99)",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestLogFormat(t *testing.T) {
	eng := des.New()
	tr := New()
	n := node.New(0, eng, node.WithObserver(tr))
	it := mkItem(t, "boosted", 5, 1)
	it.Task.PriorityBoost = true
	if err := n.Submit(it); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	log := tr.Log()
	if !strings.Contains(log, "boosted") || !strings.Contains(log, "[GF]") {
		t.Errorf("log missing fields:\n%s", log)
	}
}

func TestHashDeterministicAndSensitive(t *testing.T) {
	build := func(extra bool) *Tracer {
		eng := des.New()
		tr := New()
		n := node.New(0, eng, node.WithObserver(tr))
		a := task.MustSimple("a", 0, 2)
		a.VirtualDeadline = 10
		b := task.MustSimple("b", 0, 1)
		b.VirtualDeadline = 5
		if err := n.Submit(node.NewItem(a)); err != nil {
			t.Fatal(err)
		}
		if err := n.Submit(node.NewItem(b)); err != nil {
			t.Fatal(err)
		}
		if extra {
			c := task.MustSimple("c", 0, 1)
			c.VirtualDeadline = 7
			if err := n.Submit(node.NewItem(c)); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
		return tr
	}
	h1, h2 := build(false).Hash(), build(false).Hash()
	if h1 != h2 {
		t.Errorf("identical runs hash differently: %s vs %s", h1, h2)
	}
	if h3 := build(true).Hash(); h3 == h1 {
		t.Error("different traces produced the same hash")
	}
	if len(h1) != 32 {
		t.Errorf("hash length %d, want 32", len(h1))
	}
	if New().Hash() == h1 {
		t.Error("empty trace hash collides with non-empty trace")
	}
}

// BenchmarkTraceDigest measures one pooled item's life cycle (enqueue,
// start, finish: three hashed events) with an unnamed task, so every
// incarnation takes a fresh generated label. Over a warmed item pool
// the digest allocates nothing.
func BenchmarkTraceDigest(b *testing.B) {
	n := node.New(0, des.New())
	d := NewDigest()
	tk := task.MustSimple("", 0, 1)
	tk.VirtualDeadline = 7.25
	live := make([]*node.Item, 256)
	for i := range live {
		live[i] = n.AcquireItem(tk)
	}
	lifecycle := func(i int) {
		k := i % len(live)
		n.RecycleItem(live[k])
		it := n.AcquireItem(tk)
		live[k] = it
		at := simtime.Time(i) / 2
		d.OnEnqueue(n, it, at)
		d.OnStart(n, it, at)
		d.OnFinish(n, it, at+1)
	}
	for i := 0; i < 2*len(live); i++ {
		lifecycle(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lifecycle(i)
	}
}
