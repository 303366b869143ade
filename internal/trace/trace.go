// Package trace observes per-node scheduling events from a simulation.
// Both observers implement node.Observer, so attaching one is an option
// on node construction:
//
//	d := trace.NewDigest()
//	n := node.New(0, eng, node.WithObserver(d))
//
// Digest streams every event into a SHA-256 hash as it fires and keeps
// no log; the scenario harness hashes every golden run through it.
// Tracer additionally keeps the full event log and renders it for
// humans: an event log, per-node ASCII Gantt charts, queue-length time
// series and JSON lines. Its memory grows with the run, so it suits
// demonstration runs.
package trace

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/node"
	"repro/internal/simtime"
)

// Kind discriminates scheduling events.
type Kind int

// Event kinds.
const (
	KindEnqueue Kind = iota + 1
	KindStart
	KindFinish
	KindAbort
	KindPreempt
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindEnqueue:
		return "enqueue"
	case KindStart:
		return "start"
	case KindFinish:
		return "finish"
	case KindAbort:
		return "abort"
	case KindPreempt:
		return "preempt"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one recorded scheduling event.
type Event struct {
	Kind    Kind
	Node    int
	At      simtime.Time
	Task    string
	Virtual simtime.Time
	Boost   bool
}

// Tracer collects events for the human renderings. It embeds a Digest,
// so Hash and Len cover the same stream. The zero value is not usable;
// call New.
type Tracer struct {
	Digest
	events []Event
}

var _ node.Observer = (*Tracer)(nil)

// New returns an empty tracer.
func New() *Tracer {
	return &Tracer{Digest: *NewDigest()}
}

func (tr *Tracer) record(kind Kind, n *node.Node, it *node.Item, at simtime.Time) {
	name := it.Task.Name
	if id := tr.Digest.record(kind, n, it, at); id >= 0 {
		name = "t" + strconv.Itoa(id)
	}
	tr.events = append(tr.events, Event{
		Kind:    kind,
		Node:    n.ID(),
		At:      at,
		Task:    name,
		Virtual: it.Task.VirtualDeadline,
		Boost:   it.Task.PriorityBoost,
	})
}

// OnEnqueue implements node.Observer.
func (tr *Tracer) OnEnqueue(n *node.Node, it *node.Item, at simtime.Time) {
	tr.record(KindEnqueue, n, it, at)
}

// OnStart implements node.Observer.
func (tr *Tracer) OnStart(n *node.Node, it *node.Item, at simtime.Time) {
	tr.record(KindStart, n, it, at)
}

// OnFinish implements node.Observer.
func (tr *Tracer) OnFinish(n *node.Node, it *node.Item, at simtime.Time) {
	tr.record(KindFinish, n, it, at)
}

// OnAbort implements node.Observer.
func (tr *Tracer) OnAbort(n *node.Node, it *node.Item, at simtime.Time) {
	tr.record(KindAbort, n, it, at)
}

// OnPreempt implements node.Observer.
func (tr *Tracer) OnPreempt(n *node.Node, it *node.Item, at simtime.Time) {
	tr.record(KindPreempt, n, it, at)
}

// Events returns a copy of the recorded events in order.
func (tr *Tracer) Events() []Event {
	out := make([]Event, len(tr.events))
	copy(out, tr.events)
	return out
}

// Log renders the raw event log.
func (tr *Tracer) Log() string {
	var b strings.Builder
	for _, e := range tr.events {
		boost := ""
		if e.Boost {
			boost = " [GF]"
		}
		fmt.Fprintf(&b, "%10.3f node%-3d %-8s %s (vdl %s)%s\n",
			float64(e.At), e.Node, e.Kind, e.Task, e.Virtual, boost)
	}
	return b.String()
}

// segment is a served stretch of one task at one node.
type segment struct {
	node       int
	task       string
	start, end simtime.Time
}

// segments reconstructs service intervals from start/finish/abort/preempt
// pairs. A still-open segment at the end of the trace is closed at the
// last event time.
func (tr *Tracer) segments() []segment {
	type key struct {
		node int
		task string
	}
	open := map[key]simtime.Time{}
	var segs []segment
	var last simtime.Time
	for _, e := range tr.events {
		if e.At.After(last) {
			last = e.At
		}
		k := key{e.Node, e.Task}
		switch e.Kind {
		case KindStart:
			open[k] = e.At
		case KindFinish, KindPreempt, KindAbort:
			if start, ok := open[k]; ok {
				segs = append(segs, segment{e.Node, e.Task, start, e.At})
				delete(open, k)
			}
		}
	}
	for k, start := range open {
		segs = append(segs, segment{k.node, k.task, start, last})
	}
	// The open segments came out of a map, so the order must not depend
	// on the input order: two items that started together on a
	// multi-server node differ only by task.
	sort.SliceStable(segs, func(i, j int) bool {
		a, b := segs[i], segs[j]
		if a.node != b.node {
			return a.node < b.node
		}
		if a.start != b.start {
			return a.start < b.start
		}
		return a.task < b.task
	})
	return segs
}

// Gantt renders an ASCII Gantt chart of node activity over [from, to),
// using width character columns. Each task is assigned a letter; idle time
// is '.', and a column where several segments overlap (sub-column
// granularity) shows the latest one.
func (tr *Tracer) Gantt(from, to simtime.Time, width int) string {
	if width < 10 {
		width = 10
	}
	if !to.After(from) || len(tr.events) == 0 {
		return "(empty trace)\n"
	}
	segs := tr.segments()
	nodes := map[int]bool{}
	letters := map[string]byte{}
	alphabet := "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	letterOf := func(task string) byte {
		if c, ok := letters[task]; ok {
			return c
		}
		c := alphabet[len(letters)%len(alphabet)]
		letters[task] = c
		return c
	}
	for _, e := range tr.events {
		nodes[e.Node] = true
	}
	ids := make([]int, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	span := float64(to.Sub(from))
	col := func(t simtime.Time) int {
		c := int(float64(t.Sub(from)) / span * float64(width))
		if c < 0 {
			return 0
		}
		if c >= width {
			return width - 1
		}
		return c
	}

	rows := make(map[int][]byte, len(ids))
	for _, id := range ids {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		rows[id] = row
	}
	for _, s := range segs {
		if !s.end.After(from) || !to.After(s.start) {
			continue
		}
		row := rows[s.node]
		if row == nil {
			continue
		}
		c0, c1 := col(s.start.Max(from)), col(s.end.Min(to))
		letter := letterOf(s.task)
		for c := c0; c <= c1 && c < width; c++ {
			row[c] = letter
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "gantt [%s, %s) — one column ≈ %.3f time units\n",
		from, to, span/float64(width))
	for _, id := range ids {
		fmt.Fprintf(&b, "node%-3d |%s|\n", id, rows[id])
	}
	// Legend, in first-appearance order.
	type entry struct {
		task   string
		letter byte
	}
	var legend []entry
	for task, c := range letters {
		legend = append(legend, entry{task, c})
	}
	sort.Slice(legend, func(i, j int) bool {
		if legend[i].letter != legend[j].letter {
			return legend[i].letter < legend[j].letter
		}
		return legend[i].task < legend[j].task
	})
	for _, e := range legend {
		fmt.Fprintf(&b, "  %c = %s\n", e.letter, e.task)
	}
	return b.String()
}

// QueueSample is the waiting-queue length of a node at an instant.
type QueueSample struct {
	At  simtime.Time
	Len int
}

// QueueLengths reconstructs the queue-length time series of one node
// (waiting items only, excluding the one in service). Membership is
// tracked per task label, so service aborts — which remove an item that
// was not waiting — do not distort the count.
func (tr *Tracer) QueueLengths(nodeID int) []QueueSample {
	var out []QueueSample
	waiting := map[string]bool{}
	for _, e := range tr.events {
		if e.Node != nodeID {
			continue
		}
		switch e.Kind {
		case KindEnqueue, KindPreempt:
			waiting[e.Task] = true
		case KindStart, KindAbort:
			delete(waiting, e.Task)
		default:
			continue
		}
		out = append(out, QueueSample{e.At, len(waiting)})
	}
	return out
}
