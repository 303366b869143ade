package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math"
	"strconv"

	"repro/internal/node"
	"repro/internal/simtime"
)

// Digest is a node.Observer that hashes the scheduling-event stream as it
// fires, without keeping an event log: each event's canonical line goes
// straight into one SHA-256 state through a reused buffer. Memory is
// bounded by the item pool, not by run length. The zero value is not
// usable; call NewDigest.
type Digest struct {
	h   hash.Hash
	buf []byte
	n   int

	// lastAt/atText memoize the formatted instant of the previous event:
	// events cluster on a few instants (a finish and the next start
	// share one), so the full-precision formatting is often reused.
	lastAt simtime.Time
	atText []byte

	// labels names unnamed tasks. Nodes recycle Item records, so the
	// generation tag tells successive incarnations apart: a new
	// generation takes the next id.
	labels map[*node.Item]label
	nextID int
}

type label struct {
	gen uint32
	id  int
}

var _ node.Observer = (*Digest)(nil)

// NewDigest returns an empty digest.
func NewDigest() *Digest {
	return &Digest{
		h:      sha256.New(),
		buf:    make([]byte, 0, 128),
		labels: make(map[*node.Item]label),
	}
}

// record hashes one event's canonical line:
//
//	kind|node|at|task|virtual deadline|boost
//
// with both instants at full precision. Unnamed tasks are labelled
// t<id>; record returns that id, or -1 for a named task.
func (d *Digest) record(kind Kind, n *node.Node, it *node.Item, at simtime.Time) int {
	b := d.buf[:0]
	b = strconv.AppendInt(b, int64(kind), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(n.ID()), 10)
	b = append(b, '|')
	if d.n == 0 || math.Float64bits(float64(at)) != math.Float64bits(float64(d.lastAt)) {
		d.lastAt = at
		d.atText = strconv.AppendFloat(d.atText[:0], float64(at), 'g', 17, 64)
	}
	b = append(b, d.atText...)
	b = append(b, '|')
	id := -1
	if name := it.Task.Name; name != "" {
		b = append(b, name...)
	} else {
		l, ok := d.labels[it]
		if !ok || l.gen != it.Generation() {
			l = label{gen: it.Generation(), id: d.nextID}
			d.nextID++
			d.labels[it] = l
		}
		id = l.id
		b = append(b, 't')
		b = strconv.AppendInt(b, int64(id), 10)
	}
	b = append(b, '|')
	b = strconv.AppendFloat(b, float64(it.Task.VirtualDeadline), 'g', 17, 64)
	b = append(b, '|')
	b = strconv.AppendBool(b, it.Task.PriorityBoost)
	b = append(b, '\n')
	d.h.Write(b)
	d.buf = b
	d.n++
	return id
}

// OnEnqueue implements node.Observer.
func (d *Digest) OnEnqueue(n *node.Node, it *node.Item, at simtime.Time) {
	d.record(KindEnqueue, n, it, at)
}

// OnStart implements node.Observer.
func (d *Digest) OnStart(n *node.Node, it *node.Item, at simtime.Time) {
	d.record(KindStart, n, it, at)
}

// OnFinish implements node.Observer.
func (d *Digest) OnFinish(n *node.Node, it *node.Item, at simtime.Time) {
	d.record(KindFinish, n, it, at)
}

// OnAbort implements node.Observer.
func (d *Digest) OnAbort(n *node.Node, it *node.Item, at simtime.Time) {
	d.record(KindAbort, n, it, at)
}

// OnPreempt implements node.Observer.
func (d *Digest) OnPreempt(n *node.Node, it *node.Item, at simtime.Time) {
	d.record(KindPreempt, n, it, at)
}

// Len returns the number of events hashed so far.
func (d *Digest) Len() int { return d.n }

// Hash returns a hex digest over the event stream so far. Two runs of the
// same deterministic model produce identical hashes; any divergence in
// event order, timing, task identity, deadline assignment or boost flag
// changes the digest. The scenario harness uses it for golden-trace
// regression tests.
func (d *Digest) Hash() string {
	return hex.EncodeToString(d.h.Sum(nil))[:32]
}
