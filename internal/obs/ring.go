package obs

// ringChunk is the length of one chunk of a ring's backing store.
const ringChunk = 1024

// ring is a bounded FIFO of at most max entries (max > 0). Storage grows
// in fixed chunks of ringChunk entries as the ring fills, the last chunk
// cut to max, so growing never copies and a slot keeps naming the same
// entry until that entry is evicted. Once full, each push overwrites the
// oldest entry.
type ring[T any] struct {
	chunks [][]T
	max    int
	head   int // slot of the oldest entry
	n      int // entries held
}

// at returns the entry in slot s.
func (r *ring[T]) at(s int) *T { return &r.chunks[s/ringChunk][s%ringChunk] }

// nth returns the i-th oldest entry.
func (r *ring[T]) nth(i int) *T { return r.at((r.head + i) % r.max) }

// len returns the number of entries held.
func (r *ring[T]) len() int { return r.n }

// push appends v and returns its slot. When the ring is full, v takes the
// oldest entry's slot and that entry is returned with evicted set.
func (r *ring[T]) push(v T) (s int, old T, evicted bool) {
	if r.n < r.max {
		// Nothing is evicted before the ring first fills, so the head
		// is still slot 0 and the free slots are [n, max).
		s = r.n
		if s%ringChunk == 0 {
			r.chunks = append(r.chunks, make([]T, min(ringChunk, r.max-s)))
		}
		r.n++
	} else {
		s = r.head
		r.head = (r.head + 1) % r.max
		old, evicted = *r.at(s), true
	}
	*r.at(s) = v
	return s, old, evicted
}
