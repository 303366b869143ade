// Package rng provides seeded, splittable random-number streams for the
// simulator.
//
// The paper's DeNet simulations draw from several independent stochastic
// processes (per-node local arrivals, a global arrival stream, service
// times, slack). To keep experiments reproducible and to decouple the
// processes statistically, each consumer receives its own Stream derived
// deterministically from a master seed via a SplitMix64 sequence. Changing
// one consumer's draw pattern therefore never perturbs another's.
package rng

import (
	"math"
	"math/rand/v2"
)

// Stream is a deterministic pseudo-random stream with the distribution
// helpers the simulation model needs. It is not safe for concurrent use;
// the simulator is single-threaded by design.
//
// The generator is the stdlib PCG (math/rand/v2), whose whole state is two
// words embedded in the Stream, so a simulation can afford one stream per
// node even at fleet scale.
type Stream struct {
	src rand.PCG
	r   rand.Rand // draws from src
	// buf backs Choose: k output slots plus a k-entry table of displaced
	// positions and their values. Reused across calls so per-task
	// placement draws do not allocate.
	buf []int
}

// NewStream returns a stream seeded with seed. The two PCG seed words are
// the next two SplitMix64 outputs after seed.
func NewStream(seed uint64) *Stream {
	s := &Stream{}
	s.src.Seed(splitmix64(&seed), splitmix64(&seed))
	s.r = *rand.New(&s.src)
	return s
}

// Splitter derives statistically independent child streams from one master
// seed. Every call to Stream returns the next child.
type Splitter struct {
	state uint64
}

// NewSplitter returns a splitter rooted at the master seed.
func NewSplitter(seed uint64) *Splitter {
	return &Splitter{state: seed}
}

// Stream returns the next derived child stream.
func (s *Splitter) Stream() *Stream {
	return NewStream(splitmix64(&s.state))
}

// Seed returns the next derived raw seed, for nesting splitters.
func (s *Splitter) Seed() uint64 {
	return splitmix64(&s.state)
}

// splitmix64 advances state and returns the next output of the SplitMix64
// generator (Steele, Lea & Flood 2014). It is used only for seed
// derivation, never as the simulation generator itself.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// Exp returns an exponential draw with the given mean.
// Exp panics if mean is not positive, because a non-positive mean is a
// programming error in workload construction, not a runtime condition.
func (s *Stream) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: exponential mean must be positive")
	}
	// Inverse-CDF; 1-U in (0,1] avoids log(0).
	return -mean * math.Log(1-s.r.Float64())
}

// Uniform returns a uniform draw in [lo, hi). It accepts lo == hi (a
// degenerate point distribution) and panics if lo > hi.
func (s *Stream) Uniform(lo, hi float64) float64 {
	if lo > hi {
		panic("rng: uniform bounds inverted")
	}
	return lo + (hi-lo)*s.r.Float64()
}

// LogUniform returns a draw whose logarithm is uniform on
// [log(lo), log(hi)]. It is used to model multiplicative execution-time
// estimation error ("off by a factor of f" in either direction).
// Both bounds must be positive.
func (s *Stream) LogUniform(lo, hi float64) float64 {
	if lo <= 0 || hi <= 0 || lo > hi {
		panic("rng: log-uniform bounds must be positive and ordered")
	}
	return math.Exp(s.Uniform(math.Log(lo), math.Log(hi)))
}

// IntN returns a uniform integer in [0, n). n must be positive.
func (s *Stream) IntN(n int) int { return s.r.IntN(n) }

// IntRange returns a uniform integer in the closed interval [lo, hi].
func (s *Stream) IntRange(lo, hi int) int {
	if lo > hi {
		panic("rng: int range inverted")
	}
	return lo + s.r.IntN(hi-lo+1)
}

// Choose returns k distinct integers drawn uniformly from [0, n) in random
// order: every ordered k-subset is equally likely. It panics if k > n,
// which would indicate an impossible request such as placing more
// parallel subtasks than there are nodes.
//
// The returned slice aliases a per-stream scratch buffer and is only
// valid until the next Choose call on the same stream; callers that need
// to keep it must copy.
//
// Choose is a sparse partial Fisher–Yates shuffle: for i < k it draws
// j = i + IntN(n-i) and swaps positions i and j of a virtual identity
// array of length n. Position i is final once swapped, so only positions
// beyond i that some swap displaced are stored, in a table of at most k
// entries. The cost is O(k) space and k IntN draws, whatever n is; the
// table lookup is a linear scan, which for fan-outs of a few nodes beats
// any hashing.
func (s *Stream) Choose(n, k int) []int {
	if k > n {
		panic("rng: cannot choose more elements than available")
	}
	if cap(s.buf) < 3*k {
		s.buf = make([]int, 3*k)
	}
	out, pos, val := s.buf[:k], s.buf[k:2*k], s.buf[2*k:3*k]
	m := 0 // table entries: position pos[t] holds val[t]
	for i := 0; i < k; i++ {
		j := i + s.r.IntN(n-i)
		vi, vj, jt := i, j, m
		for t := 0; t < m; t++ {
			if pos[t] == i {
				vi = val[t]
			}
			if pos[t] == j {
				vj, jt = val[t], t
			}
		}
		// Swap positions i and j. Position i is never read again, so
		// only j's new value is stored (harmlessly so when j == i).
		out[i] = vj
		pos[jt], val[jt] = j, vi
		if jt == m {
			m++
		}
	}
	return out
}

// PoissonProcess generates the arrival instants of a Poisson process with
// the given mean interarrival time. Next returns strictly increasing times.
type PoissonProcess struct {
	stream *Stream
	mean   float64
	now    float64
}

// NewPoissonProcess returns a Poisson arrival process starting at time 0
// with the given mean interarrival time (1/rate). A non-positive mean
// yields a process that never fires (Next reports ok=false), which models a
// disabled stream (e.g. frac_local = 1 disables global tasks).
func NewPoissonProcess(stream *Stream, meanInterarrival float64) *PoissonProcess {
	return &PoissonProcess{stream: stream, mean: meanInterarrival}
}

// Next returns the next arrival instant. ok is false when the process is
// disabled (non-positive mean interarrival time).
func (p *PoissonProcess) Next() (at float64, ok bool) {
	if p.mean <= 0 {
		return 0, false
	}
	p.now += p.stream.Exp(p.mean)
	return p.now, true
}

// Rate returns the arrival rate (1/mean), or 0 for a disabled process.
func (p *PoissonProcess) Rate() float64 {
	if p.mean <= 0 {
		return 0
	}
	return 1 / p.mean
}
