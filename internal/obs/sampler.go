package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/des"
	"repro/internal/simtime"
)

// Probe is one sampled series: a name and a reader evaluated at every
// sampler tick. Readers run on the simulation goroutine and must not
// mutate model state.
type Probe struct {
	Name string
	Read func() float64
}

// Sampler snapshots a set of probes on a fixed sim-time cadence into
// ring buffers: storage grows in fixed chunks up to the ring capacity,
// after which a tick allocates nothing, and when the run outlives the
// capacity the oldest samples are overwritten, keeping the most recent
// window.
type Sampler struct {
	every  simtime.Duration
	probes []Probe

	// times holds the sample instants and vals[i] probe i's readings.
	// They are pushed in lockstep, so position j of each is one row.
	times ring[float64]
	vals  []ring[float64]
	ticks uint64 // total ticks fired (>= retained when the ring wrapped)

	// onTick, when set, runs after each sample on the simulation
	// goroutine. Like probes it must not mutate model state; the live
	// observability server uses it to publish snapshots.
	onTick func(now simtime.Time)
}

// SetOnTick registers fn to run after every sample. Pass nil to clear.
func (s *Sampler) SetOnTick(fn func(now simtime.Time)) { s.onTick = fn }

// newSampler returns a sampler retaining up to capacity samples of the
// given probes.
func newSampler(every simtime.Duration, capacity int, probes []Probe) *Sampler {
	s := &Sampler{
		every:  every,
		probes: probes,
		times:  ring[float64]{max: capacity},
		vals:   make([]ring[float64], len(probes)),
	}
	for i := range s.vals {
		s.vals[i].max = capacity
	}
	return s
}

// arm schedules the tick chain on eng: ticks fire every interval up to
// and including the horizon, then stop, so draining the calendar after
// the horizon terminates. Each tick only reads probes — it never mutates
// model state, so interleaving ticks with model events cannot change the
// model's event order.
func (s *Sampler) arm(eng *des.Engine, horizon simtime.Time) error {
	var tick func()
	next := eng.Now().Add(s.every)
	tick = func() {
		s.sample(eng.Now())
		at := eng.Now().Add(s.every)
		if at.After(horizon) {
			return
		}
		if _, err := eng.After(s.every, tick); err != nil {
			panic(fmt.Sprintf("obs: reschedule sampler tick: %v", err))
		}
	}
	if next.After(horizon) {
		return nil
	}
	_, err := eng.At(next, tick)
	return err
}

// sample records one snapshot at instant now.
func (s *Sampler) sample(now simtime.Time) {
	s.ticks++
	s.times.push(float64(now))
	for i, p := range s.probes {
		s.vals[i].push(p.Read())
	}
	if s.onTick != nil {
		s.onTick(now)
	}
}

// Ticks returns the number of sampler events fired so far.
func (s *Sampler) Ticks() uint64 { return s.ticks }

// Len returns the number of retained samples (after ring eviction).
func (s *Sampler) Len() int { return s.times.len() }

// Series returns the retained time axis and the values of the named
// probe, oldest first. It returns nil slices for an unknown name.
func (s *Sampler) Series(name string) (times, values []float64) {
	pi := -1
	for i, p := range s.probes {
		if p.Name == name {
			pi = i
			break
		}
	}
	if pi < 0 {
		return nil, nil
	}
	times = make([]float64, s.Len())
	values = make([]float64, s.Len())
	for i := range times {
		times[i] = *s.times.nth(i)
		values[i] = *s.vals[pi].nth(i)
	}
	return times, values
}

// ProbeNames returns the sampled series names in registration order.
func (s *Sampler) ProbeNames() []string {
	names := make([]string, len(s.probes))
	for i, p := range s.probes {
		names[i] = p.Name
	}
	return names
}

// WriteCSV writes the retained samples as CSV: a "time,<probe>,..."
// header followed by one row per tick, oldest first, full float64
// precision (%g) for bit-stable goldens.
func (s *Sampler) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("time")
	for _, p := range s.probes {
		b.WriteByte(',')
		b.WriteString(p.Name)
	}
	b.WriteByte('\n')
	for i := 0; i < s.Len(); i++ {
		b.WriteString(strconv.FormatFloat(*s.times.nth(i), 'g', -1, 64))
		for pi := range s.vals {
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(*s.vals[pi].nth(i), 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
