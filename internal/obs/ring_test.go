package obs

import (
	"testing"

	"repro/internal/task"
)

// TestRingSlotsStable checks that growing the ring never moves an entry
// (the open-span index holds slots across growth), that wrapping evicts
// oldest first, and that storage stops at exactly max entries.
func TestRingSlotsStable(t *testing.T) {
	for _, max := range []int{1, 1000, 1024, 1025, 1500} {
		r := ring[int]{max: max}
		ptrs := make([]*int, max)
		for i := 0; i < max; i++ {
			s, _, evicted := r.push(i)
			if evicted || s != i {
				t.Fatalf("max %d: push %d took slot %d (evicted %v)", max, i, s, evicted)
			}
			ptrs[s] = r.at(s)
		}
		for s, p := range ptrs {
			if r.at(s) != p || *p != s {
				t.Fatalf("max %d: slot %d moved or changed while the ring grew", max, s)
			}
		}
		held := 0
		for _, c := range r.chunks {
			held += len(c)
		}
		if held != max {
			t.Fatalf("max %d: %d entries allocated", max, held)
		}
		for i := 0; i < max+7; i++ {
			s, old, evicted := r.push(max + i)
			if !evicted || s != i%max || old != i {
				t.Fatalf("max %d: wrap push %d: slot %d, evicted %v (%d)", max, i, s, evicted, old)
			}
			if r.at(s) != ptrs[s] {
				t.Fatalf("max %d: slot %d moved on wrap", max, s)
			}
		}
		if r.len() != max {
			t.Fatalf("max %d: len %d", max, r.len())
		}
		// After max+7 wrapping pushes the ring holds the last max values
		// pushed, oldest first.
		last := 2*max + 7
		for i := 0; i < max; i++ {
			if got, want := *r.nth(i), last-max+i; got != want {
				t.Fatalf("max %d: nth(%d) = %d, want %d", max, i, got, want)
			}
		}
	}
}

// BenchmarkObsSpanClose measures one span opened by a release and closed
// by its subtask outcome, with the span ring at its budget so every push
// evicts. The steady state allocates nothing.
func BenchmarkObsSpanClose(b *testing.B) {
	tel := New(Options{Enabled: true, MaxSpans: 4096})
	root := task.MustSimple("root", 0, 1)
	tasks := make([]*task.Task, 64)
	for i := range tasks {
		tasks[i] = task.MustSimple("s", i%4, 1)
		tasks[i].VirtualDeadline = 5
	}
	cycle := func(i int) {
		tk := tasks[i%len(tasks)]
		tel.OnRelease(tk, root, 0)
		tel.RecordSubtask(tk, false)
	}
	for i := 0; i < 2*4096; i++ {
		cycle(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(i)
	}
}
