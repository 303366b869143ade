package rng

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestStreamDeterminism(t *testing.T) {
	a := NewStream(42)
	b := NewStream(42)
	for i := 0; i < 100; i++ {
		if av, bv := a.Float64(), b.Float64(); av != bv {
			t.Fatalf("draw %d diverged: %v vs %v", i, av, bv)
		}
	}
}

func TestSplitterIndependentChildren(t *testing.T) {
	sp := NewSplitter(7)
	a := sp.Stream()
	b := sp.Stream()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("sibling streams coincide on %d of 100 draws", same)
	}
}

func TestSplitterDeterminism(t *testing.T) {
	s1 := NewSplitter(99)
	s2 := NewSplitter(99)
	for i := 0; i < 10; i++ {
		if s1.Seed() != NewSplitter(99).state && s1.Seed() == 0 {
			t.Fatal("unreachable sanity branch")
		}
		_ = i
	}
	a := NewSplitter(123)
	b := NewSplitter(123)
	for i := 0; i < 5; i++ {
		if a.Seed() != b.Seed() {
			t.Fatalf("splitter diverged at child %d", i)
		}
	}
	_ = s2
}

func TestExpMean(t *testing.T) {
	s := NewStream(1)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exp(2.0)
	}
	mean := sum / n
	if math.Abs(mean-2.0) > 0.05 {
		t.Errorf("empirical mean %v, want ~2.0", mean)
	}
}

func TestExpPositive(t *testing.T) {
	s := NewStream(2)
	for i := 0; i < 10000; i++ {
		if v := s.Exp(1); v < 0 {
			t.Fatalf("exponential draw %v < 0", v)
		}
	}
}

func TestExpPanicsOnBadMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Exp(0) did not panic")
		}
	}()
	NewStream(1).Exp(0)
}

func TestUniformBounds(t *testing.T) {
	s := NewStream(3)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(1.25, 5.0)
		if v < 1.25 || v >= 5.0 {
			t.Fatalf("uniform draw %v outside [1.25, 5)", v)
		}
	}
}

func TestUniformDegenerate(t *testing.T) {
	s := NewStream(4)
	if v := s.Uniform(3, 3); v != 3 {
		t.Errorf("degenerate uniform = %v, want 3", v)
	}
}

func TestUniformMean(t *testing.T) {
	s := NewStream(5)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Uniform(1.25, 5.0)
	}
	want := (1.25 + 5.0) / 2
	if got := sum / n; math.Abs(got-want) > 0.03 {
		t.Errorf("uniform mean %v, want ~%v", got, want)
	}
}

func TestLogUniformBounds(t *testing.T) {
	s := NewStream(6)
	for i := 0; i < 10000; i++ {
		v := s.LogUniform(0.5, 2.0)
		if v < 0.5 || v > 2.0 {
			t.Fatalf("log-uniform draw %v outside [0.5, 2]", v)
		}
	}
}

func TestLogUniformSymmetry(t *testing.T) {
	// log-uniform on [1/2, 2] should be above and below 1 about equally.
	s := NewStream(7)
	above := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.LogUniform(0.5, 2.0) > 1 {
			above++
		}
	}
	frac := float64(above) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("fraction above 1 = %v, want ~0.5", frac)
	}
}

func TestIntRange(t *testing.T) {
	s := NewStream(8)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := s.IntRange(2, 6)
		if v < 2 || v > 6 {
			t.Fatalf("IntRange draw %d outside [2,6]", v)
		}
		seen[v] = true
	}
	for v := 2; v <= 6; v++ {
		if !seen[v] {
			t.Errorf("value %d never drawn", v)
		}
	}
}

func TestChooseDistinct(t *testing.T) {
	s := NewStream(9)
	f := func(seed uint8) bool {
		n := 6
		k := 1 + int(seed)%n
		picked := s.Choose(n, k)
		if len(picked) != k {
			return false
		}
		sorted := append([]int(nil), picked...)
		sort.Ints(sorted)
		for i := 1; i < len(sorted); i++ {
			if sorted[i] == sorted[i-1] {
				return false
			}
		}
		for _, v := range picked {
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChoosePanicsWhenImpossible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Choose(2,3) did not panic")
		}
	}()
	NewStream(1).Choose(2, 3)
}

func TestPoissonProcessIncreasing(t *testing.T) {
	p := NewPoissonProcess(NewStream(10), 0.5)
	prev := 0.0
	for i := 0; i < 1000; i++ {
		at, ok := p.Next()
		if !ok {
			t.Fatal("process unexpectedly disabled")
		}
		if at <= prev {
			t.Fatalf("arrival %d not increasing: %v <= %v", i, at, prev)
		}
		prev = at
	}
}

func TestPoissonProcessRate(t *testing.T) {
	p := NewPoissonProcess(NewStream(11), 0.25)
	if got := p.Rate(); math.Abs(got-4.0) > 1e-12 {
		t.Errorf("Rate = %v, want 4", got)
	}
	const horizon = 50000.0
	count := 0
	for {
		at, ok := p.Next()
		if !ok || at > horizon {
			break
		}
		count++
	}
	got := float64(count) / horizon
	if math.Abs(got-4.0) > 0.1 {
		t.Errorf("empirical rate %v, want ~4", got)
	}
}

func TestPoissonProcessDisabled(t *testing.T) {
	p := NewPoissonProcess(NewStream(12), 0)
	if _, ok := p.Next(); ok {
		t.Error("disabled process produced an arrival")
	}
	if p.Rate() != 0 {
		t.Errorf("disabled rate = %v, want 0", p.Rate())
	}
}

func TestChooseFullIsPermutation(t *testing.T) {
	s := NewStream(13)
	p := append([]int(nil), s.Choose(10, 10)...)
	sort.Ints(p)
	for i, v := range p {
		if i != v {
			t.Fatalf("Choose(10, 10) missing %d", i)
		}
	}
}

// chiSquareCritical returns the upper 0.1% point of the chi-square
// distribution with df degrees of freedom (Wilson–Hilferty), so a
// uniform sampler fails a test about once per thousand seeds.
func chiSquareCritical(df int) float64 {
	const z = 3.0902 // standard normal 0.999 quantile
	d := float64(df)
	c := 2 / (9 * d)
	return d * math.Pow(1-c+z*math.Sqrt(c), 3)
}

func chiSquare(counts []int, expected float64) float64 {
	x := 0.0
	for _, c := range counts {
		diff := float64(c) - expected
		x += diff * diff / expected
	}
	return x
}

// TestChooseOrderedUniform checks that every ordered 3-subset of [0, 7)
// is equally likely. A sampler that is uniform over sets but not over
// orders (Floyd's algorithm alone) fails this.
func TestChooseOrderedUniform(t *testing.T) {
	const n, k, cells, perCell = 7, 3, 7 * 6 * 5, 1000
	s := NewStream(14)
	counts := make([]int, n*n*n)
	for i := 0; i < cells*perCell; i++ {
		c := s.Choose(n, k)
		counts[(c[0]*n+c[1])*n+c[2]]++
	}
	seen := make([]int, 0, cells)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			for c := 0; c < n; c++ {
				idx := (a*n+b)*n + c
				if a == b || b == c || a == c {
					if counts[idx] != 0 {
						t.Fatalf("tuple (%d,%d,%d) repeats an element", a, b, c)
					}
					continue
				}
				seen = append(seen, counts[idx])
			}
		}
	}
	if len(seen) != cells {
		t.Fatalf("%d ordered tuples, want %d", len(seen), cells)
	}
	x, crit := chiSquare(seen, perCell), chiSquareCritical(cells-1)
	t.Logf("chi-square %.1f over %d df (critical %.1f)", x, cells-1, crit)
	if x > crit {
		t.Errorf("chi-square %.1f over %d df exceeds %.1f", x, cells-1, crit)
	}
}

// TestChooseMarginalUniform checks that at fleet scale every node is
// picked equally often, overall and at each output position.
func TestChooseMarginalUniform(t *testing.T) {
	const n, k, trials, bins = 10000, 4, 250000, 100
	s := NewStream(15)
	perNode := make([]int, n)
	perPos := make([][]int, k)
	for p := range perPos {
		perPos[p] = make([]int, bins)
	}
	for i := 0; i < trials; i++ {
		for p, v := range s.Choose(n, k) {
			perNode[v]++
			perPos[p][v*bins/n]++
		}
	}
	if x, crit := chiSquare(perNode, float64(trials*k)/n), chiSquareCritical(n-1); x > crit {
		t.Errorf("node frequencies: chi-square %.1f over %d df exceeds %.1f", x, n-1, crit)
	}
	for p, counts := range perPos {
		if x, crit := chiSquare(counts, float64(trials)/bins), chiSquareCritical(bins-1); x > crit {
			t.Errorf("position %d: chi-square %.1f over %d df exceeds %.1f", p, x, bins-1, crit)
		}
	}
}

func TestChooseConsumesKDraws(t *testing.T) {
	a, b := NewStream(16), NewStream(16)
	a.Choose(10000, 4)
	for i := 0; i < 4; i++ {
		b.IntN(2)
	}
	if av, bv := a.Float64(), b.Float64(); av != bv {
		t.Errorf("after Choose(10000, 4) the stream is not 4 draws in: %v vs %v", av, bv)
	}
}

func TestChooseNoAllocsAndSmallScratch(t *testing.T) {
	s := NewStream(17)
	s.Choose(10000, 4)
	if allocs := testing.AllocsPerRun(1000, func() { s.Choose(10000, 4) }); allocs != 0 {
		t.Errorf("warmed Choose(10000, 4) allocates %v times per call", allocs)
	}
	if c := cap(s.buf); c > 3*4 {
		t.Errorf("Choose(10000, 4) scratch holds %d ints, want at most 12", c)
	}
}

// TestSplitterSiblingsIndependent checks sibling streams pairwise: their
// draws are uncorrelated, and jointly uniform over a 10x10 grid.
func TestSplitterSiblingsIndependent(t *testing.T) {
	const draws, grid = 100000, 10
	sp := NewSplitter(18)
	streams := make([]*Stream, 4)
	for i := range streams {
		streams[i] = sp.Stream()
	}
	xs := make([][]float64, len(streams))
	for i, s := range streams {
		xs[i] = make([]float64, draws)
		for d := range xs[i] {
			xs[i][d] = s.Float64()
		}
	}
	for i := range xs {
		for j := i + 1; j < len(xs); j++ {
			var sa, sb, sab, saa, sbb float64
			joint := make([]int, grid*grid)
			for d := 0; d < draws; d++ {
				a, b := xs[i][d], xs[j][d]
				sa, sb, sab, saa, sbb = sa+a, sb+b, sab+a*b, saa+a*a, sbb+b*b
				joint[int(a*grid)*grid+int(b*grid)]++
			}
			n := float64(draws)
			r := (sab - sa*sb/n) / math.Sqrt((saa-sa*sa/n)*(sbb-sb*sb/n))
			if math.Abs(r) > 4/math.Sqrt(n) {
				t.Errorf("siblings %d and %d correlate: r = %.4f", i, j, r)
			}
			if x, crit := chiSquare(joint, n/(grid*grid)), chiSquareCritical(grid*grid-1); x > crit {
				t.Errorf("siblings %d and %d: joint chi-square %.1f exceeds %.1f", i, j, x, crit)
			}
		}
	}
}

// Benchmark results land in package-level sinks so the compiler cannot
// drop the measured calls.
var (
	sinkInts   []int
	sinkStream *Stream
)

func BenchmarkChoose(b *testing.B) {
	for _, n := range []int{6, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := NewStream(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkInts = s.Choose(n, 4)
			}
		})
	}
}

func BenchmarkNewStream(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkStream = NewStream(uint64(i))
	}
}
