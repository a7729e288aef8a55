package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("draw %d: %v != %v for same seed", i, x, y)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 50; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same == 50 {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestDeriveIsDeterministicAndLabelSensitive(t *testing.T) {
	d1 := NewRNG(7).Derive("ot2")
	d2 := NewRNG(7).Derive("ot2")
	d3 := NewRNG(7).Derive("camera")
	x1, x2, x3 := d1.Float64(), d2.Float64(), d3.Float64()
	if x1 != x2 {
		t.Fatalf("same label derive differs: %v vs %v", x1, x2)
	}
	if x1 == x3 {
		t.Fatalf("different labels derive identically: %v", x1)
	}
}

func TestDeriveInsulatesStreams(t *testing.T) {
	// Draws on one derived stream must not perturb a sibling derived earlier.
	root := NewRNG(99)
	a := root.Derive("a")
	b := root.Derive("b")
	want := b.Float64()

	root2 := NewRNG(99)
	a2 := root2.Derive("a")
	for i := 0; i < 10; i++ {
		a2.Float64() // extra draws on a
	}
	b2 := root2.Derive("b")
	if got := b2.Float64(); got != want {
		t.Fatalf("sibling stream perturbed: %v != %v", got, want)
	}
	_ = a
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v out of range", v)
		}
	}
}

func TestJitterBounds(t *testing.T) {
	g := NewRNG(4)
	for i := 0; i < 1000; i++ {
		v := g.Jitter(100, 0.1)
		if v < 90 || v > 110+1e-9 {
			t.Fatalf("Jitter(100, 0.1) = %v out of [90,110]", v)
		}
	}
	if v := g.Jitter(100, 0); v != 100 {
		t.Fatalf("Jitter with frac=0 = %v, want 100", v)
	}
}

func TestNormalMoments(t *testing.T) {
	g := NewRNG(5)
	const n = 20000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := g.Normal(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.1 {
		t.Fatalf("sample mean %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.1 {
		t.Fatalf("sample stddev %v, want ~2", math.Sqrt(variance))
	}
}

func TestBoolEdgeCases(t *testing.T) {
	g := NewRNG(6)
	for i := 0; i < 100; i++ {
		if g.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !g.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if g.Bool(-0.5) {
			t.Fatal("Bool(<0) returned true")
		}
		if !g.Bool(1.5) {
			t.Fatal("Bool(>1) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	g := NewRNG(7)
	hits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if g.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.03 {
		t.Fatalf("Bool(0.3) frequency %v, want ~0.3", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	g := NewRNG(8)
	p := g.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm(20) invalid: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGConcurrentUse(t *testing.T) {
	g := NewRNG(9)
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 1000; j++ {
				g.Float64()
				g.Intn(10)
				g.NormFloat64()
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}

// tapSource is a math/rand source that remembers the first value each
// NormFloat64 call draws, so the test can tell which ziggurat path it took.
type tapSource struct {
	rand.Source64
	first uint64
	n     int
}

func (t *tapSource) Int63() int64 {
	v := t.Source64.Int63()
	if t.n == 0 {
		t.first = uint64(v)
	}
	t.n++
	return v
}

// streamCheck compares an RNG draw for draw with the math/rand stream it
// must reproduce and counts the ziggurat paths the normal draws took.
type streamCheck struct {
	t            *testing.T
	seed         int64
	got          *RNG
	want         *rand.Rand
	tap          *tapSource
	wedge, tail  int
	draws, fills int
}

func newStreamCheck(t *testing.T, seed int64) *streamCheck {
	tap := &tapSource{Source64: rand.NewSource(seed).(rand.Source64)}
	return &streamCheck{t: t, seed: seed, got: NewRNG(seed), want: rand.New(tap), tap: tap}
}

func (c *streamCheck) same(what string, got, want float64) {
	c.t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		c.t.Fatalf("seed %d, %s: got %v (%#x), math/rand gives %v (%#x)",
			c.seed, what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// norm is the reference NormFloat64, classifying the path from the first
// value it drew: a fast-path miss on strip 0 goes to the tail, any other
// miss to a wedge.
func (c *streamCheck) norm() float64 {
	c.tap.n = 0
	v := c.want.NormFloat64()
	j := int32(uint32(c.tap.first >> 31))
	if i := j & 0x7F; absInt32(j) >= kn[i] {
		if i == 0 {
			c.tail++
		} else {
			c.wedge++
		}
	}
	c.draws++
	return v
}

func (c *streamCheck) fill(n int) {
	c.t.Helper()
	dst := make([]float64, n)
	c.got.NormFloat64Fill(dst)
	for i, v := range dst {
		c.same(fmt.Sprintf("fill %d of %d, deviate %d", c.fills, n, i), v, c.norm())
	}
	c.fills++
}

// mixed interleaves every RNG method with fills of lengths that straddle
// the source's block (273) and lag (607) sizes.
func (c *streamCheck) mixed(derive bool) {
	c.t.Helper()
	for _, n := range []int{0, 1, 272, 273, 274, 606, 607, 608, 1920} {
		c.fill(n)
		c.same("Float64", c.got.Float64(), c.want.Float64())
		c.same("Intn(7)", float64(c.got.Intn(7)), float64(c.want.Intn(7)))
		c.same("Intn(1<<40)", float64(c.got.Intn(1<<40)), float64(c.want.Intn(1<<40)))
		c.same("Int63", float64(c.got.Int63()), float64(c.want.Int63()))
		c.same("NormFloat64", c.got.NormFloat64(), c.norm())
		c.same("Normal", c.got.Normal(3, 0.5), 3+0.5*c.norm())
		gp, wp := c.got.Perm(n%13), c.want.Perm(n%13)
		gs, ws := []int{0, 1, 2, 3, 4, 5}, []int{0, 1, 2, 3, 4, 5}
		c.got.Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
		c.want.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
		if fmt.Sprint(gp, gs) != fmt.Sprint(wp, ws) {
			c.t.Fatalf("seed %d: Perm/Shuffle %v %v, math/rand gives %v %v", c.seed, gp, gs, wp, ws)
		}
		if c.got.Bool(0.4) != (c.want.Float64() < 0.4) {
			c.t.Fatalf("seed %d: Bool(0.4) disagrees with math/rand", c.seed)
		}
		frac := 0.2
		lo, hi := 1-frac, 1+frac
		c.same("Jitter", c.got.Jitter(10, frac), 10*(lo+(hi-lo)*c.want.Float64()))
		if derive {
			label := fmt.Sprintf("child-%d", n)
			seed := c.want.Int63()
			for _, b := range []byte(label) {
				seed = seed*1099511628211 + int64(b)
			}
			child := newStreamCheck(c.t, seed)
			child.got = c.got.Derive(label)
			child.fill(n)
			child.same("derived Float64", child.got.Float64(), child.want.Float64())
			c.wedge, c.tail, c.draws = c.wedge+child.wedge, c.tail+child.tail, c.draws+child.draws
		}
	}
}

// TestRNGMatchesMathRand pins that NewRNG(seed) is math/rand's stream for
// seed, draw for draw and bit for bit, whichever methods are interleaved.
// The seeds include 0, negatives and multiples of 2³¹−1, which math/rand's
// seeding remaps.
func TestRNGMatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, 2, 42, -1, -7, -m, m, 2 * m, -3 * m, m + 1, math.MaxInt64, math.MinInt64}
	for i := int64(0); i < 8; i++ {
		seeds = append(seeds, i*7919+1e9, -(i*104729 + 1))
	}
	var wedge, tail, draws int
	for _, seed := range seeds {
		c := newStreamCheck(t, seed)
		for round := 0; round < 3; round++ {
			c.mixed(round == 0)
		}
		wedge, tail, draws = wedge+c.wedge, tail+c.tail, draws+c.draws
	}
	if wedge == 0 || tail == 0 {
		t.Fatalf("over %d normal draws the wedge path ran %d times and the tail path %d; want both", draws, wedge, tail)
	}
	t.Logf("%d normal draws: %d wedge, %d tail", draws, wedge, tail)
}

// TestNormFloat64FillAllocFree pins that the render hot loop's noise draws
// allocate nothing, refills of the source's block included.
func TestNormFloat64FillAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation may allocate; exact allocation counts don't hold")
	}
	g := NewRNG(1)
	row := make([]float64, 1920)
	if n := testing.AllocsPerRun(100, func() { g.NormFloat64Fill(row) }); n != 0 {
		t.Fatalf("NormFloat64Fill allocates %.1f times per call, want 0", n)
	}
}
