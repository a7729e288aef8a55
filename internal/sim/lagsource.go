package sim

import "math/rand"

const (
	lagLen  = 607 // math/rand's rngLen: out[n] = out[n-lagLen] + out[n-lagTap]
	lagTap  = 273 // math/rand's rngTap
	lagMask = 1<<63 - 1
)

// lagSource is math/rand's Go 1 source (the additive lagged-Fibonacci
// generator behind rand.NewSource), producing the same values in blocks.
// From output lagLen on, out[n] = out[n-lagLen] + out[n-lagTap] (mod 2⁶⁴), so
// the lagTap outputs of one block depend only on earlier blocks and refill is
// one loop of independent adds. Seeding takes the first lagLen outputs from
// rand.NewSource itself, so the stdlib seeding table is not copied.
type lagSource struct {
	// buf[pos:] are the outputs not yet read. When they run out,
	// buf[lagTap:] holds the latest lagLen outputs, which refill moves to
	// the front before appending the next block.
	buf [lagLen + lagTap]uint64
	pos int
}

func newLagSource(seed int64) *lagSource {
	s := new(lagSource)
	s.Seed(seed)
	return s
}

// Seed implements rand.Source: the stream restarts as rand.NewSource(seed).
func (s *lagSource) Seed(seed int64) {
	std := rand.NewSource(seed).(rand.Source64)
	for i := lagTap; i < len(s.buf); i++ {
		s.buf[i] = std.Uint64()
	}
	s.pos = lagTap
}

func (s *lagSource) refill() {
	copy(s.buf[:lagLen], s.buf[lagTap:])
	for k := 0; k < lagTap; k++ {
		s.buf[lagLen+k] = s.buf[k] + s.buf[lagLen-lagTap+k]
	}
	s.pos = lagLen
}

// Uint64 implements rand.Source64.
func (s *lagSource) Uint64() uint64 {
	if s.pos == len(s.buf) {
		s.refill()
	}
	u := s.buf[s.pos]
	s.pos++
	return u
}

// Int63 implements rand.Source.
func (s *lagSource) Int63() int64 { return int64(s.Uint64() & lagMask) }

// float64 is math/rand's Rand.Float64 over s.
func (s *lagSource) float64() float64 {
	for {
		// Rounding can give exactly 1; math/rand redraws then.
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}
