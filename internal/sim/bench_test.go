package sim

import (
	"sync"
	"testing"
	"time"
)

// BenchmarkSimClockSleepSingle is the untracked-simulation fast path: no
// registered workers, every Sleep advances the clock directly.
func BenchmarkSimClockSleepSingle(b *testing.B) {
	c := NewSimClock()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Sleep(time.Millisecond)
	}
}

// BenchmarkSimClockWorkers measures the contended path a fleet run exercises:
// many registered workers sleeping concurrently, the clock advancing via the
// sleeper min-heap each time the pool quiesces.
func BenchmarkSimClockWorkers(b *testing.B) {
	for _, workers := range []int{4, 32} {
		b.Run(map[int]string{4: "4", 32: "32"}[workers], func(b *testing.B) {
			c := NewSimClock()
			c.AddWorker(workers)
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					defer c.DoneWorker()
					d := time.Duration(w+1) * time.Millisecond
					for i := 0; i < b.N; i++ {
						c.Sleep(d)
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// BenchmarkSimClockAdvance drives a large sleeper population through Advance,
// the test-harness path that exercises heap pop without the worker gating.
func BenchmarkSimClockAdvance(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := NewSimClock()
		c.AddWorker(64 + 1) // gate advances so sleepers pile up
		var wg sync.WaitGroup
		for w := 0; w < 64; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				defer c.DoneWorker()
				c.Sleep(time.Duration(w+1) * time.Second)
			}(w)
		}
		for {
			c.mu.Lock()
			n := len(c.sleeper)
			c.mu.Unlock()
			if n == 64 {
				break
			}
		}
		b.StartTimer()
		c.Advance(65 * time.Second)
		b.StopTimer()
		c.DoneWorker()
		wg.Wait()
		b.StartTimer()
	}
}

// BenchmarkNormFloat64Fill draws one render row's noise: 640 pixels × 3
// subpixels of standard normal deviates.
func BenchmarkNormFloat64Fill(b *testing.B) {
	g := NewRNG(1)
	row := make([]float64, 1920)
	b.ReportAllocs()
	b.SetBytes(int64(8 * len(row)))
	for b.Loop() {
		g.NormFloat64Fill(row)
	}
}
