package hough_test

import (
	"testing"

	"colormatch/internal/color"
	"colormatch/internal/sim"
	"colormatch/internal/vision"
	"colormatch/internal/vision/hough"
	"colormatch/internal/vision/raster"
)

// BenchmarkCircles measures the circle Hough transform over a plate-sized
// region of a clean synthetic image with a realistic well count. Almost no
// pixel off the well edges passes the magnitude threshold here; see
// BenchmarkCirclesPlate for a camera frame.
func BenchmarkCircles(b *testing.B) {
	img := raster.NewRGBA(640, 480, color.RGB8{R: 245, G: 245, B: 245})
	for r := 0; r < 8; r++ {
		for c := 0; c < 12; c++ {
			raster.FillCircle(img, 180+float64(c)*31.5, 160+float64(r)*31.5, 11.9,
				color.RGB8{R: 90, G: 70, B: 110})
		}
	}
	g := raster.FromRGBA(img)
	region := hough.Rect{X0: 130, Y0: 120, X1: 600, Y1: 440}
	p := hough.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = hough.CirclesScratch(g, region, p, &hough.Scratch{})
	}
}

// BenchmarkCirclesPlate measures the transform as the analyzer runs it: a
// rendered plate photograph with noise, vignetting and jitter, half its wells
// filled, under the analyzer's parameters and marker-derived plate region.
func BenchmarkCirclesPlate(b *testing.B) {
	a := vision.NewAnalyzer()
	g, region := plateFrame(b, a, sim.NewRNG(5), 48)
	var s hough.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = hough.CirclesScratch(g, region, a.Hough, &s)
	}
}
