package hough_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"colormatch/internal/color"
	"colormatch/internal/labware"
	"colormatch/internal/sim"
	"colormatch/internal/vision"
	"colormatch/internal/vision/aruco"
	"colormatch/internal/vision/hough"
	"colormatch/internal/vision/raster"
	"colormatch/internal/vision/render"
)

// plateFrame renders a noisy, vignetted plate photograph with filled wells of
// random colors (light ones included) and a random camera jitter of up to
// ±6 px, and returns its grayscale plane with the plate region the analyzer
// derives from the detected marker.
func plateFrame(tb testing.TB, a *vision.Analyzer, rng *sim.RNG, filled int) (*raster.Gray, hough.Rect) {
	tb.Helper()
	s := render.NewScene()
	s.JitterX, s.JitterY = rng.Uniform(-6, 6), rng.Uniform(-6, 6)
	for _, i := range rng.Perm(labware.PlateWells)[:filled] {
		s.Filled[i] = true
		s.WellColor[i] = color.RGB8{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))}
	}
	g := raster.FromRGBA(s.Render(a.Dict, rng.Derive("px")))
	nx, ny := a.Geom.MarkerCenter()
	marker, ok := aruco.Best(a.Dict.Detect(g), nx, ny)
	if !ok {
		tb.Fatal("no marker in rendered plate")
	}
	return g, a.Geom.PlateRegionFromMarker(marker)
}

// TestCirclesMatchReference pins CirclesScratch to the straightforward
// transform it replaced (circlesReference below): on rendered noisy plates,
// under both the analyzer's parameters and region and DefaultParams over the
// full frame, and on small random scenes under random parameters, the
// detections must be identical, order included. One Scratch serves every
// call, as in the analyzer.
func TestCirclesMatchReference(t *testing.T) {
	a := vision.NewAnalyzer()
	rng := sim.NewRNG(2024)
	var s hough.Scratch
	for iter := 0; iter < 50; iter++ {
		g, region := plateFrame(t, a, rng, rng.Intn(labware.PlateWells+1))
		for _, run := range []struct {
			p      hough.Params
			region hough.Rect
		}{
			{a.Hough, region},
			{hough.DefaultParams(), hough.Rect{X0: 0, Y0: 0, X1: g.W, Y1: g.H}},
		} {
			requireReference(t, fmt.Sprintf("plate %d region %+v", iter, run.region), g, run.region, run.p, &s)
		}
	}
	// Small synthetic scenes under random parameters reach what the plates
	// do not: radii down to 2, the minVotes floor of 3, and neighboring
	// radius planes whose vote maps differ sharply.
	for iter := 0; iter < 500; iter++ {
		img := raster.NewRGBA(90, 70, color.RGB8{R: 240, G: 240, B: 240})
		for n := 1 + rng.Intn(6); n > 0; n-- {
			shade := uint8(rng.Intn(200))
			raster.FillCircle(img, rng.Uniform(0, 90), rng.Uniform(0, 70), rng.Uniform(3, 14),
				color.RGB8{R: shade, G: shade, B: shade})
		}
		p := hough.Params{RMin: 2 + rng.Intn(8), MagThresh: rng.Uniform(20, 200), MinSupport: rng.Uniform(0.1, 0.7)}
		p.RMax = p.RMin + rng.Intn(8)
		requireReference(t, fmt.Sprintf("scene %d params %+v", iter, p), raster.FromRGBA(img),
			hough.Rect{X0: 0, Y0: 0, X1: 90, Y1: 70}, p, &s)
	}
}

func requireReference(t *testing.T, label string, g *raster.Gray, region hough.Rect, p hough.Params, s *hough.Scratch) {
	t.Helper()
	got := hough.CirclesScratch(g, region, p, s)
	want := circlesReference(g, region, p)
	if len(got) != len(want) {
		t.Fatalf("%s: %d circles, reference %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s circle %d: %+v, reference %+v", label, i, got[i], want[i])
		}
	}
}

// circlesReference is the transform without the magnitude pre-filter and row
// skipping: Hypot on every pixel, a separable box smooth of every row through
// a full horizontal-sum plane, and a peak scan over every smoothed cell.
func circlesReference(g *raster.Gray, region hough.Rect, p hough.Params) []hough.Circle {
	if p.RMin <= 0 || p.RMax < p.RMin {
		return nil
	}
	region.X1 = min(region.X1, g.W)
	region.Y1 = min(region.Y1, g.H)
	region.X0 = max(region.X0, 0)
	region.Y0 = max(region.Y0, 0)
	w := region.X1 - region.X0
	h := region.Y1 - region.Y0
	if w <= 0 || h <= 0 {
		return nil
	}
	nr := p.RMax - p.RMin + 1
	acc := make([]int32, nr*w*h)
	gx0, gy0 := max(region.X0, 1), max(region.Y0, 1)
	gx1, gy1 := min(region.X1, g.W-1), min(region.Y1, g.H-1)
	gw := g.W
	for y := gy0; y < gy1; y++ {
		up := g.Pix[(y-1)*gw : y*gw]
		mid := g.Pix[y*gw : (y+1)*gw]
		dn := g.Pix[(y+1)*gw : (y+2)*gw]
		for x := gx0; x < gx1; x++ {
			gx := -up[x-1] + up[x+1] +
				-2*mid[x-1] + 2*mid[x+1] +
				-dn[x-1] + dn[x+1]
			gy := -up[x-1] - 2*up[x] - up[x+1] +
				dn[x-1] + 2*dn[x] + dn[x+1]
			m := math.Hypot(gx, gy)
			if m < p.MagThresh {
				continue
			}
			cs, sn := gx/m, gy/m
			fx, fy := float64(x), float64(y)
			for ri := 0; ri < nr; ri++ {
				r := float64(p.RMin + ri)
				plane := acc[ri*w*h : (ri+1)*w*h]
				cx := int(fx + r*cs + 0.5)
				cy := int(fy + r*sn + 0.5)
				if region.Contains(cx, cy) {
					plane[(cy-region.Y0)*w+(cx-region.X0)]++
				}
				cx = int(fx - r*cs + 0.5)
				cy = int(fy - r*sn + 0.5)
				if region.Contains(cx, cy) {
					plane[(cy-region.Y0)*w+(cx-region.X0)]++
				}
			}
		}
	}

	var cands []hough.Circle
	smooth := make([]int32, w*h)
	rowSum := make([]int32, w*h)
	for ri := 0; ri < nr; ri++ {
		r := float64(p.RMin + ri)
		minVotes := int32(p.MinSupport * 2 * math.Pi * r)
		if minVotes < 3 {
			minVotes = 3
		}
		plane := acc[ri*w*h : (ri+1)*w*h]
		for y := 0; y < h; y++ {
			row := plane[y*w : (y+1)*w]
			dst := rowSum[y*w : (y+1)*w]
			for x := range row {
				sum := row[x]
				if x > 0 {
					sum += row[x-1]
				}
				if x < w-1 {
					sum += row[x+1]
				}
				dst[x] = sum
			}
		}
		for y := 0; y < h; y++ {
			dst := smooth[y*w : (y+1)*w]
			copy(dst, rowSum[y*w:(y+1)*w])
			if y > 0 {
				for x, v := range rowSum[(y-1)*w : y*w] {
					dst[x] += v
				}
			}
			if y < h-1 {
				for x, v := range rowSum[(y+1)*w : (y+2)*w] {
					dst[x] += v
				}
			}
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				v := smooth[y*w+x]
				if v < minVotes {
					continue
				}
				peak := true
				for dy := -1; dy <= 1 && peak; dy++ {
					for dx := -1; dx <= 1; dx++ {
						if dx == 0 && dy == 0 {
							continue
						}
						yy, xx := y+dy, x+dx
						if yy < 0 || yy >= h || xx < 0 || xx >= w {
							continue
						}
						n := smooth[yy*w+xx]
						if n > v || (n == v && (dy < 0 || (dy == 0 && dx < 0))) {
							peak = false
							break
						}
					}
				}
				if peak {
					cands = append(cands, hough.Circle{
						X: float64(x + region.X0), Y: float64(y + region.Y0), R: r, Votes: int(v),
					})
				}
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Votes > cands[j].Votes })

	minDist := p.MinDist
	if minDist <= 0 {
		minDist = float64(p.RMin)
	}
	var out []hough.Circle
	for _, c := range cands {
		dup := false
		for _, kept := range out {
			if math.Hypot(c.X-kept.X, c.Y-kept.Y) < minDist {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}
