// Package hough implements the circle Hough transform used to locate
// microplate wells, standing in for OpenCV's HoughCircles: "With the
// HoughCircles algorithm from OpenCV, we can detect circular features in the
// image to precisely identify the center of wells. As this method is prone
// to false negatives..." — the same false-negative behavior emerges here on
// low-contrast wells, which is what makes the downstream grid-alignment
// recovery step (package plategrid) necessary and testable.
package hough

import (
	"math"
	"slices"
	"sort"

	"colormatch/internal/vision/raster"
)

// Circle is one detected circle with its accumulator support.
type Circle struct {
	X, Y  float64
	R     float64
	Votes int
}

// Rect restricts the search region (inclusive-exclusive pixel bounds).
type Rect struct {
	X0, Y0, X1, Y1 int
}

// Contains reports whether (x,y) lies in the rectangle.
func (r Rect) Contains(x, y int) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// Params tunes the transform.
type Params struct {
	RMin, RMax int     // radius search range in pixels, inclusive
	MagThresh  float64 // Sobel magnitude below which a pixel casts no votes
	// MinSupport is the fraction of a circle's perimeter that must vote for
	// a candidate center; circles below it are dropped. This is the knob
	// that makes light wells (weak edges) go undetected, as in the paper.
	MinSupport float64
	// MinDist is the minimum center distance between reported circles
	// (non-maximum suppression radius). Zero defaults to RMin.
	MinDist float64
}

// DefaultParams returns parameters tuned for plate wells of ~10-13px radius.
func DefaultParams() Params {
	return Params{RMin: 9, RMax: 14, MagThresh: 60, MinSupport: 0.5}
}

// Scratch holds the accumulator and candidate buffers for the transform so a
// long campaign of same-sized photos allocates them once. The slice returned
// by CirclesScratch is backed by it and only valid until the next call.
type Scratch struct {
	acc    []int32
	smooth []int32
	ring   []int32 // horizontal 3-sums of three rows, plus one zero row
	rowMax []int32 // per-row maximum of smooth
	cands  []Circle
	out    []Circle
}

func grow(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// CirclesScratch runs a gradient-voting circle Hough transform over the region
// of g. Each strong edge pixel votes for centers at distance r along
// ±gradient for every candidate radius. Local accumulator maxima with
// sufficient perimeter support are returned, strongest first, after
// non-maximum suppression. The gradient is computed and consumed in a single
// fused pass over the region, and all accumulator memory lives in s.
func CirclesScratch(g *raster.Gray, region Rect, p Params, s *Scratch) []Circle {
	if p.RMin <= 0 || p.RMax < p.RMin {
		return nil
	}
	if region.X1 > g.W {
		region.X1 = g.W
	}
	if region.Y1 > g.H {
		region.Y1 = g.H
	}
	if region.X0 < 0 {
		region.X0 = 0
	}
	if region.Y0 < 0 {
		region.Y0 = 0
	}
	w := region.X1 - region.X0
	h := region.Y1 - region.Y0
	if w <= 0 || h <= 0 {
		return nil
	}
	nr := p.RMax - p.RMin + 1
	s.acc = grow(s.acc, nr*w*h)
	acc := s.acc

	// Fused gradient+vote pass. A pixel's votes depend only on its own 3×3
	// Sobel neighborhood, so there is no need to materialize full magnitude
	// and direction planes: compute the gradient where it is needed (the
	// region, minus the image border where Sobel is defined as zero) and cast
	// votes immediately. cos/sin of the gradient angle are gx/m and gy/m —
	// same direction vector the atan2-based formulation produced, without the
	// transcendental round trip.
	gx0, gy0 := region.X0, region.Y0
	if gx0 < 1 {
		gx0 = 1
	}
	if gy0 < 1 {
		gy0 = 1
	}
	gx1, gy1 := region.X1, region.Y1
	if gx1 > g.W-1 {
		gx1 = g.W - 1
	}
	if gy1 > g.H-1 {
		gy1 = g.H - 1
	}
	// |gx|+|gy| bounds the true magnitude from above and Hypot is within a
	// few ulps of the true magnitude, so a pixel whose L1 sum falls short of
	// the threshold by the 1e-9 margin cannot pass the exact Hypot test: the
	// pre-filter skips the flat majority of the frame without changing a vote.
	l1Thresh := p.MagThresh * (1 - 1e-9)
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
			if math.Abs(gx)+math.Abs(gy) < l1Thresh {
				continue
			}
			m := math.Hypot(gx, gy)
			if m < p.MagThresh {
				continue
			}
			cs, sn := gx/m, gy/m
			fx, fy := float64(x), float64(y)
			for ri := 0; ri < nr; ri++ {
				r := float64(p.RMin + ri)
				// Vote on both sides: wells may be darker or lighter than
				// the plate, so the gradient can point either way.
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

	// Quantization spreads a circle's votes over a small neighborhood of the
	// true center, so peaks are found on a 3×3 box sum of each radius plane.
	// One fused pass per plane builds it separably: the clamped horizontal
	// 3-sums of rows y-1..y+1 sit in a ring (a zero row stands in past the
	// edges), and their vertical sum goes to smooth, identical integers to
	// the direct 9-point sum. A row whose three horizontal maxima add up to
	// less than minVotes cannot reach minVotes anywhere, so its vertical sum
	// is skipped and its rowMax is 0. Either way rowMax[y] < minVotes means
	// row y holds no candidate, and no cell that could tie or beat one in a
	// neighboring row, so the smooth cells of such rows are never read.
	cands := s.cands[:0]
	s.smooth = grow(s.smooth, w*h)
	s.ring = grow(s.ring, 4*w)
	s.rowMax = grow(s.rowMax, h)
	smooth, ring, rowMax := s.smooth, s.ring, s.rowMax
	zero := ring[3*w:]
	for ri := 0; ri < nr; ri++ {
		r := float64(p.RMin + ri)
		minVotes := int32(p.MinSupport * 2 * math.Pi * r)
		if minVotes < 3 {
			minVotes = 3
		}
		plane := acc[ri*w*h : (ri+1)*w*h]
		above, cur := zero, ring[:w]
		hmA, hmC := int32(0), hsum3(cur, plane[:w])
		for y := 0; y < h; y++ {
			below, hmB := zero, int32(0)
			if y+1 < h {
				below = ring[(y+1)%3*w:][:w]
				hmB = hsum3(below, plane[(y+1)*w:(y+2)*w])
			}
			m := int32(0)
			if hmA+hmC+hmB >= minVotes {
				dst, a, b := smooth[y*w:][:len(cur)], above[:len(cur)], below[:len(cur)]
				for x, v := range cur {
					v += a[x] + b[x]
					dst[x] = v
					m = max(m, v)
				}
			}
			rowMax[y] = m
			above, cur = cur, below
			hmA, hmC = hmC, hmB
		}
		// Strict local maxima in (y, x) order; ties go to the neighbor
		// earlier in raster order, so a cell must beat the row above and its
		// left neighbor outright and at least match the rest. A neighbor row
		// whose maximum cannot tie or beat v is not read.
		for y := 0; y < h; y++ {
			if rowMax[y] < minVotes {
				continue
			}
			row := smooth[y*w : (y+1)*w]
			for x, v := range row {
				if v < minVotes {
					continue
				}
				x0, x1 := max(x-1, 0), min(x+2, w)
				if (x > 0 && row[x-1] >= v) || (x+1 < w && row[x+1] > v) ||
					(y > 0 && rowMax[y-1] >= v && slices.Max(smooth[(y-1)*w+x0:(y-1)*w+x1]) >= v) ||
					(y+1 < h && rowMax[y+1] > v && slices.Max(smooth[(y+1)*w+x0:(y+1)*w+x1]) > v) {
					continue
				}
				cands = append(cands, Circle{
					X:     float64(x + region.X0),
					Y:     float64(y + region.Y0),
					R:     r,
					Votes: int(v),
				})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Votes > cands[j].Votes })
	s.cands = cands

	minDist := p.MinDist
	if minDist <= 0 {
		minDist = float64(p.RMin)
	}
	out := s.out[:0]
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
	s.out = out
	return out
}

// hsum3 writes the horizontal 3-sums of row into dst, with cells beyond either
// end counting as zero, and returns their maximum.
func hsum3(dst, row []int32) int32 {
	dst = dst[:len(row)]
	prev, cur, m := int32(0), row[0], int32(0)
	for x := 1; x < len(row); x++ {
		next := row[x]
		v := prev + cur + next
		dst[x-1] = v
		m = max(m, v)
		prev, cur = cur, next
	}
	dst[len(row)-1] = prev + cur
	return max(m, prev+cur)
}
