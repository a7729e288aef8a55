package render

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"colormatch/internal/color"
	"colormatch/internal/labware"
	"colormatch/internal/sim"
	"colormatch/internal/vision/aruco"
	"colormatch/internal/vision/raster"
)

func TestDefaultGeometryIsSelfConsistent(t *testing.T) {
	g := Default()
	// Plate must fit in the frame.
	if g.PlateX+g.PlateW >= float64(g.ImgW) || g.PlateY+g.PlateH >= float64(g.ImgH) {
		t.Fatalf("plate exceeds frame: %+v", g)
	}
	// Last well (H12) must lie inside the plate.
	x, y := g.WellCenter(labware.PlateRows-1, labware.PlateCols-1)
	if x+g.WellRPx > g.PlateX+g.PlateW || y+g.WellRPx > g.PlateY+g.PlateH {
		t.Fatalf("H12 at (%v,%v) outside plate", x, y)
	}
	// Marker must not overlap the plate.
	mx, my := g.MarkerCenter()
	if mx > g.PlateX && my > g.PlateY {
		t.Fatalf("marker center (%v,%v) inside plate area", mx, my)
	}
}

func TestWellCenterSpacing(t *testing.T) {
	g := Default()
	x0, y0 := g.WellCenter(0, 0)
	x1, _ := g.WellCenter(0, 1)
	_, y1 := g.WellCenter(1, 0)
	if math.Abs((x1-x0)-g.PitchPx) > 1e-9 || math.Abs((y1-y0)-g.PitchPx) > 1e-9 {
		t.Fatal("well pitch wrong")
	}
}

func TestRenderDrawsLiquidColor(t *testing.T) {
	s := NewScene()
	s.IllumFalloff = 0
	s.NoiseStd = 0
	want := color.RGB8{R: 50, G: 120, B: 200}
	s.WellColor[0] = want
	s.Filled[0] = true
	img := s.Render(aruco.Default(), nil)
	x, y := s.Geom.WellCenter(0, 0)
	got := raster.PixelRGB8(img, int(x), int(y))
	if got != want {
		t.Fatalf("well pixel %+v, want %+v", got, want)
	}
}

func TestRenderJitterMovesScene(t *testing.T) {
	s := NewScene()
	s.IllumFalloff = 0
	s.NoiseStd = 0
	s.WellColor[0] = color.RGB8{R: 10, G: 10, B: 10}
	s.Filled[0] = true
	s.JitterX, s.JitterY = 9, 4
	img := s.Render(aruco.Default(), nil)
	x, y := s.Geom.WellCenter(0, 0)
	if got := raster.PixelRGB8(img, int(x+9), int(y+4)); got != (color.RGB8{R: 10, G: 10, B: 10}) {
		t.Fatalf("jittered well pixel %+v", got)
	}
}

func TestVignetteDarkensCorners(t *testing.T) {
	s := NewScene()
	s.IllumFalloff = 0.1
	s.NoiseStd = 0
	img := s.Render(aruco.Default(), nil)
	center := raster.PixelRGB8(img, s.Geom.ImgW/2, s.Geom.ImgH/2)
	corner := raster.PixelRGB8(img, 2, s.Geom.ImgH-3)
	if corner.R >= center.R {
		t.Fatalf("corner %d not darker than center %d", corner.R, center.R)
	}
}

func TestSetPlateFillsFromContents(t *testing.T) {
	p := labware.NewPlate("p1")
	if err := p.Dispense(labware.WellAt(0), []float64{50, 0, 0, 50}); err != nil {
		t.Fatal(err)
	}
	s := NewScene()
	s.SetPlate(p, func(vols []float64) (color.RGB8, bool) {
		total := 0.0
		for _, v := range vols {
			total += v
		}
		if total == 0 {
			return color.RGB8{}, false
		}
		return color.RGB8{R: 1, G: 2, B: 3}, true
	})
	if !s.Filled[0] || s.Filled[1] {
		t.Fatalf("Filled = %v %v", s.Filled[0], s.Filled[1])
	}
	if s.WellColor[0] != (color.RGB8{R: 1, G: 2, B: 3}) {
		t.Fatalf("WellColor = %+v", s.WellColor[0])
	}
}

func TestPlateRegionFromMarkerTracksJitter(t *testing.T) {
	g := Default()
	nomX, nomY := g.MarkerCenter()
	det := aruco.Detection{CX: nomX + 10, CY: nomY - 6, CellPx: g.MarkerCellPx}
	r := g.PlateRegionFromMarker(det)
	if r.X0 > int(g.PlateX+10) || r.X1 < int(g.PlateX+g.PlateW+10) {
		t.Fatalf("region %+v does not cover shifted plate", r)
	}
	seed := g.SeedFromMarker(det)
	ax, ay := g.WellCenter(0, 0)
	if math.Abs(seed.OX-(ax+10)) > 1e-9 || math.Abs(seed.OY-(ay-6)) > 1e-9 {
		t.Fatalf("seed (%v,%v), want (%v,%v)", seed.OX, seed.OY, ax+10, ay-6)
	}
	if math.Abs(seed.ColPitch-g.PitchPx) > 1e-9 {
		t.Fatalf("seed pitch %v", seed.ColPitch)
	}
}

func TestRenderNoiseIsSeedDeterministic(t *testing.T) {
	mk := func() []uint8 {
		s := NewScene()
		s.Filled[0] = true
		s.WellColor[0] = color.RGB8{R: 90, G: 90, B: 90}
		img := s.Render(aruco.Default(), sim.NewRNG(42))
		out := make([]uint8, len(img.Pix))
		copy(out, img.Pix)
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("render nondeterministic for same seed")
		}
	}
}

// TestRenderGolden pins the rendered pixels, byte for byte, for a noisy
// vignetted scene, the same scene noise-free, and the scene with noise but no
// vignette. Any change to the illumination/noise kernel that alters rounding
// or the order of noise draws changes these digests.
func TestRenderGolden(t *testing.T) {
	scene := func(falloff float64) *Scene {
		s := NewScene()
		s.IllumFalloff = falloff
		s.JitterX, s.JitterY = 3.25, -2.5
		for i := 0; i < labware.PlateWells; i += 2 {
			s.Filled[i] = true
			s.WellColor[i] = color.RGB8{R: uint8(i * 7), G: uint8(255 - i*2), B: uint8(40 + i)}
		}
		return s
	}
	for _, tc := range []struct {
		name string
		s    *Scene
		rng  *sim.RNG
		want string
	}{
		{"seed42-noise-vignette", scene(0.06), sim.NewRNG(42), "8c3123969c29a366abaa9ad268976e78f383d7bb8317135e287376efd0c54d8e"},
		{"noise-free", scene(0.06), nil, "35505f4225c35d170a650ae3f2e575e16186c41ca2b560999678c40d9fe73224"},
		{"seed42-no-vignette", scene(0), sim.NewRNG(42), "2400b833762917410c219fc59b562ee3582701dc3264ed0e75163be5daee2a1e"},
	} {
		sum := sha256.Sum256(tc.s.Render(aruco.Default(), tc.rng).Pix)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: pixel digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
