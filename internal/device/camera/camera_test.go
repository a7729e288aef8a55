package camera

import (
	"context"
	"testing"

	"colormatch/internal/device"
	"colormatch/internal/labware"
	"colormatch/internal/sim"
	"colormatch/internal/vision"
	"colormatch/internal/wei"
)

func setup(t *testing.T, seed int64) (*Module, *device.World, *sim.SimClock) {
	t.Helper()
	clock := sim.NewSimClock()
	world := device.NewWorld(clock, 2)
	return New("camera", world, sim.NewRNG(seed)), world, clock
}

func TestTakePictureRequiresPlate(t *testing.T) {
	m, _, _ := setup(t, 1)
	if _, err := m.Act(context.Background(), "take_picture", nil); err == nil {
		t.Fatal("pictured empty mount")
	}
}

func TestTakePictureReturnsDecodablePNG(t *testing.T) {
	m, world, clock := setup(t, 2)
	p, _ := world.TakeNewPlate(device.LocCamera)
	if err := p.Dispense(labware.WellAt(0), []float64{60, 60, 60, 95}); err != nil {
		t.Fatal(err)
	}
	start := clock.Now()
	res, err := m.Act(context.Background(), "take_picture", nil)
	if err != nil {
		t.Fatal(err)
	}
	if clock.Now().Sub(start) <= 0 {
		t.Fatal("exposure took no time")
	}
	if _, ok := res["image_png"].([]byte); !ok {
		t.Fatalf("image_png is %T, want []byte", res["image_png"])
	}
	frame, err := DecodeFrame(res)
	if err != nil {
		t.Fatal(err)
	}
	img, err := vision.DecodePNG(frame)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != m.Geometry().ImgW {
		t.Fatalf("frame width %d", img.Bounds().Dx())
	}
	if res["plate_id"] != p.ID || res["wells_used"] != 1.0 {
		t.Fatalf("metadata = %v", res)
	}
}

func TestFramesDifferUnderNoise(t *testing.T) {
	m, world, _ := setup(t, 3)
	world.TakeNewPlate(device.LocCamera)
	r1, err := m.Act(context.Background(), "take_picture", nil)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := DecodeFrame(r1)
	if err != nil {
		t.Fatal(err)
	}
	first := string(f1)
	r2, err := m.Act(context.Background(), "take_picture", nil)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := DecodeFrame(r2)
	if err != nil {
		t.Fatal(err)
	}
	if string(f1) == string(f2) {
		t.Fatal("two exposures produced identical frames (no noise?)")
	}
	// Results hand their frame over by reference, so each exposure must
	// own its buffer: a later frame never overwrites an earlier one.
	if string(f1) != first {
		t.Fatal("second exposure overwrote the first frame")
	}
}

// TestDecodeFrameErrors: the frame is a []byte on every transport (the wei
// HTTP client restores it from the framed body), so anything else — the
// base64 string older servers sent included — is an error.
func TestDecodeFrameErrors(t *testing.T) {
	for name, res := range map[string]wei.Result{
		"missing":       {},
		"number":        {"image_png": 42},
		"base64 string": {"image_png": "iVBORw0KGgo="},
		"nil":           {"image_png": nil},
	} {
		if _, err := DecodeFrame(res); err == nil {
			t.Errorf("%s image accepted", name)
		}
	}
	png := []byte{0x89, 'P', 'N', 'G'}
	got, err := DecodeFrame(wei.Result{"image_png": png})
	if err != nil || &got[0] != &png[0] {
		t.Fatalf("DecodeFrame = %v, %v; want the same slice back", got, err)
	}
}

func TestCameraDriftIsBoundedAndAnalyzable(t *testing.T) {
	// Across many frames the drift must stay within what the marker-based
	// localization recovers: every frame stays analyzable.
	m, world, _ := setup(t, 4)
	p, _ := world.TakeNewPlate(device.LocCamera)
	for i := 0; i < 24; i++ {
		if err := p.Dispense(labware.WellAt(i), []float64{70, 50, 60, 95}); err != nil {
			t.Fatal(err)
		}
	}
	analyzer := vision.NewAnalyzer()
	for i := 0; i < 10; i++ {
		res, err := m.Act(context.Background(), "take_picture", nil)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := DecodeFrame(res)
		if err != nil {
			t.Fatal(err)
		}
		img, err := vision.DecodePNG(frame)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := analyzer.Analyze(img); err != nil {
			t.Fatalf("frame %d unanalyzable: %v", i, err)
		}
	}
}
