package main

import (
	"image"
	"time"

	"colormatch/internal/device/camera"
	"colormatch/internal/sim"
	"colormatch/internal/vision"
	"colormatch/internal/vision/aruco"
	"colormatch/internal/vision/render"
)

// replayRounds is how many times each sampled frame goes through the
// replayed layers.
const replayRounds = 3

// replay times the layers the campaign path offers no seam for, by calling
// their public functions on frames sampled from the traced phase: the
// camera's frame decode (base64), PNG decode, vision analysis, and, for a
// scene rebuilt from the analysed well colours, render and PNG encode.
// Render and encode run inside the camera command (wei.act_ms.camera, or
// wei.server_ms.camera over HTTP); decode and analysis run in the campaign
// loop itself (core.self_ms).
func replay(rep *report, frames *frameSampler, seed int64) {
	out := map[string][]float64{}
	fail := false
	step := func(name string, fn func() error) bool {
		if fail {
			return false
		}
		start := time.Now()
		err := fn()
		out[name] = append(out[name], ms(time.Since(start)))
		if err != nil {
			rep.addFailures([]string{"replay " + name + ": " + err.Error()})
			fail = true
		}
		return !fail
	}
	analyzer := vision.NewAnalyzer()
	dict := aruco.Default()
	rng := sim.NewRNG(seed).Derive("replay")
	frames.mu.Lock()
	sampled := frames.frames
	frames.mu.Unlock()
	for round := 0; round < replayRounds; round++ {
		for _, res := range sampled {
			var (
				data     []byte
				img      *image.RGBA
				analysis *vision.Result
				scene    = render.NewScene()
			)
			step("camera.decode_frame_ms", func() (err error) { data, err = camera.DecodeFrame(res); return })
			step("vision.decode_ms", func() (err error) { img, err = vision.DecodePNG(data); return })
			step("vision.analyze_ms", func() (err error) { analysis, err = analyzer.Analyze(img); return })
			if fail {
				break
			}
			used, _ := res["wells_used"].(float64)
			for i := 0; i < int(used) && i < len(scene.WellColor); i++ {
				scene.WellColor[i], scene.Filled[i] = analysis.WellColors[i], true
			}
			step("render.render_ms", func() error { img = scene.Render(dict, rng); return nil })
			step("vision.encode_ms", func() (err error) { _, err = vision.EncodePNG(img); return })
		}
	}
	for _, n := range []string{"camera.decode_frame_ms", "vision.decode_ms", "vision.analyze_ms", "render.render_ms", "vision.encode_ms"} {
		rep.dist(n, out[n])
	}
}
