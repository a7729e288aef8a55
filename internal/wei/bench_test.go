package wei

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"colormatch/internal/sim"
)

// BenchmarkEngineWorkflow measures the engine's per-workflow overhead
// (dispatch, events, records) with instant module actions.
func BenchmarkEngineWorkflow(b *testing.B) {
	clock := sim.NewSimClock()
	reg := NewRegistry()
	m := NewBase("dev", "t", "")
	m.Register(ActionInfo{Name: "noop"}, func(ctx context.Context, args Args) (Result, error) {
		return Result{"ok": true}, nil
	})
	reg.Add(m)
	eng := NewEngine(reg, clock, NewEventLog(clock))
	wf := &WorkflowSpec{Name: "bench", Steps: []Step{
		{Name: "a", Module: "dev", Action: "noop"},
		{Name: "b", Module: "dev", Action: "noop"},
		{Name: "c", Module: "dev", Action: "noop"},
	}}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunWorkflow(ctx, wf, nil); err != nil {
			b.Fatal(err)
		}
	}
	_ = time.Second
}

// BenchmarkParseWorkflow measures the YAML path of workflow loading.
func BenchmarkParseWorkflow(b *testing.B) {
	src := []byte(sampleWorkflow)
	for i := 0; i < b.N; i++ {
		if _, err := ParseWorkflow(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHTTPActFrame measures one camera-sized action over loopback
// HTTP: a ~920 KB []byte frame in the Result, carried raw after the JSON
// header and restored as []byte by the client.
func BenchmarkHTTPActFrame(b *testing.B) {
	frame := make([]byte, 920_000)
	for i := range frame {
		frame[i] = byte(i * 7)
	}
	reg := NewRegistry()
	reg.Add(blobModule(frame))
	srv := httptest.NewServer(ServeModules(reg))
	defer srv.Close()
	c := NewHTTPClient(srv.URL, "cam")
	ctx := context.Background()
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Act(ctx, "cam", "shoot", nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(res["image_png"].([]byte)) != len(frame) {
			b.Fatal("frame size changed")
		}
	}
}
