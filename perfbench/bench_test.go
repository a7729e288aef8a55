package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"colormatch/internal/portal"
	"colormatch/internal/sim"
	"colormatch/internal/solver"
	"colormatch/internal/solver/ga"
)

// The wrappers must keep the optional interfaces the program type-checks
// for, or tracing would change what it measures.
var (
	_ portal.KeyedBatchIngestor = (*tracedIngestor)(nil)
	_ portal.KeyedEventSink     = (*tracedSink)(nil)
)

func TestWrappedSolverKeepsBatchProposer(t *testing.T) {
	inner := ga.New(sim.NewRNG(1), ga.Options{RandomInit: true})
	for _, tr := range []*tracer{nil, newTracer()} {
		if _, ok := wrapSolver(inner, tr, "c", &samples{}).(solver.BatchProposer); !ok {
			t.Fatalf("wrapped solver (tracer %v) lost solver.BatchProposer", tr != nil)
		}
	}
}

// TestTracedDigestMatchesUntraced runs the single-cell pass of both fleet
// workloads with and without tracing: the virtual-time outputs must be
// bit-identical.
func TestTracedDigestMatchesUntraced(t *testing.T) {
	for _, remote := range []bool{false, true} {
		cfg := config{seed: 7, seconds: 1, dir: t.TempDir(), procs: 1}
		b := newFleetBench(cfg, remote)
		sys, err := b.setup(context.Background(), "test")
		if err != nil {
			t.Fatal(err)
		}
		if len(sys.warm.failures) > 0 {
			t.Fatalf("remote=%v warm-up checks failed: %v", remote, sys.warm.failures)
		}
		plain, err := sys.digest(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := sys.digest(context.Background(), newTracer())
		sys.close()
		if err != nil {
			t.Fatal(err)
		}
		if plain != traced {
			t.Errorf("remote=%v: traced digest %s, untraced %s", remote, traced, plain)
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables here and the
// benchmark definition at the repository root in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: %s (%s) here, %s (%s) in BENCHMARK.json", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, def.EndToEnd)
	check("per_layer", perLayer, def.PerLayer)
}

func TestUnionWithin(t *testing.T) {
	ms := time.Millisecond
	spans := []span{{start: 0, end: 4 * ms}, {start: 2 * ms, end: 6 * ms}, {start: 8 * ms, end: 9 * ms}, {start: 10 * ms, end: 10 * ms}}
	if got := unionWithin(spans, ms, 9*ms); got != 6*ms {
		t.Fatalf("union = %v, want 6ms", got)
	}
}

func TestMaxRateInterpolates(t *testing.T) {
	ladder := []*stepStats{
		{Rate: 100, P99: 5, Pass: true},
		{Rate: 110, P99: 10, Pass: true},
		{Rate: 121, P99: 30, Pass: false},
	}
	// The 20ms limit lies halfway between the p99s of 10 and 30ms.
	want := 110 * math.Pow(ladderGrowth, 0.5)
	if got := maxRate(ladder); math.Abs(got-want) > 1e-9 {
		t.Fatalf("max rate %v, want %v", got, want)
	}
}
