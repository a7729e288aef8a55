package main

import (
	"context"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"colormatch/internal/portal"
	"colormatch/internal/solver"
	"colormatch/internal/wei"
)

// span is one timed call across a layer boundary. Spans live in memory for
// the length of a traced phase and are summarised when it ends.
type span struct {
	name       string        // the layer metric the span feeds, e.g. "wei.act_ms.camera"
	track      int           // cell (fleet) the call ran on; -1 when none
	owner      string        // campaign the call belongs to, when the seam knows it
	start, end time.Duration // since the tracer's epoch
}

// tracer records spans, samples and counts for one traced phase. A nil
// *tracer records nothing, so untraced phases run the same code paths with
// every probe switched off.
type tracer struct {
	epoch  time.Time
	mu     sync.Mutex
	spans  []span
	values map[string][]float64 // sizes and other non-time samples
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), values: map[string][]float64{}, counts: map[string]float64{}}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed records a span named name around fn.
func (t *tracer) timed(name string, track int, owner string, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := t.now()
	fn()
	t.add(span{name: name, track: track, owner: owner, start: start, end: t.now()})
}

func (t *tracer) value(name string, v float64) {
	t.mu.Lock()
	t.values[name] = append(t.values[name], v)
	t.mu.Unlock()
}

func (t *tracer) count(name string, n float64) {
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// snapshot copies what the tracer holds. A server handler can still be
// recording its span just after its client has the response, so readers
// work on a copy taken under the lock.
func (t *tracer) snapshot() (spans []span, values map[string][]float64, counts map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	values, counts = map[string][]float64{}, map[string]float64{}
	for k, v := range t.values {
		values[k] = append([]float64(nil), v...)
	}
	for k, v := range t.counts {
		counts[k] = v
	}
	return append([]span(nil), t.spans...), values, counts
}

// durations returns the lengths in milliseconds of the spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, ms(s.end-s.start))
		}
	}
	return out
}

// tracedClient wraps the wei.Client of one cell's engine: every module
// command is a span on the cell's track, and camera frames are sampled
// for the replay step.
type tracedClient struct {
	inner  wei.Client
	t      *tracer
	cell   int
	frames *frameSampler
}

func (c *tracedClient) Act(ctx context.Context, module, action string, args wei.Args) (wei.Result, error) {
	name := "wei.act_ms.other"
	if module == "camera" {
		name = "wei.act_ms.camera"
	}
	var res wei.Result
	var err error
	c.t.timed(name, c.cell, "", func() { res, err = c.inner.Act(ctx, module, action, args) })
	if err != nil {
		c.t.count("wei.act_errors", 1)
	} else if module == "camera" {
		c.frames.offer(res)
	}
	return res, err
}

func (c *tracedClient) State(ctx context.Context, module string) (wei.ModuleState, error) {
	return c.inner.State(ctx, module)
}

func (c *tracedClient) About(ctx context.Context, module string) (wei.ModuleInfo, error) {
	return c.inner.About(ctx, module)
}

// frameSampler keeps every fourth camera result, up to a fixed number, so
// the replay step runs the codec and vision layers on real frames.
type frameSampler struct {
	mu     sync.Mutex
	seen   int
	frames []wei.Result
}

const replayFrames = 12

func (f *frameSampler) offer(res wei.Result) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.seen%4 == 0 && len(f.frames) < replayFrames {
		f.frames = append(f.frames, res)
	}
	f.seen++
}

// timedSolver wraps one campaign's solver. It always stamps the iteration
// cycle (a batch proposed to its grades observed), the fleet workloads'
// end-to-end latency; with a tracer it also records the solver's own spans.
type timedSolver struct {
	inner    solver.Solver
	t        *tracer
	owner    string
	cycles   *samples
	proposed time.Time
}

// batchSolver is a timedSolver whose inner solver is a BatchProposer; the
// campaign loop type-checks for that interface, so the wrapper must keep it.
type batchSolver struct {
	*timedSolver
	bp solver.BatchProposer
}

func wrapSolver(inner solver.Solver, t *tracer, owner string, cycles *samples) solver.Solver {
	ts := &timedSolver{inner: inner, t: t, owner: owner, cycles: cycles}
	if t != nil {
		t.add(span{name: "campaign.start", track: -1, owner: owner, start: t.now(), end: t.now()})
	}
	if bp, ok := inner.(solver.BatchProposer); ok {
		return &batchSolver{timedSolver: ts, bp: bp}
	}
	return ts
}

func (s *timedSolver) Name() string { return s.inner.Name() }

func (s *timedSolver) Propose(n int) [][]float64 {
	var out [][]float64
	s.t.timed("solver.propose_us", -1, s.owner, func() { out = s.inner.Propose(n) })
	s.proposed = time.Now()
	return out
}

func (s *timedSolver) Observe(batch []solver.Sample) {
	if !s.proposed.IsZero() {
		s.cycles.add(ms(time.Since(s.proposed)))
	}
	s.t.timed("solver.observe_us", -1, s.owner, func() { s.inner.Observe(batch) })
}

func (s *batchSolver) ProposeBatch(n int) [][]float64 {
	var out [][]float64
	s.t.timed("solver.propose_us", -1, s.owner, func() { out = s.bp.ProposeBatch(n) })
	s.proposed = time.Now()
	return out
}

// tracedIngestor wraps the fleet's portal destination. It keeps the keyed
// batch interface the campaign buffer type-checks for, so retried flushes
// stay deduplicated exactly as without the wrapper.
type tracedIngestor struct {
	inner portal.KeyedBatchIngestor
	t     *tracer
	mu    sync.Mutex
	keys  map[string]bool
}

func (g *tracedIngestor) Ingest(rec portal.Record) (string, error) { return g.inner.Ingest(rec) }

func (g *tracedIngestor) IngestBatch(recs []portal.Record) ([]string, error) {
	return g.IngestBatchKeyed("", recs)
}

func (g *tracedIngestor) IngestBatchKeyed(key string, recs []portal.Record) ([]string, error) {
	if key != "" {
		g.mu.Lock()
		if g.keys[key] {
			g.t.count("flow.publish_retries", 1)
		}
		g.keys[key] = true
		g.mu.Unlock()
	}
	bytes := 0
	owner := ""
	for _, r := range recs {
		owner = strings.TrimPrefix(r.Experiment, "fleet_")
		for _, f := range r.Files {
			bytes += len(f)
		}
	}
	g.t.value("flow.publish_bytes", float64(bytes))
	var ids []string
	var err error
	g.t.timed("flow.publish_ms", -1, owner, func() {
		if key == "" {
			ids, err = g.inner.IngestBatch(recs)
		} else {
			ids, err = g.inner.IngestBatchKeyed(key, recs)
		}
	})
	return ids, err
}

// tracedSink wraps the event publisher's destination; it is keyed because
// the publisher requires a KeyedEventSink.
type tracedSink struct {
	inner portal.KeyedEventSink
	t     *tracer
}

func (s *tracedSink) PublishEvents(evs []portal.StreamEvent) (string, error) {
	return s.PublishEventsKeyed("", evs)
}

func (s *tracedSink) PublishEventsKeyed(key string, evs []portal.StreamEvent) (string, error) {
	var cur string
	var err error
	s.t.timed("portal.event_batch_ms", -1, "", func() {
		if key == "" {
			cur, err = s.inner.PublishEvents(evs)
		} else {
			cur, err = s.inner.PublishEventsKeyed(key, evs)
		}
	})
	s.t.count("portal.event_batches", 1)
	return cur, err
}

// serverProbe is http.Handler middleware for the servers the benchmark
// hosts. While a tracer is installed it records each classified request's
// handler time on track, and the bytes it wrote under bytesName.
type serverProbe struct {
	next     http.Handler
	track    int
	classify func(*http.Request) (name, bytesName string)
	tr       atomic.Pointer[tracer]
}

func (p *serverProbe) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	t := p.tr.Load()
	name, bytesName := "", ""
	if t != nil {
		name, bytesName = p.classify(req)
	}
	if name == "" {
		// Unclassified routes (the /watch stream among them) pass through
		// untouched, so their writers keep every optional interface.
		p.next.ServeHTTP(w, req)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	t.timed(name, p.track, "", func() { p.next.ServeHTTP(cw, req) })
	if bytesName != "" {
		t.value(bytesName, float64(cw.n))
	}
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += n
	return n, err
}

func classifyWorkcell(req *http.Request) (string, string) {
	if req.URL.Path == "/modules/camera/action" {
		return "wei.server_ms.camera", "wei.frame_wire_bytes"
	}
	return "", ""
}

func classifyPortal(req *http.Request) (string, string) {
	p := req.URL.Path
	switch {
	case p == "/search":
		return "portal.server_ms.search", "portal.response_bytes.search"
	case strings.HasPrefix(p, "/experiments/") && strings.HasSuffix(p, "/summary"):
		return "portal.server_ms.summary", ""
	case strings.HasPrefix(p, "/records/"):
		return "portal.server_ms.get", ""
	case p == "/ingest" || p == "/ingest/batch":
		return "portal.server_ms.ingest", ""
	case p == "/events":
		return "portal.server_ms.events", ""
	}
	return "", ""
}

// samples is a concurrency-safe list of measurements.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *samples) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.v...)
}

// quantile returns the q-quantile of xs by nearest rank; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
