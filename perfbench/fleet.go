package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"colormatch/internal/color"
	"colormatch/internal/core"
	"colormatch/internal/fleet"
	"colormatch/internal/portal"
	"colormatch/internal/sim"
	"colormatch/internal/solver"
	"colormatch/internal/solver/ga"
	"colormatch/internal/wei"
)

// Campaign shape of both fleet workloads: the paper's genetic solver on a
// fixed budget, four wells per iteration, so a campaign is eight
// propose-mix-photograph-analyze iterations.
const (
	fleetSamples = 32
	fleetBatch   = 4
	// Campaigns per second the measured phase is sized by: about today's
	// throughput on two cores.
	fleetLocalRate  = 9.0
	fleetRemoteRate = 4.0
)

// fleetBench runs fleet-local or fleet-remote. Everything it hands the
// program (seeds, target colour, campaign list) derives from cfg.seed.
type fleetBench struct {
	cfg    config
	remote bool
	camp   core.Config
}

func newFleetBench(cfg config, remote bool) *fleetBench {
	rng := rand.New(rand.NewSource(cfg.seed))
	target := color.RGB8{R: uint8(60 + rng.Intn(140)), G: uint8(60 + rng.Intn(140)), B: uint8(60 + rng.Intn(140))}
	return &fleetBench{cfg: cfg, remote: remote, camp: core.Config{
		Target: target, TotalSamples: fleetSamples, BatchSize: fleetBatch,
	}}
}

// fleetSystem is one set-up instance: for fleet-remote, the workcell
// servers and the durable portal that every phase of the run shares.
type fleetSystem struct {
	b      *fleetBench
	cells  []*hosted
	portal *portalHost
	warm   *phaseResult // the set-up's warm-up phase
}

func (b *fleetBench) wcOpts(i int) core.WorkcellOptions {
	return core.WorkcellOptions{Seed: b.cfg.seed + int64(1000*(i+1))}
}

// setup builds a system and warms it with one campaign per cell, so lazy
// initialisation and pool growth are paid before anything is timed.
func (b *fleetBench) setup(ctx context.Context, tag string) (*fleetSystem, error) {
	s := &fleetSystem{b: b}
	if b.remote {
		for i := 0; i < b.cfg.procs; i++ {
			opts := b.wcOpts(i)
			ws := wei.NewWorkcellServer(core.NewSimWorkcell(opts).Registry, wei.ServerOptions{
				Reset: func() (*wei.Registry, error) { return core.NewSimWorkcell(opts).Registry, nil },
				Caps:  wei.Capabilities{Lanes: 1, OT2s: 1, Camera: true},
			})
			h, err := host(ws.Handler(), i, classifyWorkcell)
			if err != nil {
				s.close()
				return nil, err
			}
			s.cells = append(s.cells, h)
		}
		p, err := openPortal(filepath.Join(b.cfg.dir, tag))
		if err != nil {
			s.close()
			return nil, err
		}
		s.portal = p
	}
	warm, err := s.phase(ctx, tag, b.cfg.procs, nil)
	if err != nil {
		s.close()
		return nil, err
	}
	s.warm = warm
	return s, nil
}

func (s *fleetSystem) close() {
	for _, c := range s.cells {
		c.close()
	}
	if s.portal != nil {
		s.portal.close()
	}
}

// phaseResult is what one fleet.Run of a phase produced and measured.
type phaseResult struct {
	elapsed  time.Duration
	res      *fleet.Result
	cycles   []float64 // iteration cycle, ms
	lags     []float64 // emit stamp to /watch delivery, ms
	failures []string  // failed correctness checks
	frames   *frameSampler
	t        *tracer
}

func (p *phaseResult) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// phase runs n campaigns named tag-NNN on the system and checks them. With
// a tracer, every seam the fleet accepts is wrapped: each cell's wei.Client,
// the solver, the portal destination, the event sink, and the servers.
func (s *fleetSystem) phase(ctx context.Context, tag string, n int, t *tracer) (*phaseResult, error) {
	b := s.b
	pr := &phaseResult{t: t, frames: &frameSampler{}}
	camps := make([]fleet.Campaign, n)
	for i := range camps {
		camps[i] = fleet.Campaign{Name: fmt.Sprintf("%s-%03d", tag, i), Config: b.camp}
	}
	cycles := &samples{}
	opts := b.options(b.cfg.procs, t, cycles, pr.frames)
	var (
		pub   *portal.EventPublisher
		tally *watchTally
		stopW func()
	)
	if b.remote {
		reg := fleet.NewRegistry(fleet.RegistryOptions{Seed: b.cfg.seed})
		defer reg.Close()
		if err := s.admit(reg, s.cells, t, pr.frames); err != nil {
			return nil, err
		}
		opts.Registry = reg
		client := portal.NewClient(s.portal.url)
		var dest portal.KeyedBatchIngestor = client
		var sink portal.KeyedEventSink = client
		if t != nil {
			dest = &tracedIngestor{inner: client, t: t, keys: map[string]bool{}}
			sink = &tracedSink{inner: client, t: t}
		}
		opts.Portal = dest
		pub = portal.NewEventPublisher(sink, portal.PublisherOptions{})
		opts.EventSink = pub
		tally = newWatchTally()
		stopW = s.portal.watch(s.portal.hub.Cursor(), tally)
	}
	for _, h := range s.cells {
		h.probe.tr.Store(t)
	}
	if s.portal != nil {
		s.portal.probe.tr.Store(t)
	}

	start := time.Now()
	res, err := fleet.Run(ctx, camps, opts)
	pr.elapsed = time.Since(start)
	if err != nil {
		if stopW != nil {
			pub.Close()
			stopW()
		}
		return nil, fmt.Errorf("fleet run %s: %w", tag, err)
	}
	pr.res = res
	pr.cycles = cycles.values()

	iterations := (fleetSamples + fleetBatch - 1) / fleetBatch
	for _, cr := range res.Campaigns {
		if cr.Status != fleet.StatusCompleted || cr.Samples != fleetSamples {
			pr.fail("campaign %s: status %s with %d of %d samples (err %v)", cr.Campaign.Name, cr.Status, cr.Samples, fleetSamples, cr.Err)
		}
		if b.remote && (cr.PublishErr != nil || len(cr.RecordIDs) != iterations) {
			pr.fail("campaign %s: published %d of %d records (err %v)", cr.Campaign.Name, len(cr.RecordIDs), iterations, cr.PublishErr)
		}
	}
	if res.Completed != n {
		pr.fail("%d of %d campaigns completed", res.Completed, n)
	}
	if b.remote {
		if err := pub.Close(); err != nil {
			pr.fail("event publisher close: %v", err)
		}
		if d := pub.Dropped(); d != 0 {
			pr.fail("event publisher dropped %d events", d)
		}
		if t != nil {
			t.count("portal.events_dropped", float64(pub.Dropped()))
		}
		want := s.portal.hub.LastSeq()
		if !tally.waitFor(want, 30*time.Second) {
			pr.fail("watcher reached seq %d of %d", tally.last(), want)
		}
		stopW()
		pr.lags = tally.lags.values()
		for _, f := range tally.check(n) {
			pr.fail("%s", f)
		}
		for _, cr := range res.Campaigns {
			for _, id := range cr.RecordIDs {
				rec, err := s.portal.store.Get(id)
				if err != nil || rec.Experiment != "fleet_"+cr.Campaign.Name {
					pr.fail("record %s of %s not gettable: %v", id, cr.Campaign.Name, err)
				}
			}
		}
	}
	for _, h := range s.cells {
		h.probe.tr.Store(nil)
	}
	if s.portal != nil {
		s.portal.probe.tr.Store(nil)
	}
	return pr, nil
}

// options are what every fleet.Run of the workload shares: the paper's
// genetic solver and, for fleet-local, a pool of cells in process. With a
// tracer, the solver and the local cells' wei.Clients are wrapped.
func (b *fleetBench) options(cells int, t *tracer, cycles *samples, frames *frameSampler) fleet.Options {
	opts := fleet.Options{
		Seed: b.cfg.seed,
		NewSolver: func(c fleet.Campaign, rng *sim.RNG) (solver.Solver, error) {
			return wrapSolver(ga.New(rng, ga.Options{RandomInit: true}), t, c.Name, cycles), nil
		},
	}
	if !b.remote {
		opts.Workcells = cells
		if t != nil {
			opts.Tune = func(i int, _ *core.SimWorkcell, eng *wei.Engine) {
				eng.Client = &tracedClient{inner: eng.Client, t: t, cell: i, frames: frames}
			}
		}
	}
	return opts
}

// admit registers the workcell servers with reg. Untraced, they join
// through the fleet's own remote member (Registry.AddRemote); traced, through
// benchCell, which builds the same engine around a traced wei.Client.
func (s *fleetSystem) admit(reg *fleet.Registry, cells []*hosted, t *tracer, frames *frameSampler) error {
	for i, c := range cells {
		name := fmt.Sprintf("cell%d", i)
		if t == nil {
			if _, err := reg.AddRemote(name, c.url, fleet.RemoteOptions{}); err != nil {
				return err
			}
			continue
		}
		i, url := i, c.url
		if _, err := reg.Add(fleet.MemberSpec{Name: name, URL: url, Open: func(ctx context.Context) (fleet.Cell, error) {
			return openBenchCell(ctx, url, i, t, frames)
		}}); err != nil {
			return err
		}
	}
	return nil
}

// benchCell is a remote fleet.Cell whose engine talks through a traced
// wei.Client. It mirrors the fleet's own remote cell: health-gated at open,
// health check plus session reset before every campaign.
type benchCell struct {
	wcc    *wei.WorkcellClient
	client *wei.HTTPClient
	eng    *wei.Engine
	t      *tracer
	index  int
}

func openBenchCell(ctx context.Context, url string, index int, t *tracer, frames *frameSampler) (fleet.Cell, error) {
	wcc := wei.NewWorkcellClient(url)
	health, err := wcc.Health(ctx)
	if err != nil {
		return nil, err
	}
	client := wcc.ModuleClient(0, health.Modules...)
	clock := sim.RealClock{}
	eng := wei.NewEngine(&tracedClient{inner: client, t: t, cell: index, frames: frames}, clock, wei.NewEventLog(clock))
	return &benchCell{wcc: wcc, client: client, eng: eng, t: t, index: index}, nil
}

func (c *benchCell) Engine() *wei.Engine { return c.eng }
func (c *benchCell) Clock() sim.Clock    { return sim.RealClock{} }
func (c *benchCell) Close() error        { return nil }

func (c *benchCell) Prepare(ctx context.Context, camp fleet.Campaign) error {
	var err error
	c.t.timed("fleet.prepare_ms", c.index, camp.Name, func() {
		if _, err = c.wcc.Health(ctx); err != nil {
			return
		}
		var info wei.ResetInfo
		if info, err = c.wcc.Reset(ctx, camp.Name); err != nil {
			return
		}
		for _, m := range info.Modules {
			c.client.BaseURL[m] = c.wcc.Base
		}
	})
	return err
}

// digest runs two campaigns on a single cell and hashes their virtual-time
// outputs. One cell makes the run byte-identical per seed (with several
// cells the assignment of campaigns to cells varies), so the digest lets a
// parent and a change be compared for bit-identity, and a traced pass be
// compared with an untraced one.
func (s *fleetSystem) digest(ctx context.Context, t *tracer) (string, error) {
	b := s.b
	camps := []fleet.Campaign{{Name: "digest-000", Config: b.camp}, {Name: "digest-001", Config: b.camp}}
	frames := &frameSampler{}
	opts := b.options(1, t, &samples{}, frames)
	if b.remote {
		reg := fleet.NewRegistry(fleet.RegistryOptions{Seed: b.cfg.seed})
		defer reg.Close()
		if err := s.admit(reg, s.cells[:1], t, frames); err != nil {
			return "", err
		}
		opts.Registry = reg
	}
	res, err := fleet.Run(ctx, camps, opts)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	put := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, cr := range res.Campaigns {
		if cr.Status != fleet.StatusCompleted || cr.Result == nil {
			return "", fmt.Errorf("digest campaign %s: %s (%v)", cr.Campaign.Name, cr.Status, cr.Err)
		}
		fmt.Fprintf(h, "%s|%s|%d|", cr.Campaign.Name, cr.Status, cr.Samples)
		for _, smp := range cr.Result.Samples {
			for _, r := range smp.Ratios {
				put(math.Float64bits(r))
			}
			h.Write([]byte{smp.Color.R, smp.Color.G, smp.Color.B})
			put(math.Float64bits(smp.Score))
		}
		put(math.Float64bits(cr.Best))
		if !b.remote {
			// Remote cells run on the host clock; only local cells have
			// virtual time to compare.
			put(uint64(cr.Wall))
		}
	}
	if !b.remote {
		put(uint64(res.Makespan))
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// watchTally follows one phase's /watch stream and checks its shape: each
// campaign attempt must arrive as src_seq -1, 0, …, n with campaign_start
// first and campaign_end last, nothing missing and nothing repeated.
type watchTally struct {
	mu       sync.Mutex
	byRun    map[string][]portal.StreamEvent
	lastSeq  int64
	lags     samples
	advanced chan struct{}
}

func newWatchTally() *watchTally {
	return &watchTally{byRun: map[string][]portal.StreamEvent{}, advanced: make(chan struct{}, 1)}
}

func (w *watchTally) add(ev portal.StreamEvent, at time.Time) {
	w.lags.add(ms(at.Sub(time.Unix(0, ev.PubNanos))))
	w.mu.Lock()
	key := fmt.Sprintf("%s|%s|%d", ev.Experiment, ev.Campaign, ev.Run)
	w.byRun[key] = append(w.byRun[key], ev)
	w.lastSeq = ev.Seq
	w.mu.Unlock()
	select {
	case w.advanced <- struct{}{}:
	default:
	}
}

func (w *watchTally) last() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastSeq
}

// waitFor blocks until the watcher has delivered seq, or timeout passes.
func (w *watchTally) waitFor(seq int64, timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for w.last() < seq {
		select {
		case <-w.advanced:
		case <-deadline.C:
			return w.last() >= seq
		}
	}
	return true
}

func (w *watchTally) check(campaigns int) []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	var bad []string
	keys := make([]string, 0, len(w.byRun))
	for k := range w.byRun {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		evs := w.byRun[k]
		for i, ev := range evs {
			if ev.SrcSeq != i-1 {
				bad = append(bad, fmt.Sprintf("stream %s: arrival %d has src_seq %d", k, i, ev.SrcSeq))
				break
			}
		}
		if evs[0].Kind != "campaign_start" || evs[len(evs)-1].Kind != "campaign_end" || evs[len(evs)-1].SrcSeq != len(evs)-2 {
			bad = append(bad, fmt.Sprintf("stream %s: %d events, not bracketed start..end", k, len(evs)))
		}
	}
	if len(w.byRun) < campaigns {
		bad = append(bad, fmt.Sprintf("stream carried %d campaign attempts, want %d", len(w.byRun), campaigns))
	}
	return bad
}

// fleetRun is the whole fleet workload: set up three times (the median is
// setup_s; the last set-up is kept), run the measured phase, optionally the
// traced phase and replay, and the single-cell digest.
func (b *fleetBench) run(ctx context.Context) (*report, error) {
	rep := newReport()
	var setups []float64
	var sys *fleetSystem
	for k := 0; k < setupRepeats; k++ {
		if sys != nil {
			sys.close()
		}
		start := time.Now()
		var err error
		if sys, err = b.setup(ctx, fmt.Sprintf("setup%d", k)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		rep.addFailures(sys.warm.failures)
	}
	defer sys.close()
	rep.set("setup_s", median(setups))

	// The measured phase is a fixed number of campaigns, so that every run
	// of a seed does the same work; at today's speed it lasts about
	// cfg.seconds.
	rate := fleetLocalRate
	if b.remote {
		rate = fleetRemoteRate
	}
	n := max(1, int(math.Round(b.cfg.seconds*rate/blocks/float64(b.cfg.procs)))) * b.cfg.procs

	// The phase runs as blocks of n campaigns, one fleet.Run each; the
	// end-to-end figures are medians over the blocks, so a burst of
	// contention on the host spoils one block rather than the run.
	var tputs, p50s, p90s, cycles, lags []float64
	var attempts []*fleet.Result
	var wall time.Duration
	before := readGoStats()
	for k := 0; k < blocks; k++ {
		pr, err := sys.phase(ctx, fmt.Sprintf("run%d", k), n, nil)
		if err != nil {
			return nil, err
		}
		rep.addFailures(pr.failures)
		rep.attempt(int64(n), int64(n-pr.res.Completed))
		tputs = append(tputs, float64(pr.res.Completed)/pr.elapsed.Seconds())
		p50s = append(p50s, quantile(pr.cycles, 0.50))
		p90s = append(p90s, quantile(pr.cycles, 0.90))
		cycles = append(cycles, pr.cycles...)
		lags = append(lags, pr.lags...)
		attempts = append(attempts, pr.res)
		wall += pr.elapsed
	}
	gs := readGoStats().since(before)
	tput := median(tputs)
	rep.set("throughput_per_s", tput)
	rep.set("latency_ms_p50", median(p50s))
	rep.set("latency_ms_p90", median(p90s))
	rep.set("latency_ms_p99", quantile(cycles, 0.99))
	rep.set("go.gc_cpu_frac", gs.gcFrac())
	rep.set("go.alloc_mb_per_campaign", gs.allocBytes/float64(n*blocks)/(1<<20))
	rep.set("fleet.attempts_per_campaign", meanAttempts(attempts))
	rep.set("failed_ratio", float64(rep.failed)/float64(rep.attempted))
	if b.remote {
		rep.set("watch_lag_ms_p50", quantile(lags, 0.50))
		rep.set("watch_lag_ms_p99", quantile(lags, 0.99))
	}
	rep.info("campaigns_per_block", n)
	rep.info("block_throughputs", tputs)
	rep.info("campaign_wall_s", wall.Seconds())
	rep.info("samples_per_campaign", fleetSamples)
	rep.info("cycles_measured", len(cycles))
	rep.info("watch_events", len(lags))

	dig, err := sys.digest(ctx, nil)
	if err != nil {
		return nil, err
	}
	rep.info("single_cell_digest", dig)

	if !b.cfg.trace {
		return rep, nil
	}
	t := newTracer()
	tp, err := sys.phase(ctx, "trace", n, t)
	if err != nil {
		return nil, err
	}
	rep.addFailures(tp.failures)
	rep.attempt(int64(n), int64(n-tp.res.Completed))
	ttput := float64(tp.res.Completed) / tp.elapsed.Seconds()
	rep.set("trace.overhead_frac", tput/ttput-1)
	rep.info("traced_throughput_per_s", ttput)
	b.layers(rep, tp)
	replay(rep, tp.frames, b.cfg.seed)

	tdig, err := sys.digest(ctx, newTracer())
	if err != nil {
		return nil, err
	}
	rep.info("single_cell_digest_traced", tdig)
	if tdig != dig {
		rep.addFailures([]string{fmt.Sprintf("traced single-cell digest %s differs from untraced %s", tdig, dig)})
	}
	if b.remote {
		// The portal's read path has no steady end-to-end measure on a
		// shared two-core host (see BENCHMARK.md), so its layers are
		// measured here, beside the fleet's own use of the portal.
		if err := newServeBench(b.cfg).probe(rep); err != nil {
			return nil, err
		}
		rep.set("failed_ratio", float64(rep.failed)/float64(rep.attempted))
	}
	return rep, nil
}

func meanAttempts(results []*fleet.Result) float64 {
	total, n := 0, 0
	for _, res := range results {
		for _, cr := range res.Campaigns {
			total += cr.Attempts
			n++
		}
	}
	return float64(total) / float64(n)
}

// layers turns the traced phase's spans into the per-layer table.
func (b *fleetBench) layers(rep *report, p *phaseResult) {
	spans, values, counts := p.t.snapshot()
	for _, name := range []string{"wei.act_ms.camera", "wei.act_ms.other", "wei.server_ms.camera",
		"fleet.prepare_ms", "flow.publish_ms", "portal.server_ms.events", "portal.server_ms.ingest"} {
		rep.dist(name, durations(spans, name))
	}
	for _, name := range []string{"solver.propose_us", "solver.observe_us"} {
		d := durations(spans, name)
		for i := range d {
			d[i] *= 1000
		}
		rep.dist(name, d)
	}
	rep.set("portal.event_batch_ms.p50", median(durations(spans, "portal.event_batch_ms")))
	rep.set("wei.frame_wire_bytes.p50", median(values["wei.frame_wire_bytes"]))
	rep.set("flow.publish_bytes.p50", median(values["flow.publish_bytes"]))
	for _, c := range []string{"wei.act_errors", "flow.publish_retries", "portal.event_batches", "portal.events_dropped"} {
		rep.set(c, counts[c])
	}

	cellOf := map[string]int{}
	for _, cr := range p.res.Campaigns {
		cellOf[cr.Campaign.Name] = cr.Workcell
	}
	byCell := map[int][]span{}
	for _, sp := range spans {
		cell := sp.track
		if cell < 0 {
			c, ok := cellOf[sp.owner]
			if !ok {
				continue
			}
			cell = c
		}
		if strings.HasPrefix(sp.name, "wei.server_ms") || strings.HasPrefix(sp.name, "portal.") {
			continue // children of a client-side span already on the track
		}
		byCell[cell] = append(byCell[cell], sp)
	}

	// Camera wire time: on one single-lane cell, the i-th camera act and the
	// i-th camera request its server handled are the same command.
	var wire []float64
	var wireSum, actSum float64
	for cell := range byCell {
		var acts, srv []span
		for _, sp := range spans {
			if sp.track != cell {
				continue
			}
			switch sp.name {
			case "wei.act_ms.camera":
				acts = append(acts, sp)
			case "wei.server_ms.camera":
				srv = append(srv, sp)
			}
		}
		if len(srv) == 0 || len(srv) != len(acts) {
			continue
		}
		sort.Slice(acts, func(i, j int) bool { return acts[i].start < acts[j].start })
		sort.Slice(srv, func(i, j int) bool { return srv[i].start < srv[j].start })
		for i := range acts {
			a, s := ms(acts[i].end-acts[i].start), ms(srv[i].end-srv[i].start)
			wire = append(wire, a-s)
			wireSum += a - s
			actSum += a
		}
	}
	rep.dist("wei.wire_ms.camera", wire)
	if actSum > 0 {
		rep.set("wei.wire_frac.camera", wireSum/actSum)
	}

	// Self time: per cell, the share of its wall time no named span covers,
	// and per campaign iteration (one proposal to the next) the time left
	// after the commands, solver calls and flushes inside it.
	var wall, covered float64
	var self []float64
	for _, spans := range byCell {
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		lo, hi := spans[0].start, spans[0].end
		for _, sp := range spans {
			hi = max(hi, sp.end)
		}
		wall += ms(hi - lo)
		covered += ms(unionWithin(spans, lo, hi))
		proposals := map[string][]time.Duration{}
		for _, sp := range spans {
			if sp.name == "solver.propose_us" {
				proposals[sp.owner] = append(proposals[sp.owner], sp.start)
			}
		}
		for _, starts := range proposals {
			for i := 0; i+1 < len(starts); i++ {
				lo, hi := starts[i], starts[i+1]
				self = append(self, ms(hi-lo-unionWithin(spans, lo, hi)))
			}
		}
	}
	rep.dist("core.self_ms", self)
	if wall > 0 {
		rep.set("trace.uncovered_frac", 1-covered/wall)
	}
}

// unionWithin returns how much of [lo, hi) the spans (sorted by start)
// cover.
func unionWithin(spans []span, lo, hi time.Duration) time.Duration {
	var total time.Duration
	curS, curE := time.Duration(-1), time.Duration(-1)
	for _, sp := range spans {
		s, e := max(sp.start, lo), min(sp.end, hi)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}
