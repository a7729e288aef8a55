package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"colormatch/internal/portal"
)

// The portal probe: a mix of requests against a durable portal preloaded
// with a synthetic archive, run as part of fleet-remote's traced run. The
// open-loop steps issue requests on a fixed schedule whether or not earlier
// ones have finished, and time each from its due time.
const (
	serveExperiments = 10
	preloadRecords   = 20000
	preloadBatch     = 500
	ingestRecords    = 20   // records per ingest request
	searchLimit      = 50   // records per search page
	latencyLimitMs   = 20.0 // the ladder's all-request p99 limit
	// The nominal step reports latency at a light load, where queueing
	// does not hide the cost of a request; the ladder then climbs from
	// ladderStart by a tenth per step until a step misses the limit. All
	// are fixed rates so that two versions of the program are measured at
	// the same load.
	nominalRate    = 200.0
	ladderStart    = 700.0
	ladderGrowth   = 1.1
	maxLadderSteps = 6
	directOps      = 2000 // direct Store calls in the traced phase
)

type opKind int

const (
	opSearch opKind = iota
	opSummary
	opGet
	opIngest
)

var opNames = [...]string{"search", "summary", "get", "ingest"}

// opWeights is the mix in parts of ten: reads with small writes beside
// them that invalidate the summary cache. Summaries are one part in ten
// so that recomputed ones, the slowest requests, stay beyond the p90;
// ingests are one part in ten so that the archive grows by about half in
// a run rather than several times over.
var opWeights = [...]int{5, 1, 3, 1}

// pickOp maps a hash onto the mix.
func pickOp(h uint64) opKind {
	total := 0
	for _, w := range opWeights {
		total += w
	}
	k := opSearch
	for pick := int(h % uint64(total)); pick >= opWeights[k]; k++ {
		pick -= opWeights[k]
	}
	return k
}

type serveBench struct {
	cfg config
	t0  time.Time
}

func newServeBench(cfg config) *serveBench {
	return &serveBench{cfg: cfg, t0: time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC)}
}

// hash64 mixes the seed with its arguments; every generated input comes
// from it.
func (b *serveBench) hash64(parts ...int64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(b.cfg.seed))
	h.Write(buf[:])
	for _, p := range parts {
		binary.LittleEndian.PutUint64(buf[:], uint64(p))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// record is synthetic archive record i; records are one second apart, so
// the newest ones are the ones just ingested.
func (b *serveBench) record(i int64) portal.Record {
	h := b.hash64(1, i)
	return portal.Record{
		Experiment: fmt.Sprintf("exp-%d", h%serveExperiments),
		Run:        int(h >> 8 % 12),
		Time:       b.t0.Add(time.Duration(i) * time.Second),
		Fields: map[string]any{
			"samples":    15,
			"best_score": float64(h>>16%1000) / 10,
			"duration_s": 42.5,
			"plate":      fmt.Sprintf("plate-%06d", i),
		},
	}
}

// serveSystem is one set-up portal with the state the generator shares
// across its connections.
type serveSystem struct {
	*portalHost
	b       *serveBench
	next    atomic.Int64 // index of the next synthetic record
	mu      sync.Mutex
	acked   []string // every ingest the portal acknowledged
	recent  []string // ring of IDs from recent search pages and ingests
	ringPos int
}

const ringSize = 512

func (s *serveSystem) remember(ids []string, acked bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if acked {
		s.acked = append(s.acked, ids...)
	}
	for _, id := range ids {
		if len(s.recent) < ringSize {
			s.recent = append(s.recent, id)
		} else {
			s.recent[s.ringPos] = id
			s.ringPos = (s.ringPos + 1) % ringSize
		}
	}
}

func (s *serveSystem) pick(rng *rand.Rand) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recent[rng.Intn(len(s.recent))]
}

// batch is the next ingest request: like a campaign's records, all of one
// experiment, so it invalidates that experiment's cached summary only.
func (s *serveSystem) batch() []portal.Record {
	first := s.next.Add(ingestRecords) - ingestRecords
	exp := fmt.Sprintf("exp-%d", s.b.hash64(8, first)%serveExperiments)
	recs := make([]portal.Record, ingestRecords)
	for i := range recs {
		recs[i] = s.b.record(first + int64(i))
		recs[i].Experiment = exp
	}
	return recs
}

func (b *serveBench) setup(tag string) (*serveSystem, error) {
	p, err := openPortal(filepath.Join(b.cfg.dir, tag))
	if err != nil {
		return nil, err
	}
	s := &serveSystem{portalHost: p, b: b}
	// The archive arrives over HTTP, as a publisher would send it.
	client := portal.NewClient(p.url)
	defer client.HTTP.CloseIdleConnections()
	for i := int64(0); i < preloadRecords; i += preloadBatch {
		recs := make([]portal.Record, preloadBatch)
		for j := range recs {
			recs[j] = b.record(i + int64(j))
		}
		ids, err := client.IngestBatch(recs)
		if err != nil {
			p.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
		s.remember(ids, true)
	}
	s.next.Store(preloadRecords)
	return s, nil
}

type op struct {
	kind opKind
	exp  string
	due  time.Time
}

// stepStats is one ladder step as the generator saw it.
type stepStats struct {
	Rate       float64 `json:"rate"`
	Ops        int     `json:"ops"`
	Failed     int     `json:"failed"`
	P50        float64 `json:"p50_ms"`
	P99        float64 `json:"p99_ms"`
	LateP99    float64 `json:"late_p99_ms"`
	BacklogMax int     `json:"backlog_max"`
	Growing    bool    `json:"backlog_growing"`
	Pass       bool    `json:"pass"`
	all, read  []float64
	write      []float64
	late       []float64
}

// step offers rate requests per second for dur over cfg.procs connections
// and waits for every one of them. A failed request counts as an infinite
// latency, so it misses any limit.
func (s *serveSystem) step(rate float64, dur time.Duration, id int64, t *tracer) *stepStats {
	n := int(rate * dur.Seconds())
	conns := s.b.cfg.procs
	// Sized to the number of sends: the generator never blocks, so a stall
	// in the portal shows as backlog and late completions, not as a
	// generator that slows down with it.
	queue := make(chan op, n)
	st := &stepStats{Rate: rate, Ops: n}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s.b.hash64(2, id, int64(w)))))
			c := s.conn()
			defer c.HTTP.CloseIdleConnections()
			for o := range queue {
				err := s.do(c, o, rng, t)
				lat := ms(time.Since(o.due))
				if err != nil {
					lat = math.Inf(1)
				}
				mu.Lock()
				st.all = append(st.all, lat)
				if o.kind == opIngest {
					st.write = append(st.write, lat)
				} else {
					st.read = append(st.read, lat)
				}
				if err != nil {
					st.Failed++
				}
				mu.Unlock()
			}
		}(w)
	}
	var quarter, mid int
	start := time.Now()
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		st.late = append(st.late, ms(time.Since(due)))
		h := s.b.hash64(3, id, int64(k))
		o := op{kind: pickOp(h), due: due, exp: fmt.Sprintf("exp-%d", h>>32%serveExperiments)}
		queue <- o
		backlog := len(queue)
		st.BacklogMax = max(st.BacklogMax, backlog)
		switch k {
		case n / 4:
			quarter = backlog
		case n / 2:
			mid = backlog
		}
	}
	end := len(queue)
	close(queue)
	wg.Wait()
	st.Growing = end > 2*conns && end > mid && mid > quarter
	st.P50, st.P99 = quantile(st.all, 0.5), quantile(st.all, 0.99)
	st.LateP99 = quantile(st.late, 0.99)
	st.Pass = st.P99 <= latencyLimitMs && !st.Growing
	return st
}

// conn returns a portal client holding at most one connection.
func (s *serveSystem) conn() *portal.Client {
	c := portal.NewClient(s.url)
	c.HTTP = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return c
}

// do performs one request. A get of an ID taken from a search page or an
// ingest acknowledgement that the portal cannot find is a failure.
func (s *serveSystem) do(c *portal.Client, o op, rng *rand.Rand, t *tracer) error {
	var err error
	t.timed("portal.client_ms."+opNames[o.kind], -1, "", func() {
		switch o.kind {
		case opSearch:
			after := s.b.t0.Add(time.Duration(s.next.Load()-500) * time.Second)
			var page portal.Page
			if page, err = c.SearchPage(portal.Query{Experiment: o.exp, After: after, Limit: searchLimit}); err == nil {
				ids := make([]string, len(page.Records))
				for i, r := range page.Records {
					ids[i] = r.ID
				}
				s.remember(ids, false)
			}
		case opSummary:
			_, err = c.Summary(o.exp)
		case opGet:
			_, err = c.Get(s.pick(rng))
		case opIngest:
			var ids []string
			if ids, err = c.IngestBatch(s.batch()); err == nil {
				s.remember(ids, true)
			}
		}
	})
	return err
}

// maxRate is the highest ladder rate meeting the limit, refined toward the
// first failing step by where the limit falls between the two steps' p99s,
// so it moves continuously rather than by whole steps.
func maxRate(ladder []*stepStats) float64 {
	last := -1
	for i, st := range ladder {
		if !st.Pass {
			break
		}
		last = i
	}
	if last < 0 {
		return ladder[0].Rate * math.Min(1, latencyLimitMs/ladder[0].P99)
	}
	if last == len(ladder)-1 {
		return ladder[last].Rate
	}
	lp, lf := ladder[last].P99, ladder[last+1].P99
	frac := 0.0
	if lf > lp && !math.IsInf(lf, 1) {
		frac = math.Min(1, (latencyLimitMs-lp)/(lf-lp))
	}
	return ladder[last].Rate * math.Pow(ladderGrowth, frac)
}

// probe runs the portal probe: the nominal step, the ladder, the traced
// step with the direct Store calls, and the reopen, all on a fresh durable
// portal with the synthetic archive. It fills the portal layers of rep.
func (b *serveBench) probe(rep *report) error {
	start := time.Now()
	sys, err := b.setup("probe")
	if err != nil {
		return err
	}
	rep.info("probe_setup_s", time.Since(start).Seconds())
	closed := false
	defer func() {
		if !closed {
			sys.close()
		}
	}()

	// With --seconds 20: a 6 s nominal step, then at most six 0.75 s ladder
	// steps.
	unit := time.Duration(b.cfg.seconds * float64(time.Second) / 20)
	nominalDur, stepDur := 6*unit, 3*unit/4
	before := readGoStats()
	nominal := sys.step(nominalRate, nominalDur, 0, nil)
	var ladder []*stepStats
	rate := ladderStart
	for i := 1; i <= maxLadderSteps; i++ {
		st := sys.step(rate, stepDur, int64(10+i), nil)
		ladder = append(ladder, st)
		if !st.Pass {
			break
		}
		rate *= ladderGrowth
	}
	gs := readGoStats().since(before)
	ops, failed := nominal.Ops, nominal.Failed
	var late []float64
	backlog := nominal.BacklogMax
	late = append(late, nominal.late...)
	for _, st := range ladder {
		ops += st.Ops
		failed += st.Failed
		if st.Pass {
			late = append(late, st.late...)
			backlog = max(backlog, st.BacklogMax)
		}
	}
	rep.attempt(int64(ops), int64(failed))
	rep.set("max_rate_rps", maxRate(ladder))
	readP50 := quantile(nominal.read, 0.5)
	rep.set("read_ms_p50", readP50)
	rep.set("read_ms_p99", quantile(nominal.read, 0.99))
	rep.set("write_ms_p50", quantile(nominal.write, 0.5))
	rep.set("write_ms_p99", quantile(nominal.write, 0.99))
	rep.set("gen.late_ms_p99", quantile(late, 0.99))
	rep.set("gen.backlog_max", float64(backlog))
	rep.set("go.alloc_kb_per_request", gs.allocBytes/float64(ops)/1024)
	rep.info("probe_nominal", nominal)
	rep.info("probe_ladder", ladder)

	if err := sys.traced(rep, readP50, nominalDur/2); err != nil {
		return err
	}

	// Every acknowledged ingest must be gettable, now and after a reopen.
	sys.checkAcked(rep, sys.store, "after the run")
	closed = true
	if err := sys.close(); err != nil {
		return err
	}
	var reopens []float64
	for k := 0; k < setupRepeats; k++ {
		start := time.Now()
		st, err := portal.OpenStoreWith(sys.dir, portal.Options{AutoCompactSegments: 8})
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		if _, err := st.SearchPage(portal.Query{Limit: 1}); err != nil {
			st.Close()
			return fmt.Errorf("reopen: %w", err)
		}
		reopens = append(reopens, ms(time.Since(start)))
		if k == 0 {
			sys.checkAcked(rep, st, "after reopen")
		}
		if err := st.Close(); err != nil {
			return err
		}
	}
	rep.set("reopen_ms", median(reopens))
	return nil
}

func (s *serveSystem) checkAcked(rep *report, st *portal.Store, when string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	missing := 0
	for _, id := range s.acked {
		if _, err := st.Get(id); err != nil {
			missing++
		}
	}
	if missing > 0 {
		rep.addFailures([]string{fmt.Sprintf("%d of %d acknowledged records not gettable %s", missing, len(s.acked), when)})
	}
	rep.info("acknowledged_records", len(s.acked))
}

// traced runs the nominal step again with the client and server probes on,
// then the same mix as direct Store calls, and the same ingest batches on
// an in-memory store of the same size: the cost of durability.
func (s *serveSystem) traced(rep *report, untracedP50 float64, dur time.Duration) error {
	t := newTracer()
	s.probe.tr.Store(t)
	st := s.step(nominalRate, dur, 100, t)
	s.probe.tr.Store(nil)
	rep.attempt(int64(st.Ops), int64(st.Failed))
	rep.info("probe_trace_overhead_frac", quantile(st.read, 0.5)/untracedP50-1)
	spans, values, _ := t.snapshot()
	for _, k := range opNames {
		rep.dist("portal.client_ms."+k, durations(spans, "portal.client_ms."+k))
		rep.dist("portal.server_ms."+k, durations(spans, "portal.server_ms."+k))
	}
	rep.set("portal.response_bytes.search.p50", median(values["portal.response_bytes.search"]))

	direct := map[string][]float64{}
	var batches [][]portal.Record
	rng := rand.New(rand.NewSource(int64(s.b.hash64(4))))
	for k := 0; k < directOps; k++ {
		h := s.b.hash64(5, int64(k))
		kind := pickOp(h)
		exp := fmt.Sprintf("exp-%d", h>>32%serveExperiments)
		start := time.Now()
		var err error
		switch kind {
		case opSearch:
			after := s.b.t0.Add(time.Duration(s.next.Load()-500) * time.Second)
			_, err = s.store.SearchPage(portal.Query{Experiment: exp, After: after, Limit: searchLimit})
		case opSummary:
			_, err = s.store.Summarize(exp)
		case opGet:
			_, err = s.store.Get(s.pick(rng))
		case opIngest:
			recs := s.batch()
			var ids []string
			if ids, err = s.store.IngestBatch(recs); err == nil {
				s.remember(ids, true)
				batches = append(batches, recs)
			}
		}
		direct[opNames[kind]] = append(direct[opNames[kind]], float64(time.Since(start))/float64(time.Microsecond))
		if err != nil {
			return fmt.Errorf("direct %s: %w", opNames[kind], err)
		}
	}
	for _, k := range opNames {
		rep.dist("portal.store_us."+k, direct[k])
	}

	mem := portal.NewStore()
	defer mem.Close()
	for have := int64(0); have < int64(s.store.Len()); have += preloadBatch {
		recs := make([]portal.Record, preloadBatch)
		for j := range recs {
			recs[j] = s.b.record(have + int64(j))
		}
		if _, err := mem.IngestBatch(recs); err != nil {
			return err
		}
	}
	var memUs []float64
	for _, recs := range batches {
		start := time.Now()
		if _, err := mem.IngestBatch(recs); err != nil {
			return err
		}
		memUs = append(memUs, float64(time.Since(start))/float64(time.Microsecond))
	}
	rep.dist("portal.ingest_mem_us", memUs)
	return nil
}
