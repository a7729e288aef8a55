// Command perfbench is the colormatch system's benchmark. One invocation
// runs one workload from a seed, checks the program's outputs, and prints
// every metric by name with its unit:
//
//	perfbench --workload fleet-local --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 also runs a traced
// phase and prints the per-layer table instead. The last line of standard
// output is the result object; the line before it is the full report
// (environment, per-step tables, digests). BENCHMARK.md in this directory
// describes the workloads and metrics; run.sh builds and runs it.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"colormatch/internal/portal"
)

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median.
const setupRepeats = 5

// blocks is how many blocks a measured phase is split into; its
// end-to-end figures are medians over the blocks.
const blocks = 7

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // this run's data directory, removed at exit
	procs    int    // cells, and connections of the portal probe
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "fleet-local | fleet-remote")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; every input the program sees derives from it")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured phase")
	traceFlag := flag.Int("trace", 0, "1 adds a traced phase and prints the per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/data", "directory for the run's durable stores")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	cfg.procs = runtime.NumCPU()

	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*workdir, cfg.workload+"-")
	if err != nil {
		fatal(err)
	}
	rep, err := run(cfg, dir)
	if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fatal(err)
	}
	rep.set("rss_peak_mb", peakRSSMB())
	rep.info("env", describeEnv(cfg))
	if err := rep.print(os.Stdout, cfg.trace); err != nil {
		fatal(err)
	}
	if len(rep.failures) > 0 {
		for _, f := range rep.failures {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
		}
		os.Exit(1)
	}
}

func run(cfg config, dir string) (*report, error) {
	cfg.dir = dir
	ctx := context.Background()
	switch cfg.workload {
	case "fleet-local":
		return newFleetBench(cfg, false).run(ctx)
	case "fleet-remote":
		return newFleetBench(cfg, true).run(ctx)
	}
	return nil, fmt.Errorf("unknown workload %q (want fleet-local or fleet-remote)", cfg.workload)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them (BENCHMARK.md gives each one's meaning per workload).
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
}

// perLayer is the traced layer table. A layer a workload does not exercise
// reads 0 (its count is 0 too), which is itself the prediction: wire time
// on fleet-local, for instance.
var perLayer = expand(
	"dist:wei.act_ms.camera:ms", "dist:wei.act_ms.other:ms", "wei.act_errors:count",
	"dist:wei.server_ms.camera:ms", "dist:wei.wire_ms.camera:ms", "wei.wire_frac.camera:ratio",
	"wei.frame_wire_bytes.p50:bytes",
	"dist:render.render_ms:ms", "dist:vision.encode_ms:ms", "dist:camera.decode_frame_ms:ms",
	"dist:vision.decode_ms:ms", "dist:vision.analyze_ms:ms",
	"dist:core.self_ms:ms", "dist:solver.propose_us:us", "dist:solver.observe_us:us",
	"dist:fleet.prepare_ms:ms", "fleet.attempts_per_campaign:count",
	"dist:flow.publish_ms:ms", "flow.publish_bytes.p50:bytes", "flow.publish_retries:count",
	"portal.event_batch_ms.p50:ms", "portal.event_batches:count", "portal.events_dropped:count",
	"dist:portal.server_ms.events:ms", "dist:portal.server_ms.ingest:ms",
	"dist:portal.client_ms.search:ms", "dist:portal.client_ms.summary:ms",
	"dist:portal.client_ms.get:ms", "dist:portal.client_ms.ingest:ms",
	"dist:portal.server_ms.search:ms", "dist:portal.server_ms.summary:ms", "dist:portal.server_ms.get:ms",
	"dist:portal.store_us.search:us", "dist:portal.store_us.summary:us",
	"dist:portal.store_us.get:us", "dist:portal.store_us.ingest:us", "dist:portal.ingest_mem_us:us",
	"portal.response_bytes.search.p50:bytes",
	"gen.late_ms_p99:ms", "gen.backlog_max:count",
	"go.gc_cpu_frac:ratio", "go.alloc_mb_per_campaign:MB", "go.alloc_kb_per_request:KB",
	"trace.overhead_frac:ratio", "trace.uncovered_frac:ratio",
	"latency_ms_p99:ms", "watch_lag_ms_p50:ms", "watch_lag_ms_p99:ms",
	"read_ms_p50:ms", "read_ms_p99:ms", "write_ms_p50:ms", "write_ms_p99:ms",
	"max_rate_rps:1/s", "reopen_ms:ms", "failed_ratio:ratio",
)

// expand turns "name:unit" entries into metric definitions; a "dist:"
// entry is a distribution and becomes its median and its sample count.
func expand(specs ...string) []metricDef {
	var out []metricDef
	for _, s := range specs {
		dist := strings.HasPrefix(s, "dist:")
		name, unit, _ := strings.Cut(strings.TrimPrefix(s, "dist:"), ":")
		if dist {
			out = append(out, metricDef{name + ".p50", unit}, metricDef{name + ".count", "count"})
		} else {
			out = append(out, metricDef{name, unit})
		}
	}
	return out
}

// report gathers one run's metrics, checks and descriptive details.
type report struct {
	values    map[string]float64
	details   map[string]any
	failures  []string
	attempted int64
	failed    int64
}

func newReport() *report {
	return &report{values: map[string]float64{}, details: map[string]any{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }
func (r *report) info(key string, v any)     { r.details[key] = v }

// dist records a distribution as its median and its sample count.
func (r *report) dist(name string, xs []float64) {
	r.values[name+".p50"] = median(xs)
	r.values[name+".count"] = float64(len(xs))
}

func (r *report) addFailures(fs []string) { r.failures = append(r.failures, fs...) }

func (r *report) attempt(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the full report line, then the result line the benchmark
// contract reads: end-to-end metrics untraced, the layer table traced.
func (r *report) print(w io.Writer, traced bool) error {
	all := map[string]metricValue{}
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if v, ok := r.values[m.name]; ok {
				all[m.name] = metricValue{v, m.unit}
			}
		}
	}
	full, err := json.Marshal(map[string]any{"report": r.details, "metrics": all, "failures": r.failures})
	if err != nil {
		return err
	}
	set := endToEnd
	if traced {
		set = perLayer
	}
	out := map[string]metricValue{}
	for _, m := range set {
		out[m.name] = metricValue{r.values[m.name], m.unit}
	}
	res, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(r.failures) == 0, max(r.attempted, 1), r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", full, res)
	return err
}

// hosted is an HTTP server the benchmark runs on a loopback port, behind a
// serverProbe.
type hosted struct {
	srv   *http.Server
	url   string
	probe *serverProbe
	done  chan struct{}
}

func host(h http.Handler, track int, classify func(*http.Request) (string, string)) (*hosted, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &serverProbe{next: h, track: track, classify: classify}
	hs := &hosted{
		srv:   &http.Server{Handler: p, ReadHeaderTimeout: 10 * time.Second},
		url:   "http://" + ln.Addr().String(),
		probe: p,
		done:  make(chan struct{}),
	}
	go func() {
		defer close(hs.done)
		_ = hs.srv.Serve(ln) // returns http.ErrServerClosed once close is called
	}()
	return hs, nil
}

func (h *hosted) close() {
	_ = h.srv.Close() // the listener error, if any, was already returned by Serve
	<-h.done
}

// portalHost is a self-hosted durable portal as cmd/portal runs it with
// -data: a record store with background compaction and a durable event hub
// beside it, both fsyncing every batch.
type portalHost struct {
	*hosted
	dir   string
	store *portal.Store
	hub   *portal.Hub
}

func openPortal(dir string) (*portalHost, error) {
	store, err := portal.OpenStoreWith(dir, portal.Options{AutoCompactSegments: 8})
	if err != nil {
		return nil, err
	}
	hub, err := portal.OpenHub(portal.HubOptions{Dir: filepath.Join(dir, "events"), SubscriberBuffer: 256})
	if err != nil {
		store.Close()
		return nil, err
	}
	h, err := host(portal.Serve(store, portal.WithHub(hub)), -1, classifyPortal)
	if err != nil {
		hub.Close()
		store.Close()
		return nil, err
	}
	return &portalHost{hosted: h, dir: dir, store: store, hub: hub}, nil
}

// close stops the server, then the hub (ending live watches), then the
// store.
func (p *portalHost) close() error {
	p.hosted.close()
	return errors.Join(p.hub.Close(), p.store.Close())
}

// watch follows the portal's /watch stream from cursor into tally,
// reconnecting from its last cursor whenever the connection drops, until
// the returned stop function is called; stop waits for it to end.
func (p *portalHost) watch(cursor string, tally *watchTally) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	client := portal.NewClient(p.url)
	go func() {
		defer close(done)
		for ctx.Err() == nil {
			w, err := client.Watch(ctx, portal.WatchOptions{Cursor: cursor})
			if err != nil {
				select {
				case <-ctx.Done():
				case <-time.After(10 * time.Millisecond):
				}
				continue
			}
			for {
				ev, err := w.Next()
				if err != nil {
					break
				}
				tally.add(ev, time.Now())
			}
			cursor = w.Cursor()
			w.Close()
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// goStats is a reading of the runtime's CPU and allocation counters.
type goStats struct{ gcCPU, usedCPU, allocBytes float64 }

func readGoStats() goStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return goStats{
		gcCPU:      s[0].Value.Float64(),
		usedCPU:    s[1].Value.Float64() - s[2].Value.Float64(),
		allocBytes: float64(s[3].Value.Uint64()),
	}
}

func (g goStats) since(before goStats) goStats {
	return goStats{g.gcCPU - before.gcCPU, g.usedCPU - before.usedCPU, g.allocBytes - before.allocBytes}
}

func (g goStats) gcFrac() float64 {
	if g.usedCPU <= 0 {
		return 0
	}
	return g.gcCPU / g.usedCPU
}

// peakRSSMB reads the process's peak resident set from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// describeEnv records what a reader needs to compare two reports.
func describeEnv(cfg config) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"git_commit": sourceVersion(),
	}
}

// sourceVersion names the program version: the git commit when run from a
// git checkout, otherwise a digest of the module's Go sources.
func sourceVersion() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only leaves the digest without it
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(data))
		h.Write(data)
	}
	return "source-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
