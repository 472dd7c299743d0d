package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"factor/internal/service"
	"factor/internal/telemetry/metrics"
)

// serve-mix shape: a closed loop of serveClients clients, each
// repeating a script of scriptHits cache hits and scriptMisses cache
// misses in a seeded order. The mix gives hits and misses about equal
// shares of a script's time.
const (
	serveClients  = 2
	scriptHits    = 16
	scriptMisses  = 2
	serveSetups   = 5                // set-ups per run; setup_s is their median
	opTimeout     = 60 * time.Second // per request; a stuck request fails, it does not hang the run
	shutdownGrace = 30 * time.Second
)

// rssRounds is how many rounds, from the first, peak_rss_mb takes the
// median peak of. The server keeps every job submitted to it, cache
// hits too, each with its uploaded source, so its resident set grows
// with the requests served; a fixed round count fixes the work the
// metric is taken over.
const rssRounds = 10

// hitSpecs are primed during set-up, so every later submission of one
// is a cache hit: {exc, fwd} × {flat, composed}. The forwarding unit
// takes 64 random sequences, not 16: at 16 its report counts one fault
// as both aborted and detected, which the output check rejects — a
// program defect that is still open (see README.md, "Output checks").
func hitSpecs() []batchJob {
	return []batchJob{
		{"hit/exc/flat/rs16", armSpec("u_core.u_exc", "flat", 1, 16, 1)},
		{"hit/exc/composed/rs16", armSpec("u_core.u_exc", "composed", 1, 16, 1)},
		{"hit/fwd/flat/rs64", armSpec("u_core.u_fwd", "flat", 1, 64, 1)},
		{"hit/fwd/composed/rs64", armSpec("u_core.u_fwd", "composed", 1, 64, 1)},
	}
}

// missJob is a cache miss: a spec no earlier submission used, by way
// of a fresh JobSpec.Seed drawn from the workload seed, the client and
// the client's miss count.
func missJob(seed int64, client, n int) batchJob {
	s := int64(1)<<40 + seed<<20 + int64(client)<<16 + int64(n)
	return batchJob{fmt.Sprintf("miss/exc/composed/seed%d", s), armSpec("u_core.u_exc", "composed", 1, 16, s)}
}

// served is a factord server on a loopback listener over a fresh data
// directory.
type served struct {
	srv  *service.Server
	hs   *http.Server
	base string
	dir  string
	done chan struct{} // closed when the HTTP server has stopped serving
	hc   *http.Client
}

// startServed starts a server the way factord does (metrics, SSE
// progress and job traces on; default runners and queue).
func startServed(dir string) (*served, error) {
	srv, err := service.New(service.Config{
		DataDir:   dir,
		Progress:  true,
		Metrics:   metrics.NewRegistry(),
		TraceJobs: true,
	})
	if err != nil {
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &served{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(),
		dir:  dir,
		done: make(chan struct{}),
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}},
	}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

// stop shuts the HTTP server and the job server down, waits for both,
// and removes the data directory.
func (s *served) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	s.hc.CloseIdleConnections()
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

func (s *served) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// submit posts a job and returns its status.
func (s *served) submit(ctx context.Context, spec service.JobSpec, wantCode int) (service.JobStatus, error) {
	body, err := json.Marshal(service.JobRequest{JobSpec: spec})
	if err != nil {
		return service.JobStatus{}, err
	}
	code, data, err := s.do(ctx, http.MethodPost, "/api/v1/jobs", body)
	if err != nil {
		return service.JobStatus{}, err
	}
	if code != wantCode {
		return service.JobStatus{}, fmt.Errorf("POST /api/v1/jobs: status %d, want %d: %s", code, wantCode, bytes.TrimSpace(data))
	}
	var st service.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return st, fmt.Errorf("decoding job status: %w", err)
	}
	return st, nil
}

// awaitDone follows the job's SSE stream until its done event and
// checks that the job ended done.
func (s *served) awaitDone(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/api/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			var st struct{ State, Error string }
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				return fmt.Errorf("decoding done event: %w", err)
			}
			if st.State != string(service.JobDone) {
				return fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
			}
			// Drain the stream's end so the connection can be reused.
			io.Copy(io.Discard, resp.Body)
			return nil
		case line == "":
			event = ""
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("job %s: event stream ended without a done event", id)
}

// report fetches a done job's report bytes.
func (s *served) report(ctx context.Context, st service.JobStatus) ([]byte, error) {
	if st.ReportURL == "" {
		st.ReportURL = "/api/v1/jobs/" + st.ID + "/report"
	}
	code, data, err := s.do(ctx, http.MethodGet, st.ReportURL, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET report: status %d", code)
	}
	return data, nil
}

// hit is one cache hit: POST (200, cached) then GET the report.
func (s *served) hit(ctx context.Context, spec service.JobSpec) ([]byte, error) {
	st, err := s.submit(ctx, spec, http.StatusOK)
	if err != nil {
		return nil, err
	}
	if !st.Cached {
		return nil, fmt.Errorf("job %s: submission was not served from the cache", st.ID)
	}
	return s.report(ctx, st)
}

// miss is one cache miss: POST (202), wait for done on the SSE stream,
// GET the report.
func (s *served) miss(ctx context.Context, spec service.JobSpec) ([]byte, error) {
	st, err := s.submit(ctx, spec, http.StatusAccepted)
	if err != nil {
		return nil, err
	}
	if err := s.awaitDone(ctx, st.ID); err != nil {
		return nil, err
	}
	return s.report(ctx, st)
}

// serveSetup starts a server on a fresh data directory and primes the
// hit specs. It returns the server and the set-up's wall time.
func serveSetup(ctx context.Context, dir string, ledger *reportLedger) (*served, float64, error) {
	start := time.Now()
	s, err := startServed(dir)
	if err != nil {
		return nil, 0, err
	}
	for _, h := range hitSpecs() {
		ctx, cancel := context.WithTimeout(ctx, opTimeout)
		data, err := s.miss(ctx, h.spec)
		cancel()
		if err == nil {
			_, err = ledger.add(h.label, data)
		}
		if err != nil {
			s.stop()
			return nil, 0, fmt.Errorf("priming %s: %w", h.label, err)
		}
	}
	return s, time.Since(start).Seconds(), nil
}

// serveOp is one scripted request.
type serveOp struct {
	job  batchJob
	miss bool
}

// script is a client's next pass: every hit spec scriptHits/4 times
// and scriptMisses fresh misses, in an order drawn from rng.
func script(rng *rand.Rand, seed int64, client int, missCount *int) []serveOp {
	hits := hitSpecs()
	var ops []serveOp
	for i := range scriptHits {
		ops = append(ops, serveOp{job: hits[i%len(hits)]})
	}
	for range scriptMisses {
		ops = append(ops, serveOp{job: missJob(seed, client, *missCount), miss: true})
		*missCount++
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// serveLoad is what the clients measured. Guarded by mu while the
// clients run.
type serveLoad struct {
	mu              sync.Mutex
	hitMS, missMS   []float64 // a failed request enters as +Inf
	roundS          []float64 // wall time of each round
	peakMB          []float64 // resident-set peak of each round
	detected, total int       // over each client's first script
	firstScript     []serveOp
}

// record counts one request: its report is checked, a failed request
// enters the latencies as +Inf, and a first-script report adds to the
// coverage totals.
func (load *serveLoad) record(out *outcome, op serveOp, ms float64, data []byte, err error, firstScript bool) {
	load.mu.Lock()
	defer load.mu.Unlock()
	out.attempted++
	var cr checkedReport
	if err == nil {
		cr, err = out.ledger.add(op.job.label, data)
	}
	if err != nil {
		out.fail(fmt.Errorf("%s: %w", op.job.label, err))
		ms = math.Inf(1)
	} else if firstScript {
		load.detected += cr.Detected
		load.total += cr.TotalFaults
	}
	if op.miss {
		load.missMS = append(load.missMS, ms)
	} else {
		load.hitMS = append(load.hitMS, ms)
	}
}

// serveClient is one closed-loop client: its script order and the
// count of misses it has sent.
type serveClient struct {
	id        int
	rng       *rand.Rand
	missCount int
}

// runScript sends one script's requests in order, each after the last
// has completed, recording latencies.
func (c *serveClient) runScript(ctx context.Context, s *served, ops []serveOp, load *serveLoad, out *outcome, first bool) {
	for _, op := range ops {
		ctx, cancel := context.WithTimeout(ctx, opTimeout)
		t0 := time.Now()
		var data []byte
		var err error
		if op.miss {
			data, err = s.miss(ctx, op.job.spec)
		} else {
			data, err = s.hit(ctx, op.job.spec)
		}
		ms := float64(time.Since(t0).Microseconds()) / 1000
		cancel()
		load.record(out, op, ms, data, err, first)
	}
}

// runRounds runs rounds until the deadline (at least one). In a round
// every client runs one script at the same time; the round ends when
// the last client is done. Between rounds the heap is collected and
// returned to the system and the resident-set mark reset, so every
// round starts from the same state.
func runRounds(ctx context.Context, s *served, seed int64, deadline time.Time, load *serveLoad, out *outcome) error {
	rss, err := startPeakRSS()
	if err != nil {
		return err
	}
	clients := make([]*serveClient, serveClients)
	for c := range clients {
		clients[c] = &serveClient{id: c, rng: rand.New(rand.NewSource(seed*serveClients + int64(c)))}
	}
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		scripts := make([][]serveOp, len(clients))
		for c, cl := range clients {
			scripts[c] = script(cl.rng, seed, cl.id, &cl.missCount)
		}
		if round == 0 {
			load.firstScript = scripts[0]
		}
		debug.FreeOSMemory()
		if _, err := rss.take(); err != nil {
			return err
		}
		start := time.Now()
		var wg sync.WaitGroup
		for c, cl := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl.runScript(ctx, s, scripts[c], load, out, round == 0)
			}()
		}
		wg.Wait()
		load.roundS = append(load.roundS, time.Since(start).Seconds())
		peak, err := rss.take()
		if err != nil {
			return err
		}
		load.peakMB = append(load.peakMB, peak)
	}
	return nil
}

// runServeMix measures the serve-mix workload.
func runServeMix(ctx context.Context, cfg runConfig) (*outcome, error) {
	out := newOutcome()
	base := filepath.Join(workDir, fmt.Sprintf("serve-%d", os.Getpid()))

	// Set up serveSetups times on fresh data directories; keep the last.
	repeats := serveSetups
	if cfg.trace {
		repeats = 1
	}
	var setups []float64
	var s *served
	for i := range repeats {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		var setup float64
		var err error
		s, setup, err = serveSetup(ctx, fmt.Sprintf("%s-%d", base, i), out.ledger)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
	}
	stopped := false
	defer func() {
		if !stopped {
			s.stop()
		}
	}()

	before, err := scrape(ctx, s)
	if err != nil {
		return nil, err
	}
	memBefore := readMem()
	load := &serveLoad{}
	if err := runRounds(ctx, s, cfg.seed, time.Now().Add(cfg.seconds), load, out); err != nil {
		return nil, err
	}
	window := 0.0 // the rounds' time, without the pauses between them
	for _, r := range load.roundS {
		window += r
	}
	mem := readMem().since(memBefore)
	after, err := scrape(ctx, s)
	if err != nil {
		return nil, err
	}

	// Invariant I8 from outside: the report factord served for a hit
	// spec is byte-identical to an in-process RunPipeline run of it.
	h := hitSpecs()[1]
	if _, err := runOne(ctx, h, out); err != nil {
		out.fail(fmt.Errorf("in-process run vs served report: %w", err))
	}

	if cfg.trace {
		st := newServeStats(load, window, before, after)
		t, err := tracedScript(ctx, load.firstScript, out)
		if err != nil {
			return nil, err
		}
		t.mem = mem
		t.serve = st
		out.layers = t.metrics()
		out.table = t.table()
		out.spans = t.rec
	}
	stopped = true
	if err := s.stop(); err != nil {
		return nil, err
	}
	if cfg.trace {
		return out, nil
	}
	out.e2e = map[string]float64{
		"setup_s":      median(setups),
		"wall_s":       median(load.roundS),
		"coverage_pct": 100 * ratio(float64(load.detected), float64(load.total)),
		"peak_rss_mb":  median(load.peakMB[:min(len(load.peakMB), rssRounds)]),
	}
	out.notes = append(out.notes, fmt.Sprintf("rounds=%d hits=%d misses=%d hit_p50_ms=%.2f miss_p50_ms=%.2f window_s=%.3f setup_s=%.4g round_s=%.4g round_peak_rss_mb=%.4g",
		len(load.roundS), len(load.hitMS), len(load.missMS), median(load.hitMS), median(load.missMS), window, setups, load.roundS, load.peakMB))
	return out, nil
}

// scrapeSample is the server-side state read from /metrics,
// /api/v1/stats and the data directory.
type scrapeSample struct {
	prom       map[string]float64 // "name{labels}" as exposed → value
	counters   map[string]uint64
	storeBytes int64
}

var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)

func scrape(ctx context.Context, s *served) (*scrapeSample, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	out := &scrapeSample{prom: map[string]float64{}}
	code, data, err := s.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d: %v", code, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		out.prom[m[1]+m[2]] = v
	}
	code, data, err = s.do(ctx, http.MethodGet, "/api/v1/stats", nil)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("GET /api/v1/stats: status %d: %v", code, err)
	}
	var stats struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &stats); err != nil {
		return nil, fmt.Errorf("decoding stats: %w", err)
	}
	out.counters = stats.Counters
	err = filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil // a temp file renamed away mid-walk
			}
			return err
		}
		if d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				out.storeBytes += info.Size()
			}
		}
		return nil
	})
	return out, err
}

// sum adds every series of a metric whose labels contain all of want.
func (s *scrapeSample) sum(name string, want ...string) float64 {
	total := 0.0
	for k, v := range s.prom {
		if !strings.HasPrefix(k, name+"{") && k != name {
			continue
		}
		ok := true
		for _, w := range want {
			if !strings.Contains(k, w) {
				ok = false
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// serveStats are the serve-mix per-layer numbers of the measured
// window.
type serveStats struct {
	hitMS, missMS       []float64
	hitP50, missP50     float64
	hitTail, missTail   float64
	hitTailP, missTailP float64
	window              float64
	service             map[string]float64
}

func newServeStats(load *serveLoad, window float64, before, after *scrapeSample) *serveStats {
	st := &serveStats{hitMS: load.hitMS, missMS: load.missMS, window: window}
	st.hitP50 = percentile(st.hitMS, 50)
	st.missP50 = percentile(st.missMS, 50)
	st.hitTailP = tailPercentile(len(st.hitMS))
	st.missTailP = tailPercentile(len(st.missMS))
	if st.hitTailP > 0 {
		st.hitTail = percentile(st.hitMS, st.hitTailP)
	}
	if st.missTailP > 0 {
		st.missTail = percentile(st.missMS, st.missTailP)
	}
	delta := func(name string, want ...string) float64 {
		return after.sum(name, want...) - before.sum(name, want...)
	}
	mean := func(name string, want ...string) float64 {
		return ratio(delta(name+"_sum", want...), delta(name+"_count", want...))
	}
	counter := func(name string) float64 {
		return float64(after.counters[name]) - float64(before.counters[name])
	}
	st.service = map[string]float64{
		"queue.wait_s":         mean("factord_queue_wait_seconds"),
		"runner.busy_s":        mean("factord_job_seconds", `outcome="done"`),
		"http.submit_hit_s":    mean("factord_http_request_seconds", `route="submit"`, `code="200"`),
		"http.submit_miss_s":   mean("factord_http_request_seconds", `route="submit"`, `code="202"`),
		"http.report_s":        mean("factord_http_request_seconds", `route="report"`, `code="200"`),
		"journal.flushes":      counter("service.checkpoint_flushes"),
		"service.cache_hits":   counter("service.cache_hits"),
		"service.cache_misses": counter("service.cache_misses"),
		"store.bytes_written":  float64(after.storeBytes - before.storeBytes),
	}
	return st
}

func (st *serveStats) metrics() map[string]float64 {
	m := map[string]float64{
		"serve.hit_p50_ms":    st.hitP50,
		"serve.hit_tail_ms":   st.hitTail,
		"serve.hit_tail_pct":  st.hitTailP,
		"serve.hits":          float64(len(st.hitMS)),
		"serve.miss_p50_ms":   st.missP50,
		"serve.miss_tail_ms":  st.missTail,
		"serve.miss_tail_pct": st.missTailP,
		"serve.misses":        float64(len(st.missMS)),
		"serve.req_per_s":     ratio(float64(len(st.hitMS)+len(st.missMS)), st.window),
	}
	for k, v := range st.service {
		m[k] = v
	}
	return m
}

// table renders the serve-mix lines of the per-layer table: latencies
// and the shares of them the traced layers account for.
func (st *serveStats) table(t *tracer) string {
	var b strings.Builder
	fmt.Fprintf(&b, "serve: %d hits p50 %.2fms p%g %.2fms; %d misses p50 %.2fms p%g %.2fms; %.2f req/s over %.2fs at %d clients\n",
		len(st.hitMS), st.hitP50, st.hitTailP, st.hitTail, len(st.missMS), st.missP50, st.missTailP, st.missTail,
		ratio(float64(len(st.hitMS)+len(st.missMS)), st.window), st.window, serveClients)
	perHit := ratio(t.hitFrontS, float64(t.hits))
	fmt.Fprintf(&b, "serve: build front per hit %.2fms = %.1f%% of hit p50\n", 1000*perHit, 100*ratio(1000*perHit, st.hitP50))
	perMiss := ratio(t.missS, float64(t.misses))
	fmt.Fprintf(&b, "serve: in-process work per miss (2 builds, ATPG, replay, render) %.2fms = %.1f%% of miss p50\n",
		1000*perMiss, 100*ratio(1000*perMiss, st.missP50))
	for _, k := range []string{"queue.wait_s", "runner.busy_s", "http.submit_hit_s", "http.submit_miss_s", "http.report_s"} {
		fmt.Fprintf(&b, "service: %-20s %.2fms mean\n", k, 1000*st.service[k])
	}
	for _, k := range []string{"journal.flushes", "service.cache_hits", "service.cache_misses", "store.bytes_written"} {
		fmt.Fprintf(&b, "service: %-20s %.0f\n", k, st.service[k])
	}
	return b.String()
}

// tracedScript replays client 0's first script in process, first
// untraced (as the server runs it: admission Build, snapshot and hash
// for every request; RunPipeline, render and the stored snapshot for a
// miss) and then traced, taken apart into public calls.
func tracedScript(ctx context.Context, ops []serveOp, out *outcome) (*tracer, error) {
	t := newTracer()
	start := time.Now()
	for _, op := range ops {
		b, err := service.Build(ctx, op.job.spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", op.job.label, err)
		}
		service.Hash(b.Snapshot(), op.job.spec)
		if op.miss {
			if _, err := runOne(ctx, op.job, out); err != nil {
				return nil, err
			}
			b.Snapshot()
		}
	}
	t.refWall = time.Since(start).Seconds()

	start = time.Now()
	for _, op := range ops {
		job := op.job.label
		root, err := t.traceJob(ctx, job, func(ctx context.Context, root *spanRec) error {
			b, err := t.front(ctx, op.job.spec, job, root)
			if err != nil {
				return err
			}
			t.address(op.job.spec, b, job, root)
			if !op.miss {
				return nil
			}
			// The runner's own Build, under the job's telemetry.
			if b, err = t.front(ctx, op.job.spec, job, root); err != nil {
				return err
			}
			if err := t.atpgJob(ctx, job, op.job.spec, b, out.reports[job], root); err != nil {
				return err
			}
			_ = t.call("netlist.Snapshot", job, root, func() error {
				b.nl.Snapshot()
				return nil
			})
			return nil
		})
		if err != nil {
			return nil, err
		}
		if op.miss {
			t.misses++
			t.missS += root.seconds()
		} else {
			t.hits++
			t.hitFrontS += root.seconds()
		}
	}
	t.wall = time.Since(start).Seconds()
	return t, nil
}
