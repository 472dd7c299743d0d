package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"factor/internal/atpg"
	"factor/internal/telemetry"
	"factor/internal/telemetry/metrics"
)

// Config shapes a Server.
type Config struct {
	// DataDir roots the content-addressed store and job ledger.
	DataDir string
	// QueueCap bounds the job queue (default 64).
	QueueCap int
	// Runners is the number of concurrent job runner goroutines
	// (default 2; negative = none, for queue-only inspection in tests
	// and tooling). Each job additionally parallelizes internally per
	// its spec's Workers.
	Runners int
	// JobBudget is the soft per-job time budget (0 = none). See
	// RunConfig.Budget for the determinism caveat.
	JobBudget time.Duration
	// CheckpointEvery is the journal flush cadence in merged
	// deterministic-phase faults (default 64; never changes results).
	CheckpointEvery int
	// Progress enables SSE progress events and heartbeats (the
	// telemetry ProgressEnabled gate).
	Progress bool
	// ProgressEvery rate-limits progress events (default 250ms).
	ProgressEvery time.Duration
	// Heartbeat is the SSE keep-alive cadence (default 15s), active
	// only when Progress is on.
	Heartbeat time.Duration
	// Tel is the server-plane telemetry handle (cache hits, queue
	// rejects, ...). Nil allocates one. Per-job pipeline counters go
	// to a fresh per-job handle instead, so job reports carry exactly
	// the counters a CLI run would.
	Tel *telemetry.Telemetry
	// Metrics is the operational metrics registry behind GET /metrics.
	// Nil disables the plane: every instrument degrades to a nil-safe
	// no-op and the exposition is empty. Enabling it never changes
	// report bytes (invariant I8 covers this).
	Metrics *metrics.Registry
	// TraceJobs buffers each job's wall-clock spans and publishes the
	// assembled Chrome trace at GET /api/v1/jobs/{id}/trace once the
	// job completes. Diagnostic plane only; never report material.
	TraceJobs bool
	// Logger receives structured request/job logs (slog). Nil
	// discards.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.Runners == 0 {
		c.Runners = 2
	} else if c.Runners < 0 {
		c.Runners = 0
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 64
	}
	if c.ProgressEvery <= 0 {
		c.ProgressEvery = 250 * time.Millisecond
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 15 * time.Second
	}
	if c.Tel == nil {
		c.Tel = telemetry.New()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// Server is the FACTOR job server: HTTP handlers feeding a bounded
// tenant-fair queue drained by runner goroutines, backed by the
// content-addressed store.
type Server struct {
	cfg   Config
	store *Store
	q     *queue
	tel   *telemetry.Telemetry
	met   *serverMetrics
	log   *slog.Logger
	mux   *http.ServeMux

	baseCtx   context.Context
	interrupt context.CancelFunc
	// stopCh closes when shutdown begins: SSE streams end, submits 503.
	stopCh    chan struct{}
	stopOnce  sync.Once
	accepting atomic.Bool

	mu      sync.Mutex
	jobs    map[string]*Job
	nextSeq int

	runWG sync.WaitGroup
}

// New opens the store, replays the job ledger (re-enqueueing every
// non-terminal job, to be resumed from its checkpoint journal), and
// builds the handler. Runners start with Start.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	store, err := NewStore(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		store:     store,
		q:         newQueue(cfg.QueueCap),
		tel:       cfg.Tel,
		met:       newServerMetrics(cfg.Metrics),
		log:       cfg.Logger,
		baseCtx:   ctx,
		interrupt: cancel,
		stopCh:    make(chan struct{}),
		jobs:      map[string]*Job{},
	}
	// The deterministic server-plane counters show up in the scrape
	// read-only; the flow is one-way, so reports cannot fork.
	metrics.Bridge(cfg.Metrics, "factord_counter",
		"server-plane deterministic telemetry counters", cfg.Tel)
	s.accepting.Store(true)
	if err := s.rescan(); err != nil {
		cancel()
		return nil, err
	}
	s.buildMux()
	return s, nil
}

// rescan replays the persisted ledger: terminal jobs become queryable
// history, non-terminal jobs are re-enqueued in submission order.
func (s *Server) rescan() error {
	recs, err := s.store.LoadJobs()
	if err != nil {
		return err
	}
	for _, rec := range recs {
		j := newJob(rec.ID, rec.Seq, rec.Tenant, rec.Hash, rec.Spec, rec.CancelOnDisconnect)
		j.Cached = rec.Cached
		if rec.Seq >= s.nextSeq {
			s.nextSeq = rec.Seq + 1
		}
		state := JobState(rec.State)
		if state.resumable() {
			// Interrupted or mid-run at crash: back to the queue; the
			// runner resumes from the journal.
			s.tel.AddCounter("service.jobs_resumed", 1)
			s.jobs[j.ID] = j
			j.enqueuedAt = time.Now()
			if err := s.q.Push(j); err != nil {
				// Over-capacity ledger (cap shrank across restart):
				// leave the job visible but unqueued; a resubmission
				// of the same design will still be served via CAS.
				j.setState(JobFailed, "restart rescan: "+err.Error())
				s.persist(j)
			}
			continue
		}
		j.setState(state, rec.Error)
		s.jobs[j.ID] = j
	}
	return nil
}

// Start launches the runner pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Runners; i++ {
		s.runWG.Add(1)
		go func() {
			defer s.runWG.Done()
			for {
				j, ok := s.q.Pop()
				if !ok {
					return
				}
				s.met.queueDepth.With(j.Tenant).Set(float64(s.q.TenantLen(j.Tenant)))
				if !j.enqueuedAt.IsZero() {
					s.met.queueWait.With(j.Tenant).Observe(time.Since(j.enqueuedAt).Seconds())
				}
				if s.baseCtx.Err() != nil {
					// Hard stop: leave the job resumable for the next
					// boot.
					s.transition(j, JobInterrupted, "server shutting down")
					continue
				}
				s.runJob(j)
			}
		}()
	}
}

// Handler is the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Telemetry is the server-plane counter handle (cache hits, rejects).
func (s *Server) Telemetry() *telemetry.Telemetry { return s.tel }

// QueueLen is the number of queued jobs.
func (s *Server) QueueLen() int { return s.q.Len() }

// Interrupt cancels every running job. Jobs flush their checkpoint
// journals and persist as interrupted — resumable on next boot. Used
// by the SIGTERM hard-deadline path and by crash tests as an
// in-process stand-in for kill -9.
func (s *Server) Interrupt() {
	s.beginStop()
	s.interrupt()
}

func (s *Server) beginStop() {
	s.stopOnce.Do(func() {
		s.accepting.Store(false)
		close(s.stopCh)
		s.q.Close()
	})
}

// Shutdown drains gracefully: stop accepting, let the runners finish
// every queued job, and — if ctx expires first — interrupt what is
// left (interrupted jobs resume on next boot). Always returns after
// the runner pool exits.
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginStop()
	done := make(chan struct{})
	go func() {
		s.runWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.interrupt()
		<-done
		return ctx.Err()
	}
}

// Close is an immediate Shutdown: interrupt running jobs and wait.
func (s *Server) Close() error {
	s.Interrupt()
	s.runWG.Wait()
	return nil
}

// persist writes the job's current ledger record.
func (s *Server) persist(j *Job) {
	j.persistMu.Lock()
	defer j.persistMu.Unlock()
	if err := s.store.PutJob(j.record()); err != nil {
		fmt.Fprintf(os.Stderr, "factord: persisting job %s: %v\n", j.ID, err)
	}
}

// stateData renders the canonical SSE data payload for a state event.
func stateData(j *Job) string {
	st, errMsg := j.State()
	payload := map[string]any{"id": j.ID, "state": string(st)}
	if j.Cached {
		payload["cached"] = true
	}
	if errMsg != "" {
		payload["error"] = errMsg
	}
	data, _ := json.Marshal(payload)
	return string(data)
}

// transition moves a job to state, persists it, and publishes the SSE
// state event.
func (s *Server) transition(j *Job, state JobState, errMsg string) {
	if !j.setState(state, errMsg) {
		return
	}
	s.met.transitions.With(string(state)).Inc()
	s.persist(j)
	event := "state"
	if state.terminal() {
		event = "done"
	}
	j.hub.publish(event, stateData(j))
}

// runJob executes one job end to end. Each outcome is counted before
// its terminal state is published, so a client that observes the state
// also observes the count.
func (s *Server) runJob(j *Job) {
	start := time.Now()
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	j.bindCancel(cancel)
	if j.cancelRequested() {
		s.tel.AddCounter("service.jobs_canceled", 1)
		s.transition(j, JobCanceled, "canceled before start")
		return
	}
	s.transition(j, JobRunning, "")
	s.log.Info("job started", "job", j.ID, "tenant", j.Tenant, "hash", j.Hash)

	// Per-job telemetry: a fresh handle so the report carries exactly
	// the pipeline counters a CLI run of the same spec would. Spans
	// buffered here become the job's /trace artifact; they live on the
	// wall-clock plane and never touch the report.
	jtel := telemetry.New()
	jtel.SetTool("factor")
	if s.cfg.TraceJobs {
		jtel.EnableTrace()
	}
	if s.cfg.Progress {
		jtel.EnableProgress(lineWriter{j.hub}, s.cfg.ProgressEvery)
	}
	defer func() {
		state, _ := j.State()
		s.met.observeStages(jtel)
		s.met.jobSecs.With(string(state)).Observe(time.Since(start).Seconds())
		s.log.Info("job finished",
			"job", j.ID, "tenant", j.Tenant, "outcome", string(state),
			"duration_ms", time.Since(start).Milliseconds(), "cached", false)
	}()

	ckptPath := s.store.CheckpointPath(j.ID)
	journal := atpg.NewJournal(ckptPath)
	sink := func(ck *atpg.Checkpoint) error {
		if err := journal.Flush(ck); err != nil {
			return err
		}
		s.tel.AddCounter("service.checkpoint_flushes", 1)
		j.hub.publish("checkpoint", fmt.Sprintf(`{"id":%q,"generation":%d}`, j.ID, ck.Generation))
		return nil
	}
	var resume *atpg.Checkpoint
	if ck, fellBack, err := atpg.LoadLatest(ckptPath); err == nil {
		resume = ck
		if fellBack {
			s.tel.AddCounter("service.resume_fallbacks", 1)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		s.tel.AddCounter("service.jobs_failed", 1)
		s.transition(j, JobFailed, "loading checkpoint journal: "+err.Error())
		return
	}

	s.tel.AddCounter("service.pipeline_runs", 1)
	rep, b, runErr := RunPipeline(ctx, j.Spec, RunConfig{
		Tel:             jtel,
		Checkpoint:      sink,
		CheckpointEvery: s.cfg.CheckpointEvery,
		Resume:          resume,
		Budget:          s.cfg.JobBudget,
	})

	switch {
	case runErr == nil:
		report, err := rep.Render()
		if err == nil {
			spec, _ := json.Marshal(j.Spec.withDefaults())
			err = s.store.PutResult(j.Hash, b.Snapshot(), append(spec, '\n'), report)
		}
		if err != nil {
			s.tel.AddCounter("service.jobs_failed", 1)
			s.transition(j, JobFailed, "publishing result: "+err.Error())
			return
		}
		if s.cfg.TraceJobs {
			// Best effort: the trace is a diagnostic artifact, so a
			// publish failure degrades to "no trace", never the job.
			var buf bytes.Buffer
			if err := jtel.WriteTrace(&buf); err == nil {
				if err := s.store.PutTrace(j.ID, buf.Bytes()); err != nil {
					s.log.Warn("publishing job trace", "job", j.ID, "error", err.Error())
				}
			}
		}
		s.store.RemoveCheckpoint(j.ID)
		s.tel.AddCounter("service.jobs_completed", 1)
		s.transition(j, JobDone, "")
	case s.baseCtx.Err() != nil && !j.cancelRequested():
		// Server shutdown, not a client cancel: the journal holds the
		// progress; next boot re-enqueues and resumes.
		s.tel.AddCounter("service.jobs_interrupted", 1)
		s.transition(j, JobInterrupted, "server shutting down")
	case j.cancelRequested():
		s.tel.AddCounter("service.jobs_canceled", 1)
		s.transition(j, JobCanceled, "canceled")
	default:
		s.tel.AddCounter("service.jobs_failed", 1)
		s.transition(j, JobFailed, runErr.Error())
	}
}

// submit admits a spec: build (validating the design and computing the
// content address), serve from the store when the result exists, else
// enqueue. The *Job is returned in both cases.
func (s *Server) submit(tenant string, spec JobSpec, cancelOnDisconnect bool) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// Admission build: cheap (parse+synth), no telemetry — the job's
	// own run rebuilds under its per-job handle.
	b, err := Build(s.baseCtx, spec)
	if err != nil {
		return nil, err
	}
	hash := Hash(b.Snapshot(), spec)

	s.mu.Lock()
	seq := s.nextSeq
	s.nextSeq++
	id := fmt.Sprintf("j%06d", seq)
	j := newJob(id, seq, tenant, hash, spec, cancelOnDisconnect)
	s.jobs[id] = j
	s.mu.Unlock()
	s.tel.AddCounter("service.jobs_submitted", 1)

	if s.store.HasResult(hash) {
		// Content-addressed cache hit: done without running.
		j.Cached = true
		s.tel.AddCounter("service.cache_hits", 1)
		s.met.casHits.Inc()
		s.transition(j, JobDone, "")
		s.log.Info("job served from cache", "job", j.ID, "tenant", tenant,
			"hash", hash, "cached", true)
		return j, nil
	}
	s.tel.AddCounter("service.cache_misses", 1)
	s.met.casMisses.Inc()
	j.enqueuedAt = time.Now()
	if err := s.q.Push(j); err != nil {
		s.tel.AddCounter("service.queue_rejects", 1)
		s.log.Warn("job rejected", "tenant", tenant, "error", err.Error())
		s.mu.Lock()
		delete(s.jobs, j.ID)
		s.mu.Unlock()
		return nil, err
	}
	s.met.queueDepth.With(tenant).Set(float64(s.q.TenantLen(tenant)))
	s.persist(j)
	return j, nil
}

// job looks up a job by ID.
func (s *Server) job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}
