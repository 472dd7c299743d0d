package atpg

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"factor/internal/factorerr"
	"factor/internal/failpoint"
	"factor/internal/fault"
	"factor/internal/netlist"
	"factor/internal/sim"
	"factor/internal/telemetry"
	"factor/internal/testability"
)

// Options configures the ATPG flow.
type Options struct {
	// MaxFrames bounds time-frame expansion. 0 derives it from the
	// circuit's sequential depth (depth+2, clamped to [1, 24]).
	MaxFrames int
	// BacktrackLimit aborts a deterministic search after this many
	// backtracks (default 512).
	BacktrackLimit int
	// RandomSequences is the random-phase budget (default 64).
	RandomSequences int
	// RandomSeqLen is the length of each random sequence. 0 derives it
	// from the sequential depth.
	RandomSeqLen int
	// Seed drives the random phase and random fill (default 1).
	Seed int64
	// TimeBudget bounds the whole run; faults not reached before the
	// deadline are left aborted. Zero means unlimited.
	TimeBudget time.Duration
	// DisableRandomPhase skips random patterns (ablation).
	DisableRandomPhase bool
	// Workers is the number of worker goroutines for the random-phase
	// fault simulation and the deterministic-phase PODEM searches.
	// <= 0 selects runtime.NumCPU(). Results are identical for every
	// worker count (see DESIGN.md, "Concurrency architecture"), except
	// under TimeBudget pressure where which faults get attempted before
	// the deadline is inherently timing-dependent.
	Workers int
	// Checkpoint, when non-nil, periodically receives a journal of the
	// run during the deterministic phase: every CheckpointEvery merged
	// faults, once more when the run is canceled, and once on
	// completion. The callback runs on the merger goroutine; an error
	// it returns aborts the run with a checkpoint-stage error.
	Checkpoint func(*Checkpoint) error
	// CheckpointEvery is the number of merged deterministic-phase
	// faults between Checkpoint calls (default 256).
	CheckpointEvery int
	// Resume, when non-nil, continues an interrupted run from its
	// journal instead of starting over. The checkpoint must have been
	// taken with the same netlist, fault list, and result-shaping
	// options — Workers and TimeBudget are free to differ — and the
	// final result is bit-identical to the uninterrupted run's.
	Resume *Checkpoint
	// Guide selects the backtrace cost model (default: the engine's
	// original ad-hoc costs; GuideSCOAP: internal/testability metrics).
	// The guide shapes search order, not outcomes, but it is part of
	// the checkpoint fingerprint because it changes which sequences
	// are generated.
	Guide Guide
}

func (o Options) withDefaults(nl *netlist.Netlist) Options {
	// SequentialDepth rebuilds the flop adjacency on every call, so it
	// is computed at most once for both depth-derived defaults.
	depth := 0
	if o.MaxFrames <= 0 || o.RandomSeqLen <= 0 {
		depth = nl.SequentialDepth()
	}
	if o.MaxFrames <= 0 {
		o.MaxFrames = clamp(depth+2, 1, 24)
	}
	if o.BacktrackLimit <= 0 {
		o.BacktrackLimit = 512
	}
	if o.RandomSequences == 0 {
		o.RandomSequences = 64
	}
	if o.RandomSeqLen <= 0 {
		o.RandomSeqLen = clamp(depth*2+4, 4, 48)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 256
	}
	return o
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// statics bundles the per-netlist read-only data shared by every PODEM
// search: the compiled CSR view (order, levels, fanouts, PO membership)
// and SCOAP-like testability measures. Computed once per Engine; worker
// goroutines share it without synchronization because nothing mutates
// it after construction.
type statics struct {
	c        *netlist.Compiled
	cc0, cc1 []int
	obs      []int
}

// Engine runs test generation for a netlist.
type Engine struct {
	nl      *netlist.Netlist
	opts    Options
	workers int
	st      *statics
	// scoap holds the SCOAP metrics when Options.Guide == GuideSCOAP
	// (nil otherwise); its sweep counters are published as scoap.*
	// telemetry by RunContext.
	scoap *testability.Metrics

	// allX is the good machine's all-X trace over MaxFrames frames,
	// shared read-only by every search (see allXTrace); built on first
	// use by searcher.
	allXOnce sync.Once
	allX     []sim.Logic
}

// New builds an engine; static testability measures are computed once,
// from the cost model Options.Guide selects.
func New(nl *netlist.Netlist, opts Options) *Engine {
	e := &Engine{
		nl:      nl,
		opts:    opts.withDefaults(nl),
		workers: fault.ResolveWorkers(opts.Workers),
	}
	var cc0, cc1, obs []int
	if e.opts.Guide == GuideSCOAP {
		cc0, cc1, obs, e.scoap = scoapStatics(nl)
	} else {
		cc0, cc1 = controllability(nl)
		obs = observationDistance(nl)
	}
	e.st = &statics{c: nl.Compile(), cc0: cc0, cc1: cc1, obs: obs}
	return e
}

// searcher returns fresh PODEM search buffers for one worker; the
// worker reuses them for every fault it searches.
func (e *Engine) searcher() *podem {
	e.allXOnce.Do(func() { e.allX = allXTrace(e.nl, e.st, e.opts.MaxFrames) })
	return newPodem(e.nl, e.st, e.allX, e.opts.MaxFrames)
}

// RunResult is the outcome of a full ATPG run.
type RunResult struct {
	Result *fault.Result
	// Tests holds the generated sequences (random-phase sequences that
	// detected something plus all deterministic tests).
	Tests []fault.Sequence

	TotalFaults    int
	DetectedRandom int
	DetectedDet    int
	UntestableNum  int
	AbortedNum     int
	NotAttempted   int
	// QuarantinedNum counts faults whose deterministic search panicked:
	// the panic-isolation boundary converts the crash into a structured
	// error (see Errors), classifies the fault as neither detected nor
	// untestable, and the run continues.
	QuarantinedNum int

	// Errors holds the structured quarantine errors recorded during the
	// run — PODEM panics and fault-simulation batch panics — in
	// deterministic (merge/batch) order. They describe recovered,
	// per-item failures; the run as a whole still succeeded.
	Errors []error

	RandomTime time.Duration
	DetTime    time.Duration

	// Stats are the run's deterministic work counters (see RunStats):
	// bit-identical for any worker count and across checkpoint/resume.
	Stats RunStats

	// journaledTests tracks how many of Tests have already been
	// counted into Stats.JournaledTests by checkpoint flushes.
	journaledTests uint64

	// outcome is each fault's deterministic-phase class (outcome*
	// constants). The class counts above are derived from it by tally,
	// so a fault a later test detects counts as detected only.
	outcome []uint8
}

// Deterministic-phase outcome of one merged fault. A fault that is
// detected — by the random phase, its own test or a later test's
// fault simulation — counts as detected whatever its outcome.
const (
	outcomeNone         uint8 = iota // not merged, or dropped as detected
	outcomeUntestable                // search space exhausted
	outcomeAborted                   // backtrack or time limit, or unconfirmed test
	outcomeNotAttempted              // reached after the time budget
	outcomeQuarantined               // search panicked
)

// tally derives the undetected class counts from the per-fault
// outcomes and the detected set, so every fault lands in one class.
func (r *RunResult) tally() {
	r.UntestableNum, r.AbortedNum, r.NotAttempted, r.QuarantinedNum = 0, 0, 0, 0
	for fi, o := range r.outcome {
		if r.Result.Detected[fi] {
			continue
		}
		switch o {
		case outcomeUntestable:
			r.UntestableNum++
		case outcomeAborted:
			r.AbortedNum++
		case outcomeNotAttempted:
			r.NotAttempted++
		case outcomeQuarantined:
			r.QuarantinedNum++
		}
	}
}

// Coverage is the fault coverage percentage.
func (r *RunResult) Coverage() float64 { return r.Result.Coverage() }

// Efficiency is the ATPG efficiency percentage: (detected + proven
// untestable) / total.
func (r *RunResult) Efficiency() float64 {
	if r.TotalFaults == 0 {
		return 0
	}
	return 100 * float64(r.Result.NumDetected()+r.UntestableNum) / float64(r.TotalFaults)
}

// TotalTime is random-phase plus deterministic-phase time.
func (r *RunResult) TotalTime() time.Duration { return r.RandomTime + r.DetTime }

// mix64 is a splitmix64-style mixer: it derives an independent,
// well-distributed RNG seed from (base seed, stream index). Giving
// every random sequence and every random fill its own seeded stream —
// instead of sharing one RNG whose consumption order would depend on
// scheduling — is what makes the random phase and the deterministic
// fill reproducible for any worker count.
func mix64(seed, stream int64) int64 {
	z := uint64(seed) + uint64(stream)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Stream tags keep the per-sequence and per-fault RNG families
// disjoint even though both derive from Options.Seed.
const (
	streamRandomSeq = int64(0x52414e44) // random-phase sequence i
	streamFill      = int64(0x46494c4c) // random fill for fault i
)

// Run executes the two-phase flow over the given target faults. It is
// RunContext without cancellation, checkpointing, or resume — in that
// configuration the flow cannot fail, so no error is returned.
func (e *Engine) Run(faults []fault.Fault) *RunResult {
	out, _ := e.RunContext(context.Background(), faults)
	return out
}

// RunContext executes the two-phase flow over the given target faults.
//
// Both phases fan out over Options.Workers goroutines; the merged
// result is bit-identical to a single-worker run (same detected set,
// same tests in the same order) except under TimeBudget pressure. The
// random phase computes each fault's first detecting sequence — an
// intrinsic property independent of fault dropping — and replays the
// canonical drop order afterwards. The deterministic phase runs PODEM
// speculatively in fault-list chunks and merges chunk results in list
// order, replaying exactly the serial drop/fill/simulate semantics;
// see DESIGN.md, "Concurrency architecture".
//
// Cancellation: when ctx is canceled (SIGINT, -timeout), workers drain
// promptly, a final checkpoint is flushed if Options.Checkpoint is set,
// and RunContext returns the partial result together with a canceled-
// or timeout-stage error. A run resumed from that checkpoint (for any
// worker count) finishes with a result bit-identical to an
// uninterrupted run — see Checkpoint. The softer Options.TimeBudget
// keeps its old semantics: the run completes normally with unreached
// faults counted in NotAttempted, and no error.
func (e *Engine) RunContext(ctx context.Context, faults []fault.Fault) (*RunResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res := fault.NewResult(faults)
	out := &RunResult{Result: res, TotalFaults: len(faults), outcome: make([]uint8, len(faults))}
	pool := fault.NewPool(e.nl, e.workers)
	tel := telemetry.FromContext(ctx)
	defer func() { out.publishTelemetry(tel) }()
	if e.scoap != nil {
		// SCOAP sweep work is per-Engine, not per-run: counted once here
		// so guided runs expose their static-analysis cost alongside the
		// search counters.
		tel.AddCounter("scoap.forward_sweeps", uint64(e.scoap.ForwardSweeps))
		tel.AddCounter("scoap.backward_sweeps", uint64(e.scoap.BackwardSweeps))
		tel.AddCounter("scoap.gate_visits", e.scoap.GateVisits)
	}

	deadline := time.Time{}
	if e.opts.TimeBudget > 0 {
		deadline = time.Now().Add(e.opts.TimeBudget)
	}

	var postRandom []bool
	startMerged := 0
	if ck := e.opts.Resume; ck != nil {
		if err := ck.validate(e.fingerprint(faults), len(faults)); err != nil {
			return out, err
		}
		copy(res.Detected, ck.Detected)
		postRandom = append([]bool(nil), ck.PostRandom...)
		startMerged = ck.Merged
		out.Tests = append(out.Tests, ck.Tests...)
		out.DetectedRandom = ck.DetectedRandom
		out.DetectedDet = ck.DetectedDet
		copy(out.outcome, ck.Outcome)
		out.Stats = ck.Stats
		out.journaledTests = uint64(len(ck.Tests))
		for _, ce := range ck.Errors {
			fe := factorerr.New(factorerr.StageATPG, factorerr.CodePanic, "%s", ce.Message)
			fe.Fault = ce.Fault
			out.Errors = append(out.Errors, fe)
		}
	} else {
		// Phase 1: random sequences with fault dropping. Never
		// journaled — the phase is seeded and cheap, so an interrupted
		// run re-executes it identically on resume.
		start := time.Now()
		if !e.opts.DisableRandomPhase {
			sp := tel.StartSpan("atpg.random")
			err := e.randomPhase(ctx, out, deadline)
			sp.End()
			if err != nil {
				out.RandomTime = time.Since(start)
				return out, err
			}
		}
		out.RandomTime = time.Since(start)
		postRandom = append([]bool(nil), res.Detected...)
	}

	// Phase 2: deterministic PODEM with time-frame expansion and fault
	// dropping.
	start := time.Now()
	sp := tel.StartSpan("atpg.deterministic")
	err := e.deterministicPhase(ctx, out, pool, deadline, postRandom, startMerged)
	out.tally()
	sp.End()
	out.DetTime = time.Since(start)
	return out, err
}

// cancelErr classifies a context interruption as canceled or timed out.
func cancelErr(ctxErr error) error {
	return factorerr.FromContext(factorerr.StageATPG, ctxErr)
}

// randomPhase generates the whole random-sequence budget up front (each
// sequence from its own seeded RNG), computes per-fault first-detection
// indices in parallel (fault.FirstDetections rides the event-driven
// cone-restricted engine, sharing one good trace per sequence across
// all batches — see DESIGN.md §10), and then merges in sequence order:
// sequence i is kept iff it is the first detector of at least one
// fault. That merge
// is exactly what serial dropped simulation produces — a dropped pass
// detects fault f with sequence i iff i is f's first detector — so the
// outcome is independent of worker count.
// A fault-simulation batch that panics during the pass is quarantined
// by the pool (its faults report no random detection and stay eligible
// for the deterministic phase); the structured errors are recorded on
// the result. A canceled context abandons the pass wholesale — merging
// a partial first-detection pass would match no serial run.
func (e *Engine) randomPhase(ctx context.Context, out *RunResult, deadline time.Time) error {
	res := out.Result
	seqs := make([]fault.Sequence, e.opts.RandomSequences)
	for i := range seqs {
		rng := rand.New(rand.NewSource(mix64(e.opts.Seed, streamRandomSeq+int64(i)<<8)))
		seqs[i] = e.randomSequence(rng)
	}
	first, simStats, errs := fault.FirstDetections(ctx, e.nl, res.Faults, seqs, e.workers, deadline)
	out.Errors = append(out.Errors, errs...)
	if err := ctx.Err(); err != nil {
		return cancelErr(err)
	}
	out.Stats.RandomSequences += uint64(len(seqs))
	out.Stats.Sim.Accumulate(simStats)

	detBySeq := make([]int, len(seqs))
	for fi, si := range first {
		if si >= 0 {
			res.Detected[fi] = true
			detBySeq[si]++
		}
	}
	for si, n := range detBySeq {
		if n > 0 {
			out.Tests = append(out.Tests, seqs[si])
			out.DetectedRandom += n
		}
	}
	return nil
}

// Chunk-result classification for the deterministic phase.
const (
	specAttempted = iota // testFault ran; status/seq are valid
	specSkipped          // worker observed the fault already detected
	specDeadline         // worker reached the fault after the deadline
	specCanceled         // worker observed a canceled context; merge stops here
	specPanic            // testFault panicked; the fault is quarantined
)

// specResult is one worker's speculative outcome for one fault.
type specResult struct {
	kind   int
	status Status
	seq    fault.Sequence
	stats  searchStats // search effort; counted only if the merger uses the result
	err    error       // specPanic only: the structured quarantine error
}

// testFaultPanicHook, when non-nil, runs before every deterministic
// search — the test-only injection point for exercising the PODEM
// worker panic-isolation boundary (see TestDeterministicQuarantine).
var testFaultPanicHook func(f fault.Fault)

// safeTestFault runs testFault behind the worker panic-isolation
// boundary: a panicking search yields a quarantine result carrying a
// structured error instead of killing the process. Sibling faults and
// the merge replay are unaffected, so the remaining run stays
// deterministic.
func (e *Engine) safeTestFault(p *podem, f fault.Fault, deadline time.Time) (r specResult) {
	defer func() {
		if rec := recover(); rec != nil {
			r = specResult{
				kind: specPanic,
				err:  factorerr.FromPanic(factorerr.StageATPG, rec).WithFault(f.String()),
			}
		}
	}()
	if testFaultPanicHook != nil {
		testFaultPanicHook(f)
	}
	// Failpoint atpg.search: keyed by the fault's identity, not an
	// occurrence counter, so which faults take an injected failure is
	// invariant under worker count and speculative re-search. An
	// injected error quarantines the fault exactly like a caught panic;
	// a panic action exercises the recover above.
	if err := failpoint.HitKey("atpg.search", f.Key()); err != nil {
		return specResult{
			kind: specPanic,
			err:  factorerr.Wrap(factorerr.StageATPG, factorerr.CodePanic, err).WithFault(f.String()),
		}
	}
	seq, status, stats := e.testFault(p, f, deadline)
	return specResult{kind: specAttempted, status: status, seq: seq, stats: stats}
}

// deterministicPhase runs PODEM over the undetected faults with a
// speculative ordered merge. Workers pull contiguous fault-list chunks
// from a shared counter and search each fault independently (checking
// the shared canonical detected-set at pickup purely as an
// optimization); the merger — this goroutine — consumes chunk results
// strictly in fault-list order and replays the serial semantics:
// canonically detected faults are dropped, detected tests are
// random-filled with a per-fault-index RNG and fault-simulated to
// update the canonical set. Because the canonical detected-set only
// ever grows, a worker that observed "detected" and skipped is always
// confirmed by the merger, and a worker that searched a fault the
// merger later drops just wasted speculative work — either way the
// merged output matches a single-worker run exactly.
// Resume: the pending list is derived from the post-random detected
// bitmap — never from the current canonical set — so it is identical
// across interruptions, and resuming just skips the first startMerged
// entries of the same list.
//
// Cancellation: workers observe the context at fault pickup and emit
// specCanceled markers; the merger stops at the first one (recording
// the merge position in a final checkpoint) and returns a structured
// canceled/timeout error. Chunk channels are buffered, so workers
// never block on the stopped merger and the drain cannot deadlock.
func (e *Engine) deterministicPhase(ctx context.Context, out *RunResult, pool *fault.Pool, deadline time.Time, postRandom []bool, startMerged int) error {
	res := out.Result
	var pending []int
	for i := range res.Faults {
		if !postRandom[i] {
			pending = append(pending, i)
		}
	}
	work := pending[startMerged:]
	if len(work) == 0 {
		return e.flushCheckpoint(out, postRandom, startMerged)
	}

	// ictx lets the merger abandon the run (checkpoint write failure)
	// without waiting for workers to grind through the remaining
	// chunks; it also propagates the caller's cancellation.
	ictx, icancel := context.WithCancel(ctx)
	defer icancel()

	// Chunk size depends only on (len(work), workers) — never on
	// timing — so the chunk boundaries, and therefore the merge replay,
	// are reproducible. Small chunks keep workers load-balanced; the
	// clamp bounds per-chunk result buffering.
	cs := clamp(len(work)/(e.workers*4), 1, 64)
	nchunks := (len(work) + cs - 1) / cs

	// mu guards the canonical detected-set (res.Detected) and the pool
	// simulators used by the merger. Workers take it only for the
	// skip-check snapshot at fault pickup.
	var mu sync.Mutex
	chans := make([]chan []specResult, nchunks)
	for i := range chans {
		chans[i] = make(chan []specResult, 1)
	}

	var next int64
	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var p *podem
			for {
				c := int(atomic.AddInt64(&next, 1)) - 1
				if c >= nchunks {
					return
				}
				lo := c * cs
				hi := min(lo+cs, len(work))
				results := make([]specResult, hi-lo)
				for k, fi := range work[lo:hi] {
					if ictx.Err() != nil {
						results[k] = specResult{kind: specCanceled}
						continue
					}
					if !deadline.IsZero() && time.Now().After(deadline) {
						results[k] = specResult{kind: specDeadline}
						continue
					}
					mu.Lock()
					dropped := res.Detected[fi]
					mu.Unlock()
					if dropped {
						results[k] = specResult{kind: specSkipped}
						continue
					}
					if p == nil {
						p = e.searcher()
					}
					results[k] = e.safeTestFault(p, res.Faults[fi], deadline)
				}
				chans[c] <- results
			}
		}()
	}

	tel := telemetry.FromContext(ctx)
	merged := startMerged
	var runErr error
mergeLoop:
	for c := 0; c < nchunks; c++ {
		results := <-chans[c]
		lo := c * cs
		for k, r := range results {
			if r.kind == specCanceled {
				runErr = cancelErr(ctx.Err())
				break mergeLoop
			}
			// Failpoint atpg.merge: keyed by fault index, so an injected
			// failure lands on the same merge position for any worker
			// count. An error here aborts the run like a checkpoint
			// flush failure — the final flush below still journals the
			// merge position reached.
			if err := failpoint.HitKey("atpg.merge", uint64(work[lo+k])); err != nil {
				runErr = factorerr.Wrap(factorerr.StageATPG, factorerr.CodeInternal, err)
				break mergeLoop
			}
			e.mergeOne(out, pool, work[lo+k], r, deadline, &mu)
			// Drain per merge so every checkpoint flush journals the sim
			// work of exactly the merges it covers (split-invariant).
			out.Stats.Sim.Accumulate(pool.DrainStats())
			merged++
			if tel.ProgressEnabled() { // skip the O(faults) coverage scan when quiet
				tel.Progressf("atpg: %d/%d deterministic faults merged, %d detected, coverage %.1f%%",
					merged, len(pending), res.NumDetected(), res.Coverage())
			}
			if e.opts.Checkpoint != nil && (merged-startMerged)%e.opts.CheckpointEvery == 0 {
				if err := e.flushCheckpoint(out, postRandom, merged); err != nil {
					runErr = err
					break mergeLoop
				}
			}
		}
	}
	icancel()
	wg.Wait()
	out.Errors = append(out.Errors, pool.DrainErrors()...)
	if err := e.flushCheckpoint(out, postRandom, merged); err != nil && runErr == nil {
		runErr = err
	}
	return runErr
}

// mergeOne replays the serial semantics for one fault on the merger
// goroutine: drop if canonically detected, random-fill a detecting
// sequence from the fault's own RNG stream, fault-simulate it into the
// canonical set, and account the outcome. specPanic results quarantine
// the fault: the structured error is recorded and the fault is
// classified neither detected nor untestable.
func (e *Engine) mergeOne(out *RunResult, pool *fault.Pool, fi int, r specResult, deadline time.Time, mu *sync.Mutex) {
	res := out.Result
	mu.Lock()
	dropped := res.Detected[fi]
	mu.Unlock()
	if dropped {
		return
	}
	switch r.kind {
	case specDeadline:
		out.outcome[fi] = outcomeNotAttempted
		return
	case specPanic:
		out.outcome[fi] = outcomeQuarantined
		out.Errors = append(out.Errors, r.err)
		return
	case specSkipped:
		// Unreachable when the monotonicity invariant holds (the
		// canonical set never shrinks), but dropping must stay an
		// optimization, never a correctness dependency: recompute.
		if r = e.safeTestFault(e.searcher(), res.Faults[fi], deadline); r.kind == specPanic {
			out.outcome[fi] = outcomeQuarantined
			out.Errors = append(out.Errors, r.err)
			return
		}
	}
	// Only searches the merger actually uses are counted: speculative
	// effort on faults dropped above never lands in the deterministic
	// plane, so the totals match a single-worker run.
	out.Stats.Searches++
	out.Stats.Decisions += r.stats.decisions
	out.Stats.Backtracks += r.stats.backtracks
	switch r.status {
	case Detected:
		rng := rand.New(rand.NewSource(mix64(e.opts.Seed, streamFill+int64(fi)<<8)))
		filled := e.fillRandom(r.seq, rng)
		mu.Lock()
		before := res.NumDetected()
		pool.RunSequence(res, filled)
		usedFallback := false
		if !res.Detected[fi] {
			// Random fill can mask the detection through X-optimism
			// differences; fall back to the unfilled sequence.
			pool.RunSequence(res, r.seq)
			usedFallback = true
		}
		detected := res.Detected[fi]
		newly := res.NumDetected() - before
		mu.Unlock()
		if !detected {
			// The PODEM model and the fault simulator agree on
			// 3-valued semantics, so this should not happen; count
			// it as aborted to stay conservative.
			out.outcome[fi] = outcomeAborted
			return
		}
		out.Tests = append(out.Tests, filled)
		if usedFallback {
			// The filled sequence carries collateral detections already
			// folded into the canonical set, but the target fault was
			// only detected by the unfilled sequence — the exported
			// suite must contain both or replaying it would not
			// re-detect the fault.
			out.Tests = append(out.Tests, r.seq)
		}
		out.DetectedDet += newly
	case Untestable:
		out.outcome[fi] = outcomeUntestable
	case Aborted:
		out.outcome[fi] = outcomeAborted
	}
}

// flushCheckpoint snapshots the run at a merge position and hands it to
// the Checkpoint callback. It runs only on the merger goroutine, which
// is the sole mutator of the result, so the snapshot needs no lock.
func (e *Engine) flushCheckpoint(out *RunResult, postRandom []bool, merged int) error {
	if e.opts.Checkpoint == nil {
		return nil
	}
	// Count the journal-record delta before snapshotting: the final
	// JournaledTests value equals the exported test count for any flush
	// cadence, which keeps the counter split-invariant even though the
	// number of flushes is not.
	if n := uint64(len(out.Tests)); n > out.journaledTests {
		out.Stats.JournaledTests += n - out.journaledTests
		out.journaledTests = n
	}
	out.tally()
	ck := &Checkpoint{
		Version:        CheckpointVersion,
		Fingerprint:    e.fingerprint(out.Result.Faults),
		PostRandom:     append([]bool(nil), postRandom...),
		Detected:       append([]bool(nil), out.Result.Detected...),
		Merged:         merged,
		Tests:          append([]fault.Sequence(nil), out.Tests...),
		DetectedRandom: out.DetectedRandom,
		DetectedDet:    out.DetectedDet,
		UntestableNum:  out.UntestableNum,
		AbortedNum:     out.AbortedNum,
		NotAttempted:   out.NotAttempted,
		QuarantinedNum: out.QuarantinedNum,
		Outcome:        append([]uint8(nil), out.outcome...),
		Stats:          out.Stats,
	}
	for _, err := range out.Errors {
		ce := CheckpointError{Message: err.Error()}
		var fe *factorerr.Error
		if errors.As(err, &fe) {
			ce.Fault = fe.Fault
		}
		ck.Errors = append(ck.Errors, ce)
	}
	if err := e.opts.Checkpoint(ck); err != nil {
		return factorerr.Wrap(factorerr.StageATPG, factorerr.CodeCheckpoint, err)
	}
	return nil
}

// testFault escalates time frames until the fault is detected, proven
// untestable at the maximum frame budget, or aborted. The search is
// fully deterministic: given the same (fault, options), it returns the
// same sequence regardless of which goroutine runs it. p holds the
// calling worker's search buffers (see searcher).
func (e *Engine) testFault(p *podem, f fault.Fault, deadline time.Time) (fault.Sequence, Status, searchStats) {
	var st searchStats
	last := Untestable
	for frames := 1; frames <= e.opts.MaxFrames; frames++ {
		p.reset(f, frames, e.opts.BacktrackLimit, deadline)
		seq, status := p.run()
		st.decisions += uint64(p.decisions)
		st.backtracks += uint64(p.backtracks)
		switch status {
		case Detected:
			return seq, Detected, st
		case Aborted:
			return nil, Aborted, st
		}
		last = status
	}
	return nil, last, st
}

// randomSequence builds a fully specified random input sequence.
func (e *Engine) randomSequence(rng *rand.Rand) fault.Sequence {
	seq := make(fault.Sequence, e.opts.RandomSeqLen)
	for t := range seq {
		vec := fault.Vector{}
		for _, name := range e.nl.PINames {
			vec[name] = sim.Logic(rng.Intn(2))
		}
		seq[t] = vec
	}
	return seq
}

// fillRandom completes the unassigned PIs of a deterministic test with
// random binary values (more collateral fault drops per test).
func (e *Engine) fillRandom(seq fault.Sequence, rng *rand.Rand) fault.Sequence {
	out := make(fault.Sequence, len(seq))
	for t, vec := range seq {
		nv := fault.Vector{}
		for _, name := range e.nl.PINames {
			if v, ok := vec[name]; ok {
				nv[name] = v
			} else {
				nv[name] = sim.Logic(rng.Intn(2))
			}
		}
		out[t] = nv
	}
	return out
}
