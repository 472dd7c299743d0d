package fault

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"factor/internal/factorerr"
	"factor/internal/failpoint"
	"factor/internal/netlist"
)

// ResolveWorkers maps a user-facing worker count to an effective one:
// values <= 0 select runtime.NumCPU(), anything else is used as given.
// This is the single place the "-j 0 means all cores" convention is
// implemented, shared by every CLI and by the ATPG engine.
func ResolveWorkers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// Clone returns a fresh simulator over the same netlist. The netlist
// and its compiled view are shared read-only; the value/state arrays
// and injection tables are private, so each clone can run on its own
// goroutine without synchronization. The clone starts empty (no faults
// loaded, state unset) — callers always load and reset before a pass,
// so current values are deliberately not copied.
func (p *ParallelSim) Clone() *ParallelSim {
	return NewParallel(p.nl)
}

// batchPanicHook, when non-nil, is invoked with every simulation batch
// before it runs — the test-only injection point for exercising the
// worker panic-isolation boundaries (see TestPoolQuarantinesPanic).
var batchPanicHook func(batch []Fault)

// quarantineError converts a recovered batch panic into a structured
// error identifying the quarantined faults by their representative.
func quarantineError(r interface{}, batch []Fault) error {
	e := factorerr.FromPanic(factorerr.StageFaultSim, r)
	if len(batch) > 0 {
		e = e.WithFault(batch[0].String())
		e.Msg = fmt.Sprintf("%s (quarantined batch of %d faults)", e.Msg, len(batch))
	}
	return e
}

// Pool is a worker pool of event-driven fault simulators over one
// netlist. A sequence run against N pending faults assembles
// ceil(N/63) single-pass batches by cone locality (see coneOrder); the
// pool computes the good-machine trace once on the calling goroutine
// and fans the batches out over its workers.
//
// Determinism: each batch's detected-lane mask depends only on (batch,
// sequence) — workers share nothing but the read-only netlist and
// trace, each batch writes a distinct slot of the result slice, and
// the merge into Result happens on the calling goroutine in batch
// order. Batch assembly is a deterministic function of the pending
// list, so the outcome is bit-identical to ParallelSim.RunSequence for
// any worker count.
//
// Panic isolation: a panic inside one batch quarantines that batch (its
// faults are reported undetected for the pass) and is recorded as a
// structured error retrievable via DrainErrors; sibling batches and the
// process survive. Because batch boundaries depend only on the pending
// list, quarantine behavior is also identical for every worker count.
type Pool struct {
	nl   *netlist.Netlist
	sims []*EventSim
	tr   goodTrace // good-machine trace scratch, reused across calls

	// stats holds pool-level work counters (shared good-trace cycles);
	// per-worker engine counters stay on the sims until DrainStats.
	stats SimStats

	mu   sync.Mutex
	errs []error
}

// NewPool builds a pool with the given worker count (<= 0 selects
// runtime.NumCPU()). Each worker owns a private simulator.
func NewPool(nl *netlist.Netlist, workers int) *Pool {
	w := ResolveWorkers(workers)
	sims := make([]*EventSim, w)
	sims[0] = NewEvent(nl)
	for i := 1; i < w; i++ {
		sims[i] = sims[0].Clone()
	}
	return &Pool{nl: nl, sims: sims}
}

// Workers reports the pool size.
func (p *Pool) Workers() int { return len(p.sims) }

// DrainStats returns the work counters accumulated by the pool and its
// simulators since the last drain, and resets them. Totals are
// bit-identical for any pool size: every counted unit of work is a
// deterministic function of the pending list and sequence, independent
// of which worker performed it. Call between runs, from the same
// goroutine that calls RunSequence (whose wg.Wait orders the workers'
// counter writes before this read).
func (p *Pool) DrainStats() SimStats {
	s := p.stats
	p.stats = SimStats{}
	for _, es := range p.sims {
		s.Accumulate(es.DrainStats())
	}
	return s
}

// DrainErrors returns the structured errors recorded by quarantined
// batches since the last drain, in batch order, and clears them.
func (p *Pool) DrainErrors() []error {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.errs
	p.errs = nil
	return out
}

// safeRunBatch is runBatch behind the pool's panic-isolation boundary:
// a panicking batch yields zero detections and a structured error.
func safeRunBatch(es *EventSim, batch []Fault, tr *goodTrace) (lanes uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			lanes = 0
			err = quarantineError(r, batch)
		}
	}()
	if batchPanicHook != nil {
		batchPanicHook(batch)
	}
	// Failpoint fault.pool.batch: keyed by the batch's lead fault —
	// batch composition is deterministic (coneOrder over the pending
	// list), so which batches fail is invariant under worker count. An
	// injected error quarantines the batch exactly like a caught panic.
	if ferr := failpoint.HitKey("fault.pool.batch", batchKey(batch)); ferr != nil {
		return 0, quarantineError(ferr, batch)
	}
	return es.runBatch(batch, tr), nil
}

// batchKey is the deterministic failpoint draw key for a simulation
// batch: the lead fault's identity.
func batchKey(batch []Fault) uint64 {
	if len(batch) == 0 {
		return 0
	}
	return batch[0].Key()
}

// RunSequence simulates seq against the pending faults of res across
// the pool and marks newly detected faults, returning how many were
// newly detected. Results are identical to ParallelSim.RunSequence for
// any worker count.
func (p *Pool) RunSequence(res *Result, seq Sequence) int {
	pending := coneOrder(p.sims[0].c, res.Faults, res.Remaining())
	nbatches := (len(pending) + 62) / 63
	if nbatches == 0 {
		return 0
	}
	p.tr.compute(p.nl, p.sims[0].c, []Sequence{seq})
	p.stats.TraceCycles += uint64(len(seq))

	detected := make([]uint64, nbatches)
	batchErrs := make([]error, nbatches)
	runOne := func(es *EventSim, b int) {
		start := b * 63
		end := min(start+63, len(pending))
		batch := make([]Fault, end-start)
		for i, fi := range pending[start:end] {
			batch[i] = res.Faults[fi]
		}
		detected[b], batchErrs[b] = safeRunBatch(es, batch, &p.tr)
	}

	if len(p.sims) == 1 || nbatches == 1 {
		for b := 0; b < nbatches; b++ {
			runOne(p.sims[0], b)
		}
	} else {
		var next int64
		var wg sync.WaitGroup
		nw := min(len(p.sims), nbatches)
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func(es *EventSim) {
				defer wg.Done()
				for {
					b := int(atomic.AddInt64(&next, 1)) - 1
					if b >= nbatches {
						return
					}
					runOne(es, b)
				}
			}(p.sims[w])
		}
		wg.Wait()
	}

	newly := 0
	for b := 0; b < nbatches; b++ {
		start := b * 63
		end := min(start+63, len(pending))
		for i, fi := range pending[start:end] {
			if detected[b]&(1<<uint(i+1)) != 0 && !res.Detected[fi] {
				res.Detected[fi] = true
				newly++
			}
		}
	}
	if err := factorerr.Collect(batchErrs); err != nil {
		p.mu.Lock()
		p.errs = append(p.errs, factorerr.Flatten(err)...)
		p.mu.Unlock()
	}
	return newly
}

// FirstDetections computes, for every fault, the index of the first
// sequence in seqs that detects it (-1 if none does). First detection
// is an intrinsic property of (fault, sequence list): it does not
// depend on fault dropping or on how faults are batched, so the result
// is identical for any worker count. It is exactly the information the
// random ATPG phase needs — a serial dropped-simulation pass over seqs
// detects fault f with sequence i iff FirstDetections reports i for f.
//
// The pass runs on the event-driven engine: the good-machine trace of
// each group of 64 consecutive sequences is computed once, packed one
// sequence per lane (lazily, by whichever worker reaches the group
// first), and shared read-only across all batches. Batches are
// contiguous slices of the fault list, which Universe emits in gate
// order — already cone-local. Within a batch, a fault's lane stops
// being simulated once a sequence detects it.
//
// A non-zero deadline and the context are checked between sequences
// inside each batch; sequences not reached in time are treated as
// non-detecting (this and cancellation are the code paths where results
// may legitimately differ run to run, matching the serial engine's
// behavior under a time budget — a canceled pass is abandoned by the
// caller, never merged).
//
// A panic inside one batch quarantines the whole batch: its faults
// report -1 (no random detection — they remain eligible for the
// deterministic phase) and a structured error is returned. Errors are
// returned in batch order, so the aggregate is deterministic.
//
// The returned SimStats aggregate the pass's committed work. On a run
// that completes (no deadline/cancellation cut) they are bit-identical
// for any worker count: batch contents and the set of traces computed
// are functions of (faults, seqs) alone.
func FirstDetections(ctx context.Context, nl *netlist.Netlist, faults []Fault, seqs []Sequence, workers int, deadline time.Time) ([]int, SimStats, []error) {
	first := make([]int, len(faults))
	for i := range first {
		first[i] = -1
	}
	nbatches := (len(faults) + 62) / 63
	if nbatches == 0 || len(seqs) == 0 {
		return first, SimStats{}, nil
	}
	c := nl.Compile()
	w := min(ResolveWorkers(workers), nbatches)
	batchErrs := make([]error, nbatches)

	// Lazily shared good traces: one per group of 64 sequences,
	// computed by the first worker that needs it, never recomputed per
	// batch. TraceCycles counts the sequences some batch reached, once
	// each, so it does not depend on how sequences are grouped.
	var traceCycles atomic.Uint64
	ngroups := (len(seqs) + groupLanes - 1) / groupLanes
	traces := make([]*goodTrace, ngroups)
	groupOnce := make([]sync.Once, ngroups)
	seqOnce := make([]sync.Once, len(seqs))
	getTrace := func(si int) *goodTrace {
		g := si / groupLanes
		groupOnce[g].Do(func() {
			traces[g] = newGoodTrace(nl, c, seqs[g*groupLanes:min((g+1)*groupLanes, len(seqs))])
		})
		seqOnce[si].Do(func() { traceCycles.Add(uint64(len(seqs[si]))) })
		return traces[g]
	}

	workerStats := make([]SimStats, w)
	var next int64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			es := NewEvent(nl)
			defer func() { workerStats[wi] = es.DrainStats() }()
			for {
				b := int(atomic.AddInt64(&next, 1)) - 1
				if b >= nbatches {
					return
				}
				if ctx != nil && ctx.Err() != nil {
					return
				}
				start := b * 63
				end := min(start+63, len(faults))
				batchErrs[b] = safeFirstDetections(ctx, es, faults[start:end], seqs, getTrace, deadline, first[start:end])
			}
		}(i)
	}
	wg.Wait()

	var stats SimStats
	for _, ws := range workerStats {
		stats.Accumulate(ws)
	}
	stats.TraceCycles += traceCycles.Load()

	var errs []error
	for _, err := range batchErrs {
		if err != nil {
			errs = append(errs, err)
		}
	}
	return first, stats, errs
}

// safeFirstDetections wraps one batch in the panic-isolation boundary:
// on panic the batch's outputs are reset to -1 (deterministic
// quarantine regardless of how far the batch got).
func safeFirstDetections(ctx context.Context, es *EventSim, batch []Fault, seqs []Sequence, getTrace func(int) *goodTrace, deadline time.Time, out []int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			for i := range out {
				out[i] = -1
			}
			err = quarantineError(r, batch)
		}
	}()
	if batchPanicHook != nil {
		batchPanicHook(batch)
	}
	// Failpoint fault.firstdet.batch: same keying discipline as
	// fault.pool.batch — quarantine is a pure function of the batch.
	if ferr := failpoint.HitKey("fault.firstdet.batch", batchKey(batch)); ferr != nil {
		for i := range out {
			out[i] = -1
		}
		return quarantineError(ferr, batch)
	}
	es.firstDetections(ctx, batch, seqs, getTrace, deadline, out)
	return nil
}

// firstDetections runs all sequences against one batch of faults and
// records, per fault, the first detecting sequence index into out
// (pre-initialized to -1 by the caller). getTrace(si) returns the group
// trace holding sequence si in lane si%64. A lane is unloaded as soon
// as a sequence detects its fault, so later sequences simulate only the
// still-undetected faults; every lane keeps its position, and lanes are
// independent, so no first-detection index changes. Stops early once
// every lane is detected, the deadline passes, or the context is
// canceled.
func (e *EventSim) firstDetections(ctx context.Context, batch []Fault, seqs []Sequence, getTrace func(int) *goodTrace, deadline time.Time, out []int) {
	e.load(batch)
	e.stats.Batches++
	var remaining uint64
	for i := range batch {
		remaining |= 1 << uint(i+1)
	}
	for si := range seqs {
		if remaining == 0 {
			return
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return
		}
		if ctx != nil && ctx.Err() != nil {
			return
		}
		det := e.runLoaded(getTrace(si), si%groupLanes, len(seqs[si]))
		newly := det & remaining
		if newly == 0 {
			continue
		}
		for i := range batch {
			if newly&(1<<uint(i+1)) != 0 {
				out[i] = si
			}
		}
		remaining &^= newly
		// Stop simulating the detected lanes: later sequences cannot
		// change their first detection.
		e.loadLanes(batch, remaining)
	}
}

// firstDetections is the reference-engine counterpart used by the
// differential tests: same contract as EventSim.firstDetections, full
// re-evaluation per cycle.
func (p *ParallelSim) firstDetections(ctx context.Context, batch []Fault, seqs []Sequence, deadline time.Time, out []int) {
	p.load(batch)
	var remaining uint64
	for i := range batch {
		remaining |= 1 << uint(i+1)
	}
	for si, seq := range seqs {
		if remaining == 0 {
			return
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return
		}
		if ctx != nil && ctx.Err() != nil {
			return
		}
		p.resetAllX()
		det := uint64(0)
		for _, vec := range seq {
			p.applyVector(vec)
			p.eval()
			det |= p.detectLanes()
			p.stepFromCurrent()
		}
		newly := det & remaining
		for i := range batch {
			if newly&(1<<uint(i+1)) != 0 {
				out[i] = si
			}
		}
		remaining &^= newly
	}
}
