package fault

import (
	"math/rand"
	"testing"
)

// allocFixture builds a moderately sized sequential circuit, a fault
// batch, and a sequence with its precomputed good trace, for the
// steady-state allocation regressions below.
func allocFixture(t *testing.T) (es *EventSim, ps *ParallelSim, batch []Fault, seq Sequence, tr *goodTrace) {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	nl := randomCircuit(rng, 5, 200, true)
	faults := Universe(nl)
	if len(faults) > 63 {
		faults = faults[:63]
	}
	seq = randSeqFor(nl, rng, 10)
	es = NewEvent(nl)
	ps = NewParallel(nl)
	tr = newGoodTrace(nl, nl.Compile(), []Sequence{seq})
	return es, ps, faults, seq, tr
}

// TestEventSimZeroAllocSteadyState asserts that, once warmed up, the
// event-driven engine's hot loop — load, per-cycle sweep, clocking,
// detection — performs zero heap allocations per batch (and therefore
// per simulated cycle).
func TestEventSimZeroAllocSteadyState(t *testing.T) {
	es, _, batch, _, tr := allocFixture(t)
	// Warm up: grow the worklist buckets and injection lists to their
	// steady-state capacity.
	for i := 0; i < 3; i++ {
		es.runBatch(batch, tr)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		es.runBatch(batch, tr)
	}); allocs != 0 {
		t.Fatalf("EventSim.runBatch allocates %.1f objects per run in steady state, want 0", allocs)
	}
}

// TestParallelSimZeroAllocSteadyState asserts the reference engine's
// batch loop also runs allocation-free: load reuses the dense injection
// tables' backing arrays instead of building fresh maps per batch.
func TestParallelSimZeroAllocSteadyState(t *testing.T) {
	_, ps, batch, seq, _ := allocFixture(t)
	for i := 0; i < 3; i++ {
		ps.runBatch(batch, seq)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		ps.runBatch(batch, seq)
	}); allocs != 0 {
		t.Fatalf("ParallelSim.runBatch allocates %.1f objects per run in steady state, want 0", allocs)
	}
}

// TestGoodTraceComputeReusesStorage asserts the trace storage is
// reused across compute calls: a full 64-sequence group of unequal
// lengths, recomputed on warm storage, allocates nothing.
func TestGoodTraceComputeReusesStorage(t *testing.T) {
	es, _, _, _, _ := allocFixture(t)
	rng := rand.New(rand.NewSource(67))
	group := make([]Sequence, groupLanes)
	for i := range group {
		group[i] = randSeqWithX(es.nl, rng, 1+i%12)
	}
	var tr goodTrace
	tr.compute(es.nl, es.c, group)
	if allocs := testing.AllocsPerRun(20, func() {
		tr.compute(es.nl, es.c, group)
	}); allocs != 0 {
		t.Fatalf("goodTrace.compute allocates %.1f objects per run with warm storage, want 0", allocs)
	}
}
