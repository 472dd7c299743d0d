package fault

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"factor/internal/netlist"
	"factor/internal/sim"
)

// referenceFirstDetections runs the full-evaluation reference engine
// over the same 63-fault batches FirstDetections uses and returns the
// first-detection indices plus the TraceCycles a pass that reaches the
// same sequences must report: the summed length of the sequences up to
// the furthest one any batch ran (a batch stops once all its faults are
// detected).
func referenceFirstDetections(nl *netlist.Netlist, faults []Fault, seqs []Sequence) ([]int, uint64) {
	want := make([]int, len(faults))
	for i := range want {
		want[i] = -1
	}
	ps := NewParallel(nl)
	reached := 0
	for start := 0; start < len(faults); start += 63 {
		end := min(start+63, len(faults))
		out := want[start:end]
		ps.firstDetections(context.Background(), faults[start:end], seqs, time.Time{}, out)
		last := -1
		for _, si := range out {
			last = max(last, si)
		}
		if slices.Contains(out, -1) {
			last = len(seqs) - 1
		}
		reached = max(reached, last+1)
	}
	var cycles uint64
	for _, seq := range seqs[:reached] {
		cycles += uint64(len(seq))
	}
	return want, cycles
}

// groupSeqs builds n X-heavy sequences of unequal lengths in 1..maxLen.
func groupSeqs(nl *netlist.Netlist, rng *rand.Rand, n, maxLen int) []Sequence {
	seqs := make([]Sequence, n)
	for i := range seqs {
		seqs[i] = randSeqWithX(nl, rng, 1+rng.Intn(maxLen))
	}
	return seqs
}

// TestFirstDetectionsGroupBoundaries checks FirstDetections around the
// 64-sequence trace-group boundaries — one partial group, a full group,
// one past it, and three groups — against the reference engine, and
// checks that 1, 2 and 4 workers give identical first indices and
// identical work counters.
func TestFirstDetectionsGroupBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	nl := randomCircuit(rng, 5, 140, true)
	faults := Universe(nl)
	if len(faults) <= 63 {
		t.Fatalf("fixture has %d faults, want more than one batch", len(faults))
	}
	for _, n := range []int{1, 63, 64, 65, 130} {
		seqs := groupSeqs(nl, rng, n, 6)
		want, wantTrace := referenceFirstDetections(nl, faults, seqs)
		var ref SimStats
		for _, w := range []int{1, 2, 4} {
			got, stats, errs := FirstDetections(context.Background(), nl, faults, seqs, w, time.Time{})
			if len(errs) != 0 {
				t.Fatalf("n=%d workers=%d: unexpected errors %v", n, w, errs)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d workers=%d: first detections diverge from the reference\ngot  %v\nwant %v", n, w, got, want)
			}
			if stats.TraceCycles != wantTrace {
				t.Fatalf("n=%d workers=%d: TraceCycles %d, want %d (summed length of the reached sequences)", n, w, stats.TraceCycles, wantTrace)
			}
			if w == 1 {
				ref = stats
			} else if stats != ref {
				t.Fatalf("n=%d workers=%d: stats %+v diverge from workers=1 %+v", n, w, stats, ref)
			}
		}
		if ref.Batches != uint64((len(faults)+62)/63) || ref.Events == 0 {
			t.Fatalf("n=%d: work counters not populated: %+v", n, ref)
		}
	}
}

// TestEventSimTraceLaneInvariance checks that the event engine's
// result depends only on the good values of the lane it reads: a
// batch run against lane s of a group trace, against a one-sequence
// trace of sequence s, and against a trace whose every word is the
// splat of lane s (read at an arbitrary lane) yields the same
// detected-lane mask and the same work counters.
func TestEventSimTraceLaneInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	nl := randomCircuit(rng, 5, 100, true)
	c := nl.Compile()
	batch := Universe(nl)
	if len(batch) > 63 {
		batch = batch[:63]
	}
	seqs := groupSeqs(nl, rng, 40, 7)
	group := newGoodTrace(nl, c, seqs)
	es := NewEvent(nl)
	run := func(tr *goodTrace, lane, cycles int) (uint64, SimStats) {
		es.load(batch)
		det := es.runLoaded(tr, lane, cycles)
		return det, es.DrainStats()
	}
	for s, seq := range seqs {
		want, wantStats := run(group, s, len(seq))
		single := newGoodTrace(nl, c, []Sequence{seq})
		if got, stats := run(single, 0, len(seq)); got != want || stats != wantStats {
			t.Fatalf("seq %d: one-sequence trace gives %064b %+v, group lane gives %064b %+v", s, got, stats, want, wantStats)
		}
		splat := &goodTrace{gates: group.gates, cycles: len(seq), vals: make([]sim.Word, len(seq)*group.gates)}
		for i := range splat.vals {
			splat.vals[i] = laneOf(group.vals[i], uint(s))
		}
		if got, stats := run(splat, (s*7+3)%groupLanes, len(seq)); got != want || stats != wantStats {
			t.Fatalf("seq %d: splatted trace gives %064b %+v, group lane gives %064b %+v", s, got, stats, want, wantStats)
		}
	}
}

// TestLoadLanesZeroAlloc asserts that reloading a batch for its
// still-undetected lanes, as the first-detection pass does after every
// detecting sequence, allocates nothing once the tables are warm.
func TestLoadLanesZeroAlloc(t *testing.T) {
	es, _, batch, _, _ := allocFixture(t)
	es.load(batch)
	lanes := ^uint64(0)
	if allocs := testing.AllocsPerRun(50, func() {
		lanes = lanes*6364136223846793005 + 1442695040888963407
		es.loadLanes(batch, lanes)
	}); allocs != 0 {
		t.Fatalf("EventSim.loadLanes allocates %.1f objects per reload on warm tables, want 0", allocs)
	}
}
