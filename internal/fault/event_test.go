package fault

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"factor/internal/netlist"
	"factor/internal/sim"
)

// randSeqWithX builds a random sequence that exercises the X lanes:
// some PIs are assigned X explicitly and some are omitted entirely
// (which the simulators must also treat as X).
func randSeqWithX(n *netlist.Netlist, rng *rand.Rand, cycles int) Sequence {
	seq := make(Sequence, cycles)
	for t := range seq {
		vec := Vector{}
		for _, name := range n.PINames {
			switch rng.Intn(8) {
			case 0:
				vec[name] = sim.LX
			case 1:
				// omitted: defaults to X
			default:
				vec[name] = sim.Logic(rng.Intn(2))
			}
		}
		seq[t] = vec
	}
	return seq
}

// TestEventMatchesParallelRunSequence differentially verifies the
// event-driven engine against the full-evaluation reference on
// randomized sequential circuits: identical detection marks and
// identical newly-detected counts per sequence, including X-heavy
// stimuli.
func TestEventMatchesParallelRunSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		nl := randomCircuit(rng, 5, 120, true)
		faults := Universe(nl)
		seqs := make([]Sequence, 5)
		for i := range seqs {
			if i%2 == 0 {
				seqs[i] = randSeqFor(nl, rng, 5)
			} else {
				seqs[i] = randSeqWithX(nl, rng, 5)
			}
		}

		ref := NewResult(faults)
		ps := NewParallel(nl)
		got := NewResult(faults)
		es := NewEvent(nl)
		for si, seq := range seqs {
			nRef := ps.RunSequence(ref, seq)
			nGot := es.RunSequence(got, seq)
			if nRef != nGot {
				t.Fatalf("trial %d seq %d: newly-detected mismatch: reference %d, event-driven %d", trial, si, nRef, nGot)
			}
		}
		if !reflect.DeepEqual(ref.Detected, got.Detected) {
			for i := range faults {
				if ref.Detected[i] != got.Detected[i] {
					t.Errorf("trial %d: fault %v: reference=%v event=%v", trial, faults[i], ref.Detected[i], got.Detected[i])
				}
			}
			t.Fatalf("trial %d: detection marks diverge", trial)
		}
	}
}

// TestEventBatchBitIdentical checks lane-exact equality of single
// batches: the event engine's detected-lane mask must match the
// reference engine's bit for bit, not just per-fault detection.
func TestEventBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 10; trial++ {
		nl := randomCircuit(rng, 4, 80, true)
		faults := Universe(nl)
		if len(faults) > 63 {
			faults = faults[:63]
		}
		seq := randSeqWithX(nl, rng, 6)

		ps := NewParallel(nl)
		want := ps.runBatch(faults, seq)
		es := NewEvent(nl)
		tr := newGoodTrace(nl, nl.Compile(), []Sequence{seq})
		got := es.runBatch(faults, tr)
		if want != got {
			t.Fatalf("trial %d: detected-lane masks differ: reference %064b, event %064b", trial, want, got)
		}
	}
}

// TestEventFirstDetectionsMatchesReference compares the engine-level
// first-detection pass of the event engine against the reference
// engine's, batch by batch.
func TestEventFirstDetectionsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 6; trial++ {
		nl := randomCircuit(rng, 5, 100, true)
		faults := Universe(nl)
		if len(faults) > 63 {
			faults = faults[:63]
		}
		seqs := make([]Sequence, 5)
		for i := range seqs {
			seqs[i] = randSeqWithX(nl, rng, 4)
		}
		tr := newGoodTrace(nl, nl.Compile(), seqs)
		getTrace := func(int) *goodTrace { return tr }

		want := make([]int, len(faults))
		got := make([]int, len(faults))
		for i := range want {
			want[i], got[i] = -1, -1
		}
		NewParallel(nl).firstDetections(context.Background(), faults, seqs, time.Time{}, want)
		NewEvent(nl).firstDetections(context.Background(), faults, seqs, getTrace, time.Time{}, got)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: first detections diverge\nreference %v\nevent     %v", trial, want, got)
		}
	}
}

// TestEventSerialCrossCheck spot-checks the event engine against the
// two-machine serial reference on individual faults.
func TestEventSerialCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	nl := randomCircuit(rng, 4, 60, true)
	faults := Universe(nl)
	seqs := make([]Sequence, 4)
	for i := range seqs {
		seqs[i] = randSeqWithX(nl, rng, 5)
	}
	res := NewResult(faults)
	es := NewEvent(nl)
	// Without dropping: run each sequence against all faults.
	perSeq := make([]*Result, len(seqs))
	for i, seq := range seqs {
		perSeq[i] = NewResult(faults)
		es.RunSequence(perSeq[i], seq)
		es.RunSequence(res, seq)
	}
	for fi, f := range faults {
		for si, seq := range seqs {
			if want := SerialDetect(nl, f, seq); want != perSeq[si].Detected[fi] {
				t.Errorf("fault %v seq %d: serial=%v event=%v", f, si, want, perSeq[si].Detected[fi])
			}
		}
	}
}

// TestEventGoodTraceMatchesSimulator pins the packed good-machine
// trace to the logic simulator: for every sequence of a group of
// unequal lengths, lane s of the trace must equal lane 0 of a separate
// full simulation of sequence s on every gate and cycle the sequence
// reaches, and broadcasting that lane must give its canonical splat.
func TestEventGoodTraceMatchesSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	nl := randomCircuit(rng, 5, 90, true)
	lens := []int{6, 3, 6, 1, 4, 0, 5}
	seqs := make([]Sequence, len(lens))
	for i, n := range lens {
		seqs[i] = randSeqWithX(nl, rng, n)
	}
	tr := newGoodTrace(nl, nl.Compile(), seqs)
	if tr.cycles != 6 {
		t.Fatalf("trace cycles = %d, want the longest sequence (6)", tr.cycles)
	}

	for lane, seq := range seqs {
		s := sim.New(nl)
		for t2, vec := range seq {
			s.ApplyVector(map[string]sim.Logic(vec))
			s.Eval()
			good := tr.cycle(t2)
			for id := range nl.Gates {
				want := s.Value(id).Lane(0)
				if got := good[id].Lane(lane); got != want {
					t.Fatalf("seq %d cycle %d gate %d: trace %v, simulator %v", lane, t2, id, got, want)
				}
				if got := laneOf(good[id], uint(lane)); got != sim.Splat(want) {
					t.Fatalf("seq %d cycle %d gate %d: laneOf = %+v, want splat of %v", lane, t2, id, got, want)
				}
			}
			s.Step()
		}
	}
}

// TestConeOrderDeterministicAndComplete checks that cone-grouped batch
// assembly is a permutation of the pending list and deterministic.
func TestConeOrderDeterministicAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	nl := randomCircuit(rng, 5, 100, true)
	faults := Universe(nl)
	res := NewResult(faults)
	c := nl.Compile()
	a := coneOrder(c, faults, res.Remaining())
	b := coneOrder(c, faults, res.Remaining())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("coneOrder is not deterministic")
	}
	seen := make([]bool, len(faults))
	for _, fi := range a {
		if seen[fi] {
			t.Fatalf("coneOrder duplicates fault %d", fi)
		}
		seen[fi] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("coneOrder drops fault %d", i)
		}
	}
	// Cone key is the topological position: verify monotonicity.
	for i := 1; i < len(a); i++ {
		if c.Pos[faults[a[i-1]].Gate] > c.Pos[faults[a[i]].Gate] {
			t.Fatal("coneOrder not sorted by topological position")
		}
	}
}
