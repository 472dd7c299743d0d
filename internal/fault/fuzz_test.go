package fault

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// FuzzEventDrivenEquivalence fuzzes the event-driven fault-simulation
// engine against the full-evaluation reference and the two-machine
// serial oracle. The fuzzer chooses the circuit shape, the fault-batch
// composition and the stimulus (including explicit and implicit X
// inputs) from the raw corpus bytes; any divergence in detection marks,
// newly-detected counts or lane masks is a bug in one of the engines.
func FuzzEventDrivenEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(40), uint8(3), uint8(4))
	f.Add(int64(7), uint8(1), uint8(5), uint8(1), uint8(1))
	f.Add(int64(99), uint8(6), uint8(120), uint8(4), uint8(6))
	f.Add(int64(-12345), uint8(3), uint8(70), uint8(2), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, nIn, nGates, nSeqs, cycles uint8) {
		rng := rand.New(rand.NewSource(seed))
		in := 1 + int(nIn)%6
		gates := 1 + int(nGates)%150
		seqCount := 1 + int(nSeqs)%4
		cyc := 1 + int(cycles)%8

		nl := randomCircuit(rng, in, gates, true)
		faults := Universe(nl)
		if len(faults) == 0 {
			return
		}

		seqs := make([]Sequence, seqCount)
		for i := range seqs {
			seqs[i] = randSeqWithX(nl, rng, cyc)
		}

		// Pass 1: full detection marks with fault dropping, per sequence.
		ref := NewResult(faults)
		got := NewResult(faults)
		ps := NewParallel(nl)
		es := NewEvent(nl)
		for si, seq := range seqs {
			nRef := ps.RunSequence(ref, seq)
			nGot := es.RunSequence(got, seq)
			if nRef != nGot {
				t.Fatalf("seq %d: newly-detected mismatch: reference %d, event %d", si, nRef, nGot)
			}
		}
		for i := range faults {
			if ref.Detected[i] != got.Detected[i] {
				t.Fatalf("fault %v: reference=%v event=%v", faults[i], ref.Detected[i], got.Detected[i])
			}
		}

		// Pass 2: lane-exact batch masks on the first batch.
		batch := faults
		if len(batch) > 63 {
			batch = batch[:63]
		}
		tr := newGoodTrace(nl, nl.Compile(), seqs[:1])
		if want, have := ps.runBatch(batch, seqs[0]), es.runBatch(batch, tr); want != have {
			t.Fatalf("lane mask mismatch: reference %064b, event %064b", want, have)
		}

		// Pass 3: serial oracle on a few random faults against seqs[0].
		for k := 0; k < 3 && k < len(batch); k++ {
			fi := rng.Intn(len(batch))
			fl := batch[fi]
			want := SerialDetect(nl, fl, seqs[0])
			res := NewResult([]Fault{fl})
			es.RunSequence(res, seqs[0])
			if res.Detected[0] != want {
				t.Fatalf("fault %v: serial=%v event=%v", fl, want, res.Detected[0])
			}
		}

		// X-lane sanity: lane 0 (the good machine) must never be reported
		// as a detection by either engine.
		if det := es.runBatch(batch, tr); det&1 != 0 {
			t.Fatal("event engine reported the good-machine lane as detected")
		}
	})
}

// FuzzFirstDetectionsGrouped fuzzes the first-detection pass — packed
// 64-sequence good traces plus per-lane fault dropping — against the
// full-evaluation reference. The fuzzer chooses the circuit, the
// sequence count (so the last trace group holds anywhere from 1 to 64
// sequences), the spread of sequence lengths, the X density of the
// stimulus and the worker count.
func FuzzFirstDetectionsGrouped(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(90), uint8(65), uint8(5), uint8(0))
	f.Add(int64(5), uint8(2), uint8(20), uint8(0), uint8(0), uint8(1))
	f.Add(int64(23), uint8(5), uint8(140), uint8(129), uint8(7), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nIn, nGates, nSeqs, maxLen, workers uint8) {
		rng := rand.New(rand.NewSource(seed))
		nl := randomCircuit(rng, 1+int(nIn)%6, 1+int(nGates)%150, true)
		faults := Universe(nl)
		if len(faults) == 0 {
			return
		}
		seqs := groupSeqs(nl, rng, 1+int(nSeqs)%140, 1+int(maxLen)%8)
		want, wantTrace := referenceFirstDetections(nl, faults, seqs)
		got, stats, errs := FirstDetections(context.Background(), nl, faults, seqs, 1+int(workers)%4, time.Time{})
		if len(errs) != 0 {
			t.Fatalf("unexpected errors: %v", errs)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("first detections diverge from the reference\ngot  %v\nwant %v", got, want)
		}
		if stats.TraceCycles != wantTrace {
			t.Fatalf("TraceCycles %d, want %d", stats.TraceCycles, wantTrace)
		}
	})
}
