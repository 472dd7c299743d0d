package atpg

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"factor/internal/factorerr"
	"factor/internal/failpoint"
	"factor/internal/fault"
)

// TestInjectedSearchPanicDeterministic drives the PODEM quarantine
// boundary through the failpoint registry: a probabilistic panic
// keyed by fault identity must quarantine the same faults — same
// QuarantinedNum, same full result — for every worker count, exactly
// like the hook-injected panics of TestDeterministicQuarantine.
func TestInjectedSearchPanicDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	nl := randomSeqCircuit(rng, 5, 140)
	faults := fault.Universe(nl)

	reg, err := failpoint.Parse("atpg.search=panic:0.2:9")
	if err != nil {
		t.Fatal(err)
	}
	failpoint.Activate(reg)
	defer failpoint.Deactivate()

	base := Options{Seed: 5, MaxFrames: 4, BacktrackLimit: 64, DisableRandomPhase: true}
	var ref *RunResult
	for _, workers := range []int{1, 2, 4} {
		opts := base
		opts.Workers = workers
		got, err := New(nl, opts).RunContext(context.Background(), faults)
		if err != nil {
			t.Fatalf("workers=%d: quarantine must not fail the run: %v", workers, err)
		}
		for _, qerr := range got.Errors {
			if !errors.Is(qerr, &factorerr.Error{Stage: factorerr.StageATPG, Code: factorerr.CodePanic}) {
				t.Fatalf("workers=%d: error %v is not a structured ATPG panic", workers, qerr)
			}
			var fe *factorerr.Error
			if !errors.As(qerr, &fe) || fe.Fault == "" {
				t.Fatalf("workers=%d: quarantine error lacks fault identity: %v", workers, qerr)
			}
		}
		if n := undetectedQuarantines(got); n != got.QuarantinedNum {
			t.Fatalf("workers=%d: %d errors name undetected faults vs QuarantinedNum %d", workers, n, got.QuarantinedNum)
		}
		if ref == nil {
			ref = got
			if ref.QuarantinedNum == 0 {
				t.Fatal("probability 0.2 quarantined no fault; seed is degenerate")
			}
			continue
		}
		runsEqual(t, "injected-panic workers invariance", ref, got)
		if got.QuarantinedNum != ref.QuarantinedNum {
			t.Fatalf("workers=%d: QuarantinedNum %d diverges from %d", workers, got.QuarantinedNum, ref.QuarantinedNum)
		}
	}
}

// TestInjectedSearchErrorQuarantines: the error action at atpg.search
// quarantines without a panic — the cheap chaos-mode variant — and
// survives a checkpoint/resume split with the identical final result.
func TestInjectedSearchErrorQuarantines(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	nl := randomSeqCircuit(rng, 5, 140)
	faults := fault.Universe(nl)

	reg, err := failpoint.Parse("atpg.search=error:0.2:9")
	if err != nil {
		t.Fatal(err)
	}
	failpoint.Activate(reg)
	defer failpoint.Deactivate()

	opts := Options{Seed: 5, MaxFrames: 4, BacktrackLimit: 64, DisableRandomPhase: true, Workers: 2, CheckpointEvery: 2}
	var snap *Checkpoint
	opts.Checkpoint = func(ck *Checkpoint) error {
		if snap == nil {
			snap = ck
		}
		return nil
	}
	base, err := New(nl, opts).RunContext(context.Background(), faults)
	if err != nil {
		t.Fatalf("injected errors must not fail the run: %v", err)
	}
	if base.QuarantinedNum == 0 {
		t.Fatal("probability 0.2 quarantined no fault; seed is degenerate")
	}
	for _, qerr := range base.Errors {
		if !errors.Is(qerr, failpoint.ErrInjected) {
			t.Fatalf("quarantine error %v does not unwrap to ErrInjected", qerr)
		}
	}

	if snap == nil {
		t.Fatal("no checkpoint captured")
	}
	ropts := opts
	ropts.Workers = 3
	ropts.Resume = snap
	ropts.Checkpoint = func(*Checkpoint) error { return nil }
	resumed, err := New(nl, ropts).RunContext(context.Background(), faults)
	if err != nil {
		t.Fatalf("resume under injected errors failed: %v", err)
	}
	runsEqual(t, "injected-error checkpoint/resume", base, resumed)
}
