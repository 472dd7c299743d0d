package atpg

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"factor/internal/factorerr"
	"factor/internal/fault"
)

// TestCheckpointResumeBitIdentical is the resume acceptance criterion:
// cancel a run mid-flight at several points, resume it from the last
// flushed checkpoint — possibly with a different worker count — and
// demand a final result bit-identical to an uninterrupted run.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	nl := randomSeqCircuit(rng, 6, 200)
	faults := fault.Universe(nl)
	base := Options{Seed: 5, MaxFrames: 4, BacktrackLimit: 64, RandomSequences: 8, CheckpointEvery: 4}

	refOpts := base
	refOpts.Workers = 1
	ref := New(nl, refOpts).Run(faults)

	canceled := 0
	for _, cancelAfter := range []int{1, 3, 7} {
		for _, workers := range []int{1, 4} {
			for _, resumeWorkers := range []int{1, 2, 8} {
				ctx, cancel := context.WithCancel(context.Background())
				var last *Checkpoint
				flushes := 0
				opts := base
				opts.Workers = workers
				opts.Checkpoint = func(ck *Checkpoint) error {
					last = ck
					flushes++
					if flushes == cancelAfter {
						cancel()
					}
					return nil
				}
				got, err := New(nl, opts).RunContext(ctx, faults)
				cancel()

				name := formatName(cancelAfter, workers) + " resume-j" + string(rune('0'+resumeWorkers))
				if err == nil {
					// The run outran the cancellation; it must already
					// match the reference.
					runsEqual(t, name+" (uncanceled)", ref, got)
					continue
				}
				canceled++
				if !errors.Is(err, &factorerr.Error{Stage: factorerr.StageATPG, Code: factorerr.CodeCanceled}) {
					t.Fatalf("%s: cancellation error is not structured: %v", name, err)
				}
				if last == nil {
					t.Fatalf("%s: canceled run flushed no checkpoint", name)
				}

				ropts := base
				ropts.Workers = resumeWorkers
				ropts.Resume = last
				resumed, rerr := New(nl, ropts).RunContext(context.Background(), faults)
				if rerr != nil {
					t.Fatalf("%s: resume failed: %v", name, rerr)
				}
				runsEqual(t, name, ref, resumed)
			}
		}
	}
	if canceled == 0 {
		t.Fatal("no run was actually canceled; the test exercised nothing")
	}
}

// TestTimingRandomCancelResume cancels at wall-clock-random points —
// including possibly inside the random phase, where no checkpoint
// exists and resume degenerates to a fresh run — and checks the
// resumed result is still bit-identical to the uninterrupted one.
func TestTimingRandomCancelResume(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	nl := randomSeqCircuit(rng, 6, 220)
	faults := fault.Universe(nl)
	base := Options{Seed: 9, MaxFrames: 4, BacktrackLimit: 64, RandomSequences: 8, CheckpointEvery: 2}

	refOpts := base
	refOpts.Workers = 1
	ref := New(nl, refOpts).Run(faults)

	for trial, delay := range []time.Duration{500 * time.Microsecond, 2 * time.Millisecond, 8 * time.Millisecond, 30 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), delay)
		var last *Checkpoint
		opts := base
		opts.Workers = 4
		opts.Checkpoint = func(ck *Checkpoint) error { last = ck; return nil }
		got, err := New(nl, opts).RunContext(ctx, faults)
		cancel()
		if err == nil {
			runsEqual(t, "trial uncanceled", ref, got)
			continue
		}
		if !errors.Is(err, &factorerr.Error{Code: factorerr.CodeTimeout}) &&
			!errors.Is(err, &factorerr.Error{Code: factorerr.CodeCanceled}) {
			t.Fatalf("trial %d: unexpected interruption error: %v", trial, err)
		}

		ropts := base
		ropts.Workers = 2
		ropts.Resume = last // may be nil: canceled before any flush
		if last == nil {
			ropts.Resume = nil
			resumed := New(nl, ropts).Run(faults)
			runsEqual(t, "trial fresh-after-random-phase-cancel", ref, resumed)
			continue
		}
		resumed, rerr := New(nl, ropts).RunContext(context.Background(), faults)
		if rerr != nil {
			t.Fatalf("trial %d: resume failed: %v", trial, rerr)
		}
		runsEqual(t, "trial resumed", ref, resumed)
	}
}

// TestDeterministicQuarantine injects a panic into the PODEM search of
// chosen faults (test hook) and checks the acceptance criterion: the
// run survives, the faults are quarantined with structured errors, and
// the remaining results are bit-identical for every worker count.
func TestDeterministicQuarantine(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	nl := randomSeqCircuit(rng, 5, 140)
	faults := fault.Universe(nl)
	mid := faults[len(faults)/2]
	testFaultPanicHook = func(f fault.Fault) {
		if f == faults[0] || f == mid {
			panic("injected podem panic")
		}
	}
	defer func() { testFaultPanicHook = nil }()

	base := Options{Seed: 5, MaxFrames: 4, BacktrackLimit: 64, DisableRandomPhase: true}
	var ref *RunResult
	for _, workers := range []int{1, 2, 4, 8} {
		opts := base
		opts.Workers = workers
		got, err := New(nl, opts).RunContext(context.Background(), faults)
		if err != nil {
			t.Fatalf("workers=%d: quarantine must not fail the run: %v", workers, err)
		}
		// faults[0] is the first merged fault: nothing can have dropped
		// it, so it is always quarantined.
		if got.QuarantinedNum < 1 {
			t.Fatalf("workers=%d: QuarantinedNum = %d, want >= 1", workers, got.QuarantinedNum)
		}
		// Note: a quarantined fault may still end up Detected — another
		// fault's test can catch it collaterally; quarantine only skips
		// its own search, and such a fault is counted detected only.
		for _, qerr := range got.Errors {
			if !errors.Is(qerr, &factorerr.Error{Stage: factorerr.StageATPG, Code: factorerr.CodePanic}) {
				t.Fatalf("workers=%d: error %v is not a structured ATPG panic", workers, qerr)
			}
			var fe *factorerr.Error
			if !errors.As(qerr, &fe) || fe.Fault == "" || len(fe.Stack) == 0 {
				t.Fatalf("workers=%d: quarantine error lacks fault identity or stack: %v", workers, qerr)
			}
		}
		if n := undetectedQuarantines(got); n != got.QuarantinedNum {
			t.Fatalf("workers=%d: %d errors name undetected faults vs QuarantinedNum %d", workers, n, got.QuarantinedNum)
		}
		if ref == nil {
			ref = got
		} else {
			runsEqual(t, "quarantine workers invariance", ref, got)
			if got.QuarantinedNum != ref.QuarantinedNum {
				t.Fatalf("workers=%d: QuarantinedNum %d diverges from %d", workers, got.QuarantinedNum, ref.QuarantinedNum)
			}
		}
	}
}

// TestCheckpointFileRoundTrip covers the journal encoding: atomic
// write, load, field equality, and version rejection.
func TestCheckpointFileRoundTrip(t *testing.T) {
	ck := &Checkpoint{
		Version:     CheckpointVersion,
		Fingerprint: "00deadbeef00cafe",
		PostRandom:  []bool{true, false, true},
		Detected:    []bool{true, false, true},
		Merged:      1,
		Tests: []fault.Sequence{
			{{"a": 0, "b": 1}, {"a": 1, "b": 1}},
		},
		DetectedRandom: 2,
		DetectedDet:    1,
		QuarantinedNum: 1,
		Outcome:        []uint8{outcomeNone, outcomeQuarantined, outcomeNone},
		Errors:         []CheckpointError{{Fault: "g3/sa1", Message: "boom"}},
	}
	path := filepath.Join(t.TempDir(), "atpg.ckpt")
	if err := ck.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, got) {
		t.Fatalf("round trip diverged:\nwrote %+v\nread  %+v", ck, got)
	}

	bad := *ck
	bad.Version = CheckpointVersion + 1
	if err := bad.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); !errors.Is(err, &factorerr.Error{Code: factorerr.CodeCheckpoint}) {
		t.Fatalf("version mismatch error = %v, want checkpoint-stage error", err)
	}

	if _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "missing.ckpt")); err == nil {
		t.Fatal("loading a missing checkpoint succeeded")
	} else if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing-file error does not unwrap to os.ErrNotExist: %v", err)
	}
}

// TestResumeRejectsMismatchedCheckpoint: a checkpoint taken under
// different result-shaping options (here: a different seed) must be
// refused, not silently merged into a corrupt run.
func TestResumeRejectsMismatchedCheckpoint(t *testing.T) {
	nl := buildC17ish()
	faults := fault.Universe(nl)

	var last *Checkpoint
	opts := Options{Seed: 5, Workers: 1, Checkpoint: func(ck *Checkpoint) error { last = ck; return nil }}
	if _, err := New(nl, opts).RunContext(context.Background(), faults); err != nil {
		t.Fatal(err)
	}
	if last == nil {
		t.Fatal("completed run flushed no final checkpoint")
	}

	ropts := Options{Seed: 6, Workers: 1, Resume: last}
	if _, err := New(nl, ropts).RunContext(context.Background(), faults); !errors.Is(err, &factorerr.Error{Code: factorerr.CodeCheckpoint}) {
		t.Fatalf("seed-mismatched resume error = %v, want checkpoint-stage error", err)
	}

	// Same options: resuming a completed run is a no-op that reproduces
	// the final result.
	ok := Options{Seed: 5, Workers: 4, Resume: last}
	resumed, err := New(nl, ok).RunContext(context.Background(), faults)
	if err != nil {
		t.Fatal(err)
	}
	full := New(nl, Options{Seed: 5, Workers: 1}).Run(faults)
	runsEqual(t, "resume-completed", full, resumed)
}

// TestRunContextPreCanceled: an already-canceled context fails fast
// with a structured canceled error that maps to the partial exit code.
func TestRunContextPreCanceled(t *testing.T) {
	nl := buildC17ish()
	faults := fault.Universe(nl)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := New(nl, Options{Seed: 1, Workers: 2}).RunContext(ctx, faults)
	if !errors.Is(err, &factorerr.Error{Code: factorerr.CodeCanceled}) {
		t.Fatalf("error = %v, want structured canceled error", err)
	}
	if factorerr.ExitCode(err) != factorerr.ExitPartial {
		t.Fatalf("exit code = %d, want %d", factorerr.ExitCode(err), factorerr.ExitPartial)
	}
}
