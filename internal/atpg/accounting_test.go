package atpg

import (
	"errors"
	"testing"

	"factor/internal/core"
	"factor/internal/factorerr"
)

// classSum is the number of faults the run's classes account for.
func classSum(r *RunResult) int {
	return r.DetectedRandom + r.DetectedDet + r.UntestableNum + r.AbortedNum + r.NotAttempted + r.QuarantinedNum
}

// TestFaultClassesPartitionTotal runs the forwarding-unit specs whose
// reports once counted a fault both aborted (or untestable) and, after
// a later deterministic test detected it, detected: every fault must
// land in exactly one class.
func TestFaultClassesPartitionTotal(t *testing.T) {
	if testing.Short() {
		t.Skip("ARM forwarding-unit extraction and three ATPG runs in -short mode")
	}
	for _, tc := range []struct {
		name string
		mode core.Mode
		opts Options
	}{
		{"fwd/flat/rs16", core.ModeFlat, Options{RandomSequences: 16}},
		{"fwd/composed/bt4/rs16", core.ModeComposed, Options{BacktrackLimit: 4, RandomSequences: 16}},
		{"fwd/composed/bt4/rs32", core.ModeComposed, Options{BacktrackLimit: 4, RandomSequences: 32}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nl, faults := armMUT(t, "u_core.u_fwd", tc.mode)
			tc.opts.Workers = 2
			r := New(nl, tc.opts).Run(faults)
			if got := classSum(r); got != r.TotalFaults {
				t.Errorf("detected %d+%d untestable %d aborted %d not attempted %d quarantined %d sum to %d, want %d faults",
					r.DetectedRandom, r.DetectedDet, r.UntestableNum, r.AbortedNum, r.NotAttempted, r.QuarantinedNum,
					got, r.TotalFaults)
			}
			if det := r.DetectedRandom + r.DetectedDet; det != r.Result.NumDetected() {
				t.Errorf("detected classes sum to %d, detected set holds %d", det, r.Result.NumDetected())
			}
		})
	}
}

// undetectedQuarantines counts the run's quarantine errors whose fault
// the run left undetected: the faults QuarantinedNum counts, since a
// quarantined fault a later test detects is counted detected only.
func undetectedQuarantines(r *RunResult) int {
	detected := map[string]bool{}
	for i, f := range r.Result.Faults {
		if r.Result.Detected[i] {
			detected[f.String()] = true
		}
	}
	n := 0
	for _, err := range r.Errors {
		var fe *factorerr.Error
		if errors.As(err, &fe) && !detected[fe.Fault] {
			n++
		}
	}
	return n
}
