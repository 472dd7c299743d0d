package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"factor/internal/cli"
)

// checkedReport is what the output checks keep of one job report.
type checkedReport struct {
	Detected    int
	TotalFaults int
	SHA256      string
}

// checkReport parses a canonical job report and applies the output
// checks every job must pass: status ok, the fault classes summing to
// the fault total, and the replay detecting exactly what ATPG
// detected.
func checkReport(data []byte) (checkedReport, error) {
	var rep cli.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return checkedReport{}, fmt.Errorf("decoding report: %w", err)
	}
	if rep.Status != "ok" {
		return checkedReport{}, fmt.Errorf("report status %q, want ok", rep.Status)
	}
	a, fs := rep.ATPG, rep.FaultSim
	if a == nil || fs == nil {
		return checkedReport{}, fmt.Errorf("report lacks its atpg or fault_sim section")
	}
	if sum := a.Detected + a.Untestable + a.Aborted + a.NotAttempted + a.Quarantined; sum != a.TotalFaults {
		return checkedReport{}, fmt.Errorf("fault classes sum to %d, total_faults is %d", sum, a.TotalFaults)
	}
	if fs.Detected != a.Detected {
		return checkedReport{}, fmt.Errorf("replay detected %d, atpg detected %d", fs.Detected, a.Detected)
	}
	sum := sha256.Sum256(data)
	return checkedReport{Detected: a.Detected, TotalFaults: a.TotalFaults, SHA256: hex.EncodeToString(sum[:])}, nil
}

// reportLedger holds the report hash of every job key seen in a run
// and checks that repetitions of a job produce identical bytes.
type reportLedger struct {
	sha map[string]string
}

func newReportLedger() *reportLedger { return &reportLedger{sha: map[string]string{}} }

// add checks data and records its hash under key; a key seen before
// must carry the same bytes.
func (l *reportLedger) add(key string, data []byte) (checkedReport, error) {
	cr, err := checkReport(data)
	if err != nil {
		return cr, fmt.Errorf("%s: %w", key, err)
	}
	if prev, ok := l.sha[key]; ok && prev != cr.SHA256 {
		return cr, fmt.Errorf("%s: report bytes differ between repetitions (sha256 %s vs %s)", key, prev[:12], cr.SHA256[:12])
	}
	l.sha[key] = cr.SHA256
	return cr, nil
}

// String lists every job's report hash, one "report <key> sha256=<hex>"
// line each, in key order.
func (l *reportLedger) String() string {
	keys := make([]string, 0, len(l.sha))
	for k := range l.sha {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "report %s sha256=%s\n", k, l.sha[k])
	}
	return b.String()
}
