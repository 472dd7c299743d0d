package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"factor/internal/cli"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p > 0 {
			if beyond := float64(tc.n) * (100 - p) / 100; beyond < 10-1e-9 {
				t.Errorf("n=%d: p%g leaves %.1f samples beyond it", tc.n, p, beyond)
			}
		}
	}
}

func TestFailedOperationIsSlowerThanAnyLimit(t *testing.T) {
	load := &serveLoad{}
	out := newOutcome()
	good := sampleReport(t, func(*cli.Report) {})
	hit := serveOp{job: batchJob{label: "hit/x"}}
	for range 17 {
		load.record(out, hit, 5, good, nil, false)
	}
	load.record(out, hit, 5, nil, errors.New("POST /api/v1/jobs: status 503"), false)
	load.record(out, hit, 5, good[:10], nil, false) // an unreadable report fails its check
	load.record(out, hit, 5, sampleReport(t, func(r *cli.Report) { r.ATPG.Aborted++ }), nil, false)
	if out.attempted != 20 || out.failed != 3 {
		t.Fatalf("attempted=%d failed=%d, want 20 and 3", out.attempted, out.failed)
	}
	if got := percentile(load.hitMS, 90); !math.IsInf(got, 1) {
		t.Errorf("p90 with 3 failures in 20 = %g, want +Inf", got)
	}
	if got := percentile(load.hitMS, 50); got != 5 {
		t.Errorf("p50 = %g, want 5", got)
	}
	m, err := collect([]metricDef{{"serve.hit_tail_ms", "ms"}}, map[string]float64{"serve.hit_tail_ms": math.Inf(1)}, false)
	if err != nil {
		t.Fatal(err)
	}
	if v := m["serve.hit_tail_ms"].Value; v != math.MaxFloat64 {
		t.Errorf("encoded failed latency = %g, want the largest float64", v)
	}
	if _, err := json.Marshal(m); err != nil {
		t.Errorf("failed latency does not encode: %v", err)
	}
}

// sampleReport renders a consistent job report after doctor edits it.
func sampleReport(t *testing.T, doctor func(*cli.Report)) []byte {
	t.Helper()
	rep := cli.NewReport("factor", nil)
	rep.ATPG = &cli.ATPGReport{TotalFaults: 10, Detected: 6, Untestable: 1, Aborted: 2, NotAttempted: 1}
	rep.FaultSim = &cli.FaultSimReport{Detected: 6, FirstDigest: "0123456789abcdef"}
	doctor(rep)
	data, err := rep.Render()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCheckReportRejectsDoctoredReports(t *testing.T) {
	if _, err := checkReport(sampleReport(t, func(*cli.Report) {})); err != nil {
		t.Fatalf("consistent report rejected: %v", err)
	}
	for name, doctor := range map[string]func(*cli.Report){
		"broken sum":      func(r *cli.Report) { r.ATPG.Aborted++ },
		"replay mismatch": func(r *cli.Report) { r.FaultSim.Detected-- },
		"partial status":  func(r *cli.Report) { r.Status = "partial" },
		"no replay":       func(r *cli.Report) { r.FaultSim = nil },
	} {
		if _, err := checkReport(sampleReport(t, doctor)); err == nil {
			t.Errorf("%s: doctored report accepted", name)
		}
	}
}

func TestLedgerRejectsChangedBytes(t *testing.T) {
	l := newReportLedger()
	a := sampleReport(t, func(*cli.Report) {})
	b := sampleReport(t, func(r *cli.Report) { r.FaultSim.FirstDigest = "fedcba9876543210" })
	if _, err := l.add("job", a); err != nil {
		t.Fatal(err)
	}
	if _, err := l.add("job", a); err != nil {
		t.Fatalf("identical repetition rejected: %v", err)
	}
	if _, err := l.add("job", b); err == nil {
		t.Error("repetition with different bytes accepted")
	}
	if !strings.Contains(l.String(), "report job sha256=") {
		t.Errorf("ledger listing lacks the job: %q", l.String())
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %g, want 2", m)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	r := newSpanRecorder()
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := &spanRec{ID: 1, Name: "job", start: at(0), end: at(100)}
	call := &spanRec{ID: 2, Parent: 1, Name: "core.TransformContext", start: at(10), end: at(60)}
	inner := &spanRec{ID: 3, Parent: 2, Name: "synth", start: at(20), end: at(50)}
	r.spans = []*spanRec{root, call, inner}
	self := r.selfTimes()
	for name, want := range map[string]float64{"job": 0.050, "core.TransformContext": 0.020, "synth": 0.030} {
		if math.Abs(self[name]-want) > 1e-9 {
			t.Errorf("self(%s) = %g, want %g", name, self[name], want)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables and
// BENCHMARK.json at the repository root in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, listed []struct{ Name, Unit string }) {
		if len(defs) != len(listed) {
			t.Errorf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(defs), len(listed))
		}
		for i := range min(len(defs), len(listed)) {
			if defs[i].name != listed[i].Name || defs[i].unit != listed[i].Unit {
				t.Errorf("%s[%d]: code %s/%s, BENCHMARK.json %s/%s", kind, i, defs[i].name, defs[i].unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not run", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in code", len(b.Workloads), len(workloads))
	}
}
