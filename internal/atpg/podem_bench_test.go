package atpg

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"factor/internal/arm"
	"factor/internal/core"
	"factor/internal/design"
	"factor/internal/fault"
	"factor/internal/netlist"
)

// mutFixture is one paper MUT's transformed module (the netlist the
// served pipeline runs ATPG on) with its restricted fault list.
type mutFixture struct {
	nl     *netlist.Netlist
	faults []fault.Fault
}

var (
	armOnce   sync.Once
	armDesign *design.Design
	armErr    error
	mutMu     sync.Mutex
	mutCache  = map[string]*mutFixture{}
)

// armMUT builds the transformed module of an ARM MUT in the given
// extraction mode at the default width, once per test binary.
func armMUT(tb testing.TB, path string, mode core.Mode) (*netlist.Netlist, []fault.Fault) {
	tb.Helper()
	armOnce.Do(func() {
		src, err := arm.Parse()
		if err == nil {
			armDesign, err = design.Analyze(src, arm.Top)
		}
		armErr = err
	})
	if armErr != nil {
		tb.Fatalf("ARM design: %v", armErr)
	}
	mutMu.Lock()
	defer mutMu.Unlock()
	key := fmt.Sprintf("%s/%d", path, mode)
	if fx := mutCache[key]; fx != nil {
		return fx.nl, fx.faults
	}
	tr, err := core.Transform(core.NewExtractor(armDesign, mode), path, nil,
		core.TransformOptions{TopParams: map[string]int64{"W": arm.DefaultWidth}})
	if err != nil {
		tb.Fatalf("transform %s: %v", path, err)
	}
	fx := &mutFixture{nl: tr.Netlist, faults: fault.UniverseRestrictedTo(tr.Netlist, tr.MUTFaultFilter())}
	mutCache[key] = fx
	return fx.nl, fx.faults
}

// sampleFaults takes n faults spread evenly over the list.
func sampleFaults(faults []fault.Fault, n int) []fault.Fault {
	if len(faults) <= n {
		return faults
	}
	out := make([]fault.Fault, n)
	for i := range out {
		out[i] = faults[i*len(faults)/n]
	}
	return out
}

// BenchmarkPODEMSearch times deterministic search alone — every frame
// escalation of a fixed fault sample on one reused worker buffer set,
// no random phase and no fault simulation — on the composed ALU and
// exception unit, and reports the cost per PODEM decision.
func BenchmarkPODEMSearch(b *testing.B) {
	for _, bc := range []struct {
		name, path string
		opts       Options
	}{
		{"alu", "u_core.u_alu", Options{MaxFrames: 2, BacktrackLimit: 8}},
		{"exc", "u_core.u_exc", Options{BacktrackLimit: 16}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			nl, faults := armMUT(b, bc.path, core.ModeComposed)
			faults = sampleFaults(faults, 64)
			e := New(nl, bc.opts)
			p := e.searcher()
			var decisions uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, f := range faults {
					_, _, st := e.testFault(p, f, time.Time{})
					decisions += st.decisions
				}
			}
			if decisions > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(decisions), "ns/decision")
			}
		})
	}
}

// TestPODEMZeroAllocSteadyState asserts that, once a worker's search
// buffers are warm, a search that decides, backtracks and aborts —
// reset, implication, undo, D-frontier, objectives and backtrace —
// performs zero heap allocations. Only a detected search allocates, for
// the test sequence it returns.
func TestPODEMZeroAllocSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("ARM exception-unit extraction in -short mode")
	}
	nl, faults := armMUT(t, "u_core.u_exc", core.ModeComposed)
	e := New(nl, Options{BacktrackLimit: 16})
	p := e.searcher()
	var target fault.Fault
	frames := 0
	for _, f := range faults {
		for fr := 1; fr <= e.opts.MaxFrames && frames == 0; fr++ {
			p.reset(f, fr, e.opts.BacktrackLimit, time.Time{})
			if _, st := p.run(); st == Aborted && p.decisions > 8 {
				target, frames = f, fr
			}
		}
		if frames > 0 {
			break
		}
	}
	if frames == 0 {
		t.Fatal("no aborting search with decisions and backtracks in the exception unit")
	}
	search := func() {
		p.reset(target, frames, e.opts.BacktrackLimit, time.Time{})
		p.run()
	}
	for i := 0; i < 3; i++ {
		search()
	}
	if allocs := testing.AllocsPerRun(20, search); allocs != 0 {
		t.Fatalf("steady-state search (%d decisions, %d backtracks) allocates %.1f objects per run, want 0",
			p.decisions, p.backtracks, allocs)
	}
}
