package atpg

import (
	"math/rand"
	"testing"
	"time"

	"factor/internal/fault"
	"factor/internal/netlist"
)

// buildC17ish builds a small NAND network in the spirit of ISCAS c17.
func buildC17ish() *netlist.Netlist {
	n := netlist.New("c17ish")
	g1 := n.AddInput("g1")
	g2 := n.AddInput("g2")
	g3 := n.AddInput("g3")
	g4 := n.AddInput("g4")
	g5 := n.AddInput("g5")
	n10 := n.AddGate(netlist.Nand, g1, g3)
	n11 := n.AddGate(netlist.Nand, g3, g4)
	n16 := n.AddGate(netlist.Nand, g2, n11)
	n19 := n.AddGate(netlist.Nand, n11, g5)
	n22 := n.AddGate(netlist.Nand, n10, n16)
	n23 := n.AddGate(netlist.Nand, n16, n19)
	n.AddOutput("o22", n22)
	n.AddOutput("o23", n23)
	return n
}

func TestCombinationalFullCoverage(t *testing.T) {
	nl := buildC17ish()
	faults := fault.Universe(nl)
	eng := New(nl, Options{Seed: 3})
	res := eng.Run(faults)
	if res.Coverage() != 100 {
		t.Errorf("coverage = %.1f%%, want 100%% (c17 is fully testable); %d untestable %d aborted",
			res.Coverage(), res.UntestableNum, res.AbortedNum)
	}
	if res.Efficiency() != 100 {
		t.Errorf("efficiency = %.1f%%", res.Efficiency())
	}
}

func TestDeterministicOnlyFullCoverage(t *testing.T) {
	nl := buildC17ish()
	faults := fault.Universe(nl)
	eng := New(nl, Options{Seed: 3, DisableRandomPhase: true})
	res := eng.Run(faults)
	if res.Coverage() != 100 {
		t.Errorf("PODEM-only coverage = %.1f%%, want 100%%", res.Coverage())
	}
	if res.DetectedRandom != 0 {
		t.Errorf("random phase ran despite DisableRandomPhase")
	}
	// With fault dropping the engine should need far fewer
	// deterministic targets than faults.
	if len(res.Tests) > res.TotalFaults {
		t.Errorf("more tests (%d) than faults (%d)?", len(res.Tests), res.TotalFaults)
	}
}

// buildRedundant builds z = ab + ~bc + ac where the consensus term ac
// is redundant: its AND-output sa0 is untestable.
func buildRedundant() (*netlist.Netlist, fault.Fault) {
	n := netlist.New("consensus")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	nb := n.AddGate(netlist.Not, b)
	ab := n.AddGate(netlist.And, a, b)
	nbc := n.AddGate(netlist.And, nb, c)
	ac := n.AddGate(netlist.And, a, c)
	o1 := n.AddGate(netlist.Or, ab, nbc)
	z := n.AddGate(netlist.Or, o1, ac)
	n.AddOutput("z", z)
	return n, fault.Fault{Site: fault.Site{Gate: ac, Pin: -1}, SAOne: false}
}

func TestRedundantFaultProvenUntestable(t *testing.T) {
	nl, f := buildRedundant()
	eng := New(nl, Options{DisableRandomPhase: true})
	seq, status, _ := eng.testFault(eng.searcher(), f, time.Time{})
	if status != Untestable {
		t.Errorf("status = %v (seq=%v), want untestable", status, seq)
	}
	res := eng.Run([]fault.Fault{f})
	if res.Coverage() != 0 || res.Efficiency() != 100 {
		t.Errorf("coverage=%.1f efficiency=%.1f, want 0 and 100", res.Coverage(), res.Efficiency())
	}
}

func TestGeneratedTestsActuallyDetect(t *testing.T) {
	nl := buildC17ish()
	faults := fault.Universe(nl)
	eng := New(nl, Options{Seed: 9, DisableRandomPhase: true})
	for _, f := range faults {
		seq, status, _ := eng.testFault(eng.searcher(), f, time.Time{})
		if status != Detected {
			t.Errorf("fault %v: status %v", f, status)
			continue
		}
		if !fault.SerialDetect(nl, f, seq) {
			t.Errorf("fault %v: generated sequence does not detect it (serial check)", f)
		}
	}
}

// TestExportedSuiteRedetects replays RunResult.Tests from scratch and
// checks every fault the run marked detected is re-detected by the
// exported suite alone — the suite-validity contract the conformance
// harness asserts pipeline-wide (invariant I3). In particular this
// covers the fill-masking fallback in mergeOne: when the random-filled
// sequence masks the target detection, the unfilled sequence must ship
// in the suite alongside the filled one.
func TestExportedSuiteRedetects(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for ci := 0; ci < 25; ci++ {
		nl := randomSeqCircuit(rng, 1+rng.Intn(5), 10+rng.Intn(60))
		faults := fault.Universe(nl)
		if len(faults) == 0 {
			continue
		}
		out := New(nl, Options{Seed: int64(ci) + 1, RandomSequences: 8, RandomSeqLen: 6}).Run(faults)
		replay := fault.NewResult(faults)
		ps := fault.NewParallel(nl)
		for _, seq := range out.Tests {
			ps.RunSequence(replay, seq)
		}
		for i := range faults {
			if out.Result.Detected[i] && !replay.Detected[i] {
				t.Errorf("circuit %d fault %v: marked detected but the exported suite does not re-detect it", ci, faults[i])
			}
		}
	}
}

// buildShiftChain builds a 3-deep shift register feeding a comparator,
// requiring multi-frame sequences to test faults near the source.
func buildShiftChain() *netlist.Netlist {
	n := netlist.New("shift3")
	d := n.AddInput("d")
	f1 := n.AddGate(netlist.DFF, d)
	f2 := n.AddGate(netlist.DFF, f1)
	f3 := n.AddGate(netlist.DFF, f2)
	n.AddOutput("q", f3)
	return n
}

func TestSequentialMultiFrame(t *testing.T) {
	nl := buildShiftChain()
	// Fault on the input d (stem of the PI): needs 4 frames (assign,
	// then 3 clocks to reach the output).
	f := fault.Fault{Site: fault.Site{Gate: nl.PI("d"), Pin: -1}, SAOne: false}
	eng := New(nl, Options{DisableRandomPhase: true})
	seq, status, _ := eng.testFault(eng.searcher(), f, time.Time{})
	if status != Detected {
		t.Fatalf("status = %v, want detected", status)
	}
	if len(seq) < 4 {
		t.Errorf("sequence length %d, want >= 4 (3 flops + launch)", len(seq))
	}
	if !fault.SerialDetect(nl, f, seq) {
		t.Errorf("sequence does not detect d/sa0")
	}
}

func TestSequentialCoverageWithUnknownReset(t *testing.T) {
	// A resettable circuit: with a synchronous clear input every flop
	// is controllable, so coverage should be complete.
	n := netlist.New("rctrl")
	clr := n.AddInput("clr")
	en := n.AddInput("en")
	nclr := n.AddGate(netlist.Not, clr)
	q := n.AddGate(netlist.DFF, en) // patched below
	x := n.AddGate(netlist.Xor, q, en)
	d := n.AddGate(netlist.And, x, nclr)
	n.SetFanin(q, 0, d)
	n.AddOutput("q", q)

	faults := fault.Universe(n)
	eng := New(n, Options{Seed: 5})
	res := eng.Run(faults)
	// clr/sa0 is genuinely undetectable under unknown power-up state
	// (the faulty machine never leaves X), so coverage stays below
	// 100%, but the engine must account for every fault: efficiency
	// (detected + proven untestable) must be complete.
	if res.Efficiency() != 100 {
		t.Errorf("efficiency = %.1f%%, want 100%% (aborted=%d)", res.Efficiency(), res.AbortedNum)
	}
	if res.Coverage() < 80 {
		t.Errorf("coverage = %.1f%%, want >= 80%%", res.Coverage())
	}
	if res.UntestableNum < 1 {
		t.Errorf("untestable = %d, want >= 1 (clr/sa0)", res.UntestableNum)
	}
}

func TestBacktrackLimitAborts(t *testing.T) {
	// A hard circuit with an absurdly low backtrack limit must abort,
	// not hang or misreport untestable.
	nl := buildShiftChain()
	f := fault.Fault{Site: fault.Site{Gate: nl.PI("d"), Pin: -1}, SAOne: false}
	eng := New(nl, Options{DisableRandomPhase: true, BacktrackLimit: 1, MaxFrames: 2})
	_, status, _ := eng.testFault(eng.searcher(), f, time.Time{})
	// With MaxFrames=2 the fault cannot reach the PO: the engine must
	// prove untestable-within-budget or abort, never detect.
	if status == Detected {
		t.Errorf("detected a fault that needs 4 frames using only 2")
	}
}

func TestEfficiencyAccounting(t *testing.T) {
	nl, f := buildRedundant()
	all := fault.Universe(nl)
	// Mix the redundant fault's universe: coverage < 100, efficiency
	// should still be 100 (everything detected or proven redundant).
	eng := New(nl, Options{Seed: 2})
	res := eng.Run(all)
	if res.Efficiency() != 100 {
		t.Errorf("efficiency = %.1f%%, want 100%% (aborted=%d)", res.Efficiency(), res.AbortedNum)
	}
	if res.Coverage() >= 100 {
		t.Errorf("coverage = %.1f%%, expected < 100%% due to redundancy %v", res.Coverage(), f)
	}
	if res.UntestableNum == 0 {
		t.Error("redundant fault not counted untestable")
	}
}

func TestStatusString(t *testing.T) {
	if Detected.String() != "detected" || Untestable.String() != "untestable" || Aborted.String() != "aborted" {
		t.Error("Status.String broken")
	}
	if Status(42).String() != "unknown" {
		t.Error("unknown status should stringify")
	}
}

func TestControllabilityMeasures(t *testing.T) {
	nl := buildC17ish()
	cc0, cc1 := controllability(nl)
	pi := nl.PI("g1")
	if cc0[pi] != 1 || cc1[pi] != 1 {
		t.Errorf("PI controllability = %d/%d, want 1/1", cc0[pi], cc1[pi])
	}
	// NAND of two PIs: cc0 = cc1(a)+cc1(b)+1 = 3, cc1 = min(cc0)+1 = 2.
	for _, g := range nl.Gates {
		if g.Kind == netlist.Nand && nl.Gates[g.Fanin[0]].Kind == netlist.Input && nl.Gates[g.Fanin[1]].Kind == netlist.Input {
			if cc0[g.ID] != 3 || cc1[g.ID] != 2 {
				t.Errorf("NAND cc = %d/%d, want 3/2", cc0[g.ID], cc1[g.ID])
			}
			break
		}
	}
	// Sequential penalty.
	ch := buildShiftChain()
	c0, _ := controllability(ch)
	if c0[ch.DFFs[2]] <= c0[ch.DFFs[0]] {
		t.Errorf("deeper flop should be costlier: %d vs %d", c0[ch.DFFs[2]], c0[ch.DFFs[0]])
	}
}

func TestObservationDistance(t *testing.T) {
	ch := buildShiftChain()
	obs := observationDistance(ch)
	if obs[ch.DFFs[2]] != 0 {
		t.Errorf("PO flop obs = %d, want 0", obs[ch.DFFs[2]])
	}
	if obs[ch.PI("d")] <= obs[ch.DFFs[2]] {
		t.Errorf("input obs %d should exceed output flop obs %d", obs[ch.PI("d")], obs[ch.DFFs[2]])
	}
}

func TestRandomPhaseDropsFaults(t *testing.T) {
	nl := buildC17ish()
	faults := fault.Universe(nl)
	eng := New(nl, Options{Seed: 7})
	res := eng.Run(faults)
	if res.DetectedRandom == 0 {
		t.Error("random phase detected nothing on an easily testable circuit")
	}
}

func TestMuxFaultPropagation(t *testing.T) {
	n := netlist.New("muxprop")
	s := n.AddInput("s")
	a := n.AddInput("a")
	b := n.AddInput("b")
	m := n.AddGate(netlist.Mux, s, a, b)
	n.AddOutput("y", m)
	faults := fault.Universe(n)
	eng := New(n, Options{DisableRandomPhase: true})
	res := eng.Run(faults)
	if res.Coverage() != 100 {
		t.Errorf("mux coverage = %.1f%%, want 100%%", res.Coverage())
	}
}

// TestWithDefaultsDepthDerived pins the two sequential-depth-derived
// defaults, which share one SequentialDepth computation, and checks
// that explicit values are kept.
func TestWithDefaultsDepthDerived(t *testing.T) {
	nl := buildShiftChain()
	d := nl.SequentialDepth()
	if d < 1 {
		t.Fatalf("shift chain sequential depth %d, want >= 1", d)
	}
	o := Options{}.withDefaults(nl)
	if o.MaxFrames != d+2 || o.RandomSeqLen != 2*d+4 {
		t.Errorf("depth %d: MaxFrames %d RandomSeqLen %d, want %d and %d", d, o.MaxFrames, o.RandomSeqLen, d+2, 2*d+4)
	}
	o = Options{MaxFrames: 7}.withDefaults(nl)
	if o.MaxFrames != 7 || o.RandomSeqLen != 2*d+4 {
		t.Errorf("explicit MaxFrames: got %d/%d, want 7/%d", o.MaxFrames, o.RandomSeqLen, 2*d+4)
	}
	o = Options{RandomSeqLen: 5}.withDefaults(nl)
	if o.MaxFrames != d+2 || o.RandomSeqLen != 5 {
		t.Errorf("explicit RandomSeqLen: got %d/%d, want %d/5", o.MaxFrames, o.RandomSeqLen, d+2)
	}
}
