// Package conformance is the metamorphic conformance harness for the
// FACTOR pipeline: it feeds randomly generated hierarchical designs
// (internal/designgen) through the full flow — parse, hierarchy
// analysis, synthesis, constraint extraction, ATPG, fault simulation —
// and asserts cross-layer invariants that must hold for ANY design:
//
//	I1 (synthesis soundness):   the optimized netlist agrees with the
//	    unoptimized netlist under random binary co-simulation.
//	I2 (extraction soundness):  the transformed module (extracted S' +
//	    MUT) agrees with the full design on every pin it exposes under
//	    shared stimulus, cycle by cycle including X.
//	I3 (pattern validity):      every fault ATPG reports detected is
//	    re-detected by replaying the exported test suite on both the
//	    packed-parallel and the event-driven fault-simulation engines,
//	    and the two engines agree fault by fault; the reported fault
//	    classes (detected, untestable, aborted, not attempted,
//	    quarantined) partition the fault list.
//	I4 (determinism):           ATPG results are bit-identical across
//	    worker counts and across checkpoint/resume.
//	I5 (guided soundness):      the SCOAP metrics over the compiled
//	    netlist are deterministic, and — whenever neither run aborts
//	    any search — SCOAP-guided ATPG classifies every fault exactly
//	    like the default guide (the guide reorders the complete
//	    search, it must not change its outcome).
//
// Invariant 0 is the pipeline front end itself: every generated design
// must parse, analyze and synthesize. A failing seed is minimized by
// the text-level shrinker in shrink.go.
package conformance

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"math/rand"
	"reflect"
	"strings"

	"factor/internal/atpg"
	"factor/internal/core"
	"factor/internal/design"
	"factor/internal/designgen"
	"factor/internal/fault"
	"factor/internal/netlist"
	"factor/internal/sim"
	"factor/internal/synth"
	"factor/internal/testability"
	"factor/internal/verilog"
)

// Options bounds the per-design work. The defaults keep a full check
// under ~50ms for corpus-scale designs.
type Options struct {
	// Gen shapes the generated designs.
	Gen designgen.Config
	// CosimCycles is the number of clocked cycles for the I1/I2
	// co-simulations; each cycle compares 64 packed random patterns.
	CosimCycles int
	// ATPG budgets (small: the harness cares about agreement, not
	// coverage).
	RandomSequences int
	RandomSeqLen    int
	BacktrackLimit  int
}

// DefaultOptions is the corpus configuration.
func DefaultOptions() Options {
	return Options{
		Gen:             designgen.DefaultConfig(),
		CosimCycles:     16,
		RandomSequences: 16,
		RandomSeqLen:    8,
		BacktrackLimit:  128,
	}
}

func (o Options) withDefaults() Options {
	if o.CosimCycles <= 0 {
		o.CosimCycles = 16
	}
	if o.RandomSequences <= 0 {
		o.RandomSequences = 16
	}
	if o.RandomSeqLen <= 0 {
		o.RandomSeqLen = 8
	}
	if o.BacktrackLimit <= 0 {
		o.BacktrackLimit = 128
	}
	return o
}

// Violation codes group failures of the same kind so the shrinker can
// require a candidate to fail the same way as the original.
const (
	CodeParse     = "parse"
	CodeAnalyze   = "analyze"
	CodeSynth     = "synth"
	CodeValidate  = "validate"
	CodeCosim     = "cosim"
	CodeTransform = "transform"
	CodeReplay    = "replay"
	CodeClasses   = "classes"
	CodeEngines   = "engines"
	CodeWorkers   = "workers"
	CodeResume    = "resume"
	CodeScoap     = "scoap"
	CodeGuide     = "guide"
)

// Violation is one invariant failure.
type Violation struct {
	// Invariant is 0 for pipeline-front failures, 1-4 for the
	// conformance invariants.
	Invariant int
	// Code classifies the failure (CodeParse, CodeCosim, ...).
	Code string
	// Detail is a human-readable description.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("I%d/%s: %s", v.Invariant, v.Code, v.Detail)
}

// Report is the outcome of checking one design.
type Report struct {
	Seed    int64
	Top     string
	Gates   int
	DFFs    int
	MUTPath string
	Mode    string
	Faults  int
	// Detected and Tests summarize the baseline ATPG run.
	Detected int
	Tests    int

	Violations []Violation
}

// OK reports whether every invariant held.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Fails reports whether the report contains a violation of the given
// invariant and code.
func (r *Report) Fails(invariant int, code string) bool {
	for _, v := range r.Violations {
		if v.Invariant == invariant && v.Code == code {
			return true
		}
	}
	return false
}

// Line renders the report as one deterministic summary line (no
// timing, no map iteration): the corpus report is the concatenation of
// these lines, so same seed => byte-identical report.
func (r *Report) Line() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d top=%s gates=%d dffs=%d mut=%s mode=%s faults=%d detected=%d tests=%d",
		r.Seed, r.Top, r.Gates, r.DFFs, r.MUTPath, r.Mode, r.Faults, r.Detected, r.Tests)
	if r.OK() {
		b.WriteString(" status=ok")
	} else {
		b.WriteString(" status=FAIL")
		for _, v := range r.Violations {
			fmt.Fprintf(&b, " [%s]", v)
		}
	}
	return b.String()
}

func (r *Report) violate(invariant int, code, format string, args ...interface{}) {
	r.Violations = append(r.Violations, Violation{
		Invariant: invariant,
		Code:      code,
		Detail:    fmt.Sprintf(format, args...),
	})
}

// Check generates the design for seed and verifies every invariant.
func Check(seed int64, opts Options) *Report {
	g := designgen.Generate(seed, opts.Gen)
	return CheckSource(g.Text(), seed, opts)
}

// CheckSource verifies the invariants on explicit Verilog source (used
// by Check, by the shrinker, and by reproducer regression tests). The
// seed drives everything downstream of the text: stimulus, MUT choice,
// extraction mode, ATPG seeds. The top module is the one named "top",
// or the last module in the file.
func CheckSource(text string, seed int64, opts Options) *Report {
	opts = opts.withDefaults()
	rep := &Report{Seed: seed}

	src, err := verilog.Parse("conformance.v", text)
	if err != nil {
		rep.violate(0, CodeParse, "%v", err)
		return rep
	}
	if len(src.Modules) == 0 {
		rep.violate(0, CodeParse, "no modules")
		return rep
	}
	top := "top"
	if src.Module(top) == nil {
		top = src.Modules[len(src.Modules)-1].Name
	}
	rep.Top = top

	d, err := design.Analyze(src, top)
	if err != nil {
		rep.violate(0, CodeAnalyze, "%v", err)
		return rep
	}
	optRes, err := synth.Synthesize(src, top, synth.Options{})
	if err != nil {
		rep.violate(0, CodeSynth, "optimized: %v", err)
		return rep
	}
	refRes, err := synth.Synthesize(src, top, synth.Options{NoOptimize: true})
	if err != nil {
		rep.violate(0, CodeSynth, "unoptimized: %v", err)
		return rep
	}
	for _, nl := range []*netlist.Netlist{optRes.Netlist, refRes.Netlist} {
		if err := nl.Validate(); err != nil {
			rep.violate(0, CodeValidate, "%v", err)
			return rep
		}
	}
	rep.Gates = optRes.Netlist.NumGates()
	rep.DFFs = len(optRes.Netlist.DFFs)

	// I1: optimized vs unoptimized synthesis under binary stimulus.
	// The optimizer's rewrites are deliberately X-unsound (AND(x,~x)=0
	// and friends — see synth/opt.go), so the equivalence claim is over
	// binary values: flops reset to 0, inputs fully specified.
	if msg := cosimNetlists(optRes.Netlist, refRes.Netlist, opts.CosimCycles, seed, true); msg != "" {
		rep.violate(1, CodeCosim, "optimized vs unoptimized: %s", msg)
	}

	// Choose the MUT and extraction mode from the seed.
	var paths []string
	d.Root.Walk(func(n *design.InstanceNode) {
		if n.Path != "" {
			paths = append(paths, n.Path)
		}
	})
	if len(paths) == 0 {
		// Nothing to extract; the remaining invariants are vacuous.
		return rep
	}
	rng := rand.New(rand.NewSource(mixSeed(seed, 0x4d5554))) // "MUT"
	mutPath := paths[rng.Intn(len(paths))]
	mode := core.ModeFlat
	if seed&1 == 1 {
		mode = core.ModeComposed
	}
	rep.MUTPath, rep.Mode = mutPath, mode.String()

	ext := core.NewExtractor(d, mode)
	tr, err := core.Transform(ext, mutPath, optRes.Netlist, core.TransformOptions{})
	if err != nil {
		rep.violate(2, CodeTransform, "mut %s: %v", mutPath, err)
		return rep
	}
	if err := tr.Netlist.Validate(); err != nil {
		rep.violate(2, CodeValidate, "transformed netlist: %v", err)
		return rep
	}

	// I2: the transformed module vs the full design on the pins the
	// transformed module exposes, X power-up included — the extracted
	// environment must reproduce the chip-level behavior exactly.
	if msg := cosimTransformed(optRes.Netlist, tr.Netlist, opts.CosimCycles, seed); msg != "" {
		rep.violate(2, CodeCosim, "mut %s mode %s: %s", mutPath, mode, msg)
	}

	// I3 + I4 need an ATPG run over the MUT's faults.
	faults := fault.UniverseRestrictedTo(tr.Netlist, tr.MUTFaultFilter())
	if len(faults) == 0 {
		faults = fault.Universe(tr.Netlist)
	}
	if len(faults) == 0 {
		return rep
	}
	rep.Faults = len(faults)

	aopts := atpg.Options{
		RandomSequences: opts.RandomSequences,
		RandomSeqLen:    opts.RandomSeqLen,
		BacktrackLimit:  opts.BacktrackLimit,
		Seed:            mixSeed(seed, 0x41545047), // "ATPG"
		Workers:         1,
		CheckpointEvery: 2,
	}

	// Baseline single-worker run; capture the first checkpoint the
	// journal emits so the resume leg can restart from mid-run state.
	var snap *atpg.Checkpoint
	baseOpts := aopts
	baseOpts.Checkpoint = func(ck *atpg.Checkpoint) error {
		if snap == nil {
			snap = ck
		}
		return nil
	}
	base := atpg.New(tr.Netlist, baseOpts).Run(faults)
	rep.Detected = base.Result.NumDetected()
	rep.Tests = len(base.Tests)
	checkClasses(rep, "default", base)

	// I3: replay the exported suite on both engines from scratch.
	replayP := fault.NewResult(faults)
	replayE := fault.NewResult(faults)
	ps := fault.NewParallel(tr.Netlist)
	es := fault.NewEvent(tr.Netlist)
	for _, seq := range base.Tests {
		ps.RunSequence(replayP, seq)
		es.RunSequence(replayE, seq)
	}
	for i := range faults {
		if replayP.Detected[i] != replayE.Detected[i] {
			rep.violate(3, CodeEngines, "fault %v: packed=%v event=%v on exported suite",
				faults[i], replayP.Detected[i], replayE.Detected[i])
			break
		}
	}
	for i := range faults {
		if base.Result.Detected[i] && !replayP.Detected[i] {
			rep.violate(3, CodeReplay, "fault %v: ATPG reports detected but the exported suite does not re-detect it", faults[i])
			break
		}
	}

	// I4a: multi-worker run must be bit-identical to the baseline —
	// including the telemetry work counters (stats line in renderRun).
	// The legs get a no-op checkpoint callback so checkpointing is
	// enabled on all of them and JournaledTests is comparable.
	baseRender := renderRun(tr.Netlist, base)
	multiOpts := aopts
	multiOpts.Workers = 3
	multiOpts.Checkpoint = func(*atpg.Checkpoint) error { return nil }
	multi := atpg.New(tr.Netlist, multiOpts).Run(faults)
	if mr := renderRun(tr.Netlist, multi); mr != baseRender {
		rep.violate(4, CodeWorkers, "workers=3 result differs from workers=1:\n%s", firstDiff(baseRender, mr))
	}

	// I4b: a run resumed from the captured checkpoint, with yet another
	// worker count, must finish bit-identical too — again including the
	// work counters, which the checkpoint journals and restores.
	if snap != nil {
		resOpts := aopts
		resOpts.Workers = 2
		resOpts.Resume = snap
		resOpts.Checkpoint = func(*atpg.Checkpoint) error { return nil }
		resumed, err := atpg.New(tr.Netlist, resOpts).RunContext(nil, faults)
		if err != nil {
			rep.violate(4, CodeResume, "resume failed: %v", err)
		} else if rr := renderRun(tr.Netlist, resumed); rr != baseRender {
			rep.violate(4, CodeResume, "resumed result differs from baseline:\n%s", firstDiff(baseRender, rr))
		}
	}

	// I5a: SCOAP metrics over the compiled netlist are a pure function
	// of the structure — two computations must agree exactly.
	compiled := tr.Netlist.Compile()
	m1 := testability.Compute(compiled)
	m2 := testability.Compute(compiled)
	if !reflect.DeepEqual(m1, m2) {
		rep.violate(5, CodeScoap, "SCOAP metrics differ between two computations on the same netlist")
	}

	// I5b: the SCOAP guide only reorders PODEM's complete search, so
	// when no search aborts under either guide the per-fault
	// classification must be identical (the generated sequences may
	// differ). Aborts void the premise — an incomplete search's outcome
	// legitimately depends on visit order — so the check is gated.
	guidedOpts := aopts
	guidedOpts.Guide = atpg.GuideSCOAP
	guided := atpg.New(tr.Netlist, guidedOpts).Run(faults)
	checkClasses(rep, "scoap", guided)
	if base.AbortedNum == 0 && guided.AbortedNum == 0 {
		for i := range faults {
			if base.Result.Detected[i] != guided.Result.Detected[i] {
				rep.violate(5, CodeGuide, "fault %v: default detected=%v, scoap detected=%v with zero aborts",
					faults[i], base.Result.Detected[i], guided.Result.Detected[i])
				break
			}
		}
		if base.UntestableNum != guided.UntestableNum {
			rep.violate(5, CodeGuide, "untestable counts differ with zero aborts: default %d, scoap %d",
				base.UntestableNum, guided.UntestableNum)
		}
	}
	return rep
}

// checkClasses asserts that a completed run's fault classes partition
// its fault list: each fault is counted in exactly one class.
func checkClasses(rep *Report, guide string, rr *atpg.RunResult) {
	sum := rr.Result.NumDetected() + rr.UntestableNum + rr.AbortedNum + rr.NotAttempted + rr.QuarantinedNum
	if sum != rr.TotalFaults || rr.DetectedRandom+rr.DetectedDet != rr.Result.NumDetected() {
		rep.violate(3, CodeClasses, "guide %s: detected %d (%d random + %d deterministic) untestable %d aborted %d not attempted %d quarantined %d sum to %d of %d faults",
			guide, rr.Result.NumDetected(), rr.DetectedRandom, rr.DetectedDet, rr.UntestableNum, rr.AbortedNum,
			rr.NotAttempted, rr.QuarantinedNum, sum, rr.TotalFaults)
	}
}

// mixSeed derives an independent stream seed (splitmix64 finalizer).
func mixSeed(seed, stream int64) int64 {
	z := uint64(seed) + uint64(stream)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	v := int64(z ^ (z >> 31))
	if v == 0 {
		v = 1 // atpg treats seed 0 as "use default"
	}
	return v
}

// stimulus derives the 64-lane packed value for (pin name, cycle):
// keying by name rather than netlist pin index guarantees two netlists
// receive identical stimulus on identically named pins regardless of
// pin order.
func stimulus(seed int64, cycle int, name string) sim.Word {
	h := fnv.New64a()
	h.Write([]byte(name))
	z := uint64(mixSeed(seed, int64(h.Sum64()))) + uint64(cycle)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return sim.Word{Ones: z ^ (z >> 31)}
}

// wordsDiffer compares two packed values canonically and returns the
// first differing lane, or -1.
func wordsDiffer(a, b sim.Word) int {
	diff := ((a.Ones &^ a.Xs) ^ (b.Ones &^ b.Xs)) | (a.Xs ^ b.Xs)
	if diff == 0 {
		return -1
	}
	return bits.TrailingZeros64(diff)
}

// cosimNetlists co-simulates two netlists with identical interfaces
// under shared random binary stimulus and compares every output word
// for cycles clock cycles. With zeroReset both start from all-zero flop
// state (the binary-domain contract the optimizer is sound over);
// otherwise both power up X. Returns "" on agreement or a description
// of the first mismatch.
func cosimNetlists(a, b *netlist.Netlist, cycles int, seed int64, zeroReset bool) string {
	if len(a.PONames) != len(b.PONames) {
		return fmt.Sprintf("output count differs: %d vs %d", len(a.PONames), len(b.PONames))
	}
	for _, name := range a.PONames {
		if b.PO(name) < 0 {
			return fmt.Sprintf("output %q missing from second netlist", name)
		}
	}
	sa, sb := sim.New(a), sim.New(b)
	if zeroReset {
		sa.ResetToZero()
		sb.ResetToZero()
	}
	for cycle := 0; cycle < cycles; cycle++ {
		for i, pi := range a.PIs {
			sa.SetInput(pi, stimulus(seed, cycle, a.PINames[i]))
		}
		for i, pi := range b.PIs {
			sb.SetInput(pi, stimulus(seed, cycle, b.PINames[i]))
		}
		sa.Eval()
		sb.Eval()
		for i, po := range a.POs {
			name := a.PONames[i]
			va, vb := sa.Value(po), sb.Value(b.PO(name))
			if lane := wordsDiffer(va, vb); lane >= 0 {
				return fmt.Sprintf("cycle %d output %s lane %d: %v vs %v",
					cycle, name, lane, va.Lane(lane), vb.Lane(lane))
			}
		}
		sa.Step()
		sb.Step()
	}
	return ""
}

// cosimTransformed drives the full design and the transformed module
// with identical stimulus on the shared pins and verifies every pin the
// transformed module exposes matches the full design cycle by cycle,
// X power-up included (the packed analogue of the flow's scalar
// co-simulation oracle).
func cosimTransformed(full, tr *netlist.Netlist, cycles int, seed int64) string {
	for _, name := range tr.PINames {
		if full.PI(name) < 0 {
			return fmt.Sprintf("transformed PI %q is not a chip pin", name)
		}
	}
	for _, name := range tr.PONames {
		if full.PO(name) < 0 {
			return fmt.Sprintf("transformed PO %q is not a chip pin", name)
		}
	}
	sFull, sTr := sim.New(full), sim.New(tr)
	for cycle := 0; cycle < cycles; cycle++ {
		for i, pi := range full.PIs {
			sFull.SetInput(pi, stimulus(seed, cycle, full.PINames[i]))
		}
		for i, pi := range tr.PIs {
			sTr.SetInput(pi, stimulus(seed, cycle, tr.PINames[i]))
		}
		sFull.Eval()
		sTr.Eval()
		for i, po := range tr.POs {
			name := tr.PONames[i]
			want, got := sFull.Value(full.PO(name)), sTr.Value(po)
			if lane := wordsDiffer(want, got); lane >= 0 {
				return fmt.Sprintf("cycle %d output %s lane %d: transformed %v, full design %v",
					cycle, name, lane, got.Lane(lane), want.Lane(lane))
			}
		}
		sFull.Step()
		sTr.Step()
	}
	return ""
}

// renderRun canonicalizes an ATPG result for bit-identity comparison:
// counts, the deterministic work counters, the detected bitmap, and
// every exported test rendered over the netlist's canonical PI order.
// Timing fields are excluded.
func renderRun(nl *netlist.Netlist, rr *atpg.RunResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "faults=%d detected=%d random=%d det=%d untestable=%d aborted=%d notattempted=%d quarantined=%d tests=%d\n",
		rr.TotalFaults, rr.Result.NumDetected(), rr.DetectedRandom, rr.DetectedDet,
		rr.UntestableNum, rr.AbortedNum, rr.NotAttempted, rr.QuarantinedNum, len(rr.Tests))
	s := rr.Stats
	fmt.Fprintf(&b, "stats searches=%d decisions=%d backtracks=%d randomseqs=%d journaled=%d sim.batches=%d sim.cycles=%d sim.events=%d sim.heals=%d sim.tracecycles=%d\n",
		s.Searches, s.Decisions, s.Backtracks, s.RandomSequences, s.JournaledTests,
		s.Sim.Batches, s.Sim.Cycles, s.Sim.Events, s.Sim.FlopHeals, s.Sim.TraceCycles)
	b.WriteString("detected=")
	for _, det := range rr.Result.Detected {
		if det {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	b.WriteByte('\n')
	for ti, seq := range rr.Tests {
		fmt.Fprintf(&b, "test %d:", ti)
		for _, vec := range seq {
			b.WriteByte(' ')
			for _, name := range nl.PINames {
				if v, ok := vec[name]; ok {
					b.WriteString(v.String())
				} else {
					b.WriteByte('-')
				}
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// firstDiff returns the first line where two renders diverge.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d: %q vs %q", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("length %d vs %d lines", len(la), len(lb))
}
