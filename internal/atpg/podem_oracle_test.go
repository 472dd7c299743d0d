package atpg

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"factor/internal/designgen"
	"factor/internal/fault"
	"factor/internal/netlist"
	"factor/internal/sim"
	"factor/internal/synth"
	"factor/internal/verilog"
)

// The differential oracle for the incremental implication engine: the
// full-resimulation search PODEM ran before implication became
// incremental. oracleSimulate recomputes both machines over every gate
// of every frame from the PI assignments, oracleDFrontier rescans every
// gate of every frame, and oracleRun is the search loop over them. The
// incremental engine must reach the same line values, the same ordered
// D-frontier and the same decision stack at every search iteration.

// oracleSimulate recomputes both machines over all frames from p's
// current PI assignments into good and bad.
func oracleSimulate(p *podem, good, bad []sim.Logic) {
	var inBuf, badBuf [3]sim.Logic
	for t := 0; t < p.frames; t++ {
		for _, id := range p.nl.TopoOrder() {
			g := p.nl.Gates[id]
			var gv, bv sim.Logic
			switch g.Kind {
			case netlist.Input:
				gv = p.assigned[t*p.ng+id]
				bv = gv
			case netlist.Const0:
				gv, bv = sim.L0, sim.L0
			case netlist.Const1:
				gv, bv = sim.L1, sim.L1
			case netlist.DFF:
				if t == 0 {
					gv, bv = sim.LX, sim.LX
				} else {
					d := (t-1)*p.ng + g.Fanin[0]
					gv, bv = good[d], bad[d]
					if p.flt.Gate == id && p.flt.Pin == 0 {
						bv = p.stuck
					}
				}
			default:
				in := inBuf[:len(g.Fanin)]
				bin := badBuf[:len(g.Fanin)]
				for i, f := range g.Fanin {
					in[i] = good[t*p.ng+f]
					bin[i] = bad[t*p.ng+f]
				}
				if p.flt.Gate == id && p.flt.Pin >= 0 {
					bin[p.flt.Pin] = p.stuck
				}
				gv = sim.EvalGateL(g.Kind, in)
				bv = sim.EvalGateL(g.Kind, bin)
			}
			if p.flt.Gate == id && p.flt.Pin < 0 {
				bv = p.stuck
			}
			good[t*p.ng+id] = gv
			bad[t*p.ng+id] = bv
		}
	}
}

// oraclePin is the composite value one input pin of gate sees in frame
// t of (good, bad), with the fault injected on the faulted pin.
func oraclePin(p *podem, good, bad []sim.Logic, t, gate, pin int) comp {
	drv := t*p.ng + p.nl.Gates[gate].Fanin[pin]
	gv, bv := good[drv], bad[drv]
	if p.flt.Gate == gate && p.flt.Pin == pin {
		bv = p.stuck
	}
	return compOf[int(gv)*3+int(bv)]
}

// oracleDFrontier scans every gate of every frame for combinational
// gates with a D/D' input pin and an X output.
func oracleDFrontier(p *podem, good, bad []sim.Logic) []line {
	var out []line
	for t := 0; t < p.frames; t++ {
		for _, id := range p.nl.TopoOrder() {
			g := p.nl.Gates[id]
			if !g.Kind.Combinational() {
				continue
			}
			if compOf[int(good[t*p.ng+id])*3+int(bad[t*p.ng+id])] != cX {
				continue
			}
			for pin := range g.Fanin {
				if v := oraclePin(p, good, bad, t, id, pin); v == cD || v == cDbar {
					out = append(out, line{t, id})
					break
				}
			}
		}
	}
	return out
}

// oracleDetected reports whether any PO shows D/D' in any frame.
func oracleDetected(p *podem, good, bad []sim.Logic) bool {
	for t := 0; t < p.frames; t++ {
		for _, po := range p.nl.POs {
			if v := compOf[int(good[t*p.ng+po])*3+int(bad[t*p.ng+po])]; v == cD || v == cDbar {
				return true
			}
		}
	}
	return false
}

// stackEntry is the observable part of one decision.
type stackEntry struct {
	l       line
	val     sim.Logic
	flipped bool
}

func stackOf(p *podem) []stackEntry {
	out := make([]stackEntry, len(p.stack))
	for i, d := range p.stack {
		out[i] = stackEntry{d.l, d.val, d.flipped}
	}
	return out
}

// searchTrace is one search's observable history.
type searchTrace struct {
	stacks     [][]stackEntry // decision stack at the top of every iteration
	seq        fault.Sequence
	status     Status
	decisions  int
	backtracks int
}

// oracleRun is the full-resimulation search loop over a podem prepared
// by reset: the same objectives, backtrace and stack discipline, with
// every iteration re-simulating both machines from scratch.
func oracleRun(p *podem) searchTrace {
	var tr searchTrace
	for {
		oracleSimulate(p, p.good, p.bad)
		tr.stacks = append(tr.stacks, stackOf(p))
		if oracleDetected(p, p.good, p.bad) {
			tr.seq, tr.status = p.extractSequence(), Detected
			break
		}
		var objs []objective
		if !p.excited() {
			objs = p.excitationObjectives()
		} else {
			objs = p.propagationObjectives(oracleDFrontier(p, p.good, p.bad))
		}
		advanced := false
		for _, obj := range objs {
			if pi, pv, ok := p.backtrace(obj.l, obj.val); ok {
				p.stack = append(p.stack, decision{l: pi, val: pv})
				p.decisions++
				p.assigned[pi.t*p.ng+pi.g] = pv
				advanced = true
				break
			}
		}
		if advanced {
			continue
		}
		p.backtracks++
		if p.backtracks > p.limit {
			tr.status = Aborted
			break
		}
		exhausted := true
		for len(p.stack) > 0 {
			top := &p.stack[len(p.stack)-1]
			if !top.flipped {
				top.flipped = true
				top.val = sim.NotL(top.val)
				p.assigned[top.l.t*p.ng+top.l.g] = top.val
				exhausted = false
				break
			}
			p.assigned[top.l.t*p.ng+top.l.g] = sim.LX
			p.stack = p.stack[:len(p.stack)-1]
		}
		if exhausted {
			tr.status = Untestable
			break
		}
	}
	tr.decisions, tr.backtracks = p.decisions, p.backtracks
	return tr
}

// checkIncremental runs fault f at the given frame count through the
// incremental engine and the oracle and fails on the first divergence:
// line values, ordered D-frontier or detection at any iteration, the
// decision-stack history, or the final outcome. p and q are e's search
// buffers for the incremental and the oracle run; callers reuse them
// across faults and frame counts, as the workers do.
func checkIncremental(t *testing.T, e *Engine, p, q *podem, f fault.Fault, frames int) {
	t.Helper()
	n := frames * p.ng
	og, ob := make([]sim.Logic, n), make([]sim.Logic, n)
	var got searchTrace
	var failure string
	podemIterHook = func(p *podem) {
		if failure != "" {
			return
		}
		oracleSimulate(p, og, ob)
		for i := 0; i < n; i++ {
			if p.good[i] != og[i] || p.bad[i] != ob[i] {
				failure = fmt.Sprintf("iteration %d: line (frame %d, gate %d): incremental good/bad %v/%v, oracle %v/%v",
					len(got.stacks), i/p.ng, i%p.ng, p.good[i], p.bad[i], og[i], ob[i])
				return
			}
		}
		if want, have := oracleDFrontier(p, og, ob), p.frontier(); !linesEqual(want, have) {
			failure = fmt.Sprintf("iteration %d: D-frontier %v, oracle %v", len(got.stacks), have, want)
			return
		}
		if want := oracleDetected(p, og, ob); want != p.detected() {
			failure = fmt.Sprintf("iteration %d: detected %v, oracle %v", len(got.stacks), p.detected(), want)
			return
		}
		got.stacks = append(got.stacks, stackOf(p))
	}
	defer func() { podemIterHook = nil }()
	p.reset(f, frames, e.opts.BacktrackLimit, time.Time{})
	got.seq, got.status = p.run()
	got.decisions, got.backtracks = p.decisions, p.backtracks
	podemIterHook = nil
	if failure != "" {
		t.Fatalf("fault %v, %d frames: %s", f, frames, failure)
	}

	q.reset(f, frames, e.opts.BacktrackLimit, time.Time{})
	want := oracleRun(q)
	if !reflect.DeepEqual(got.stacks, want.stacks) {
		t.Fatalf("fault %v, %d frames: decision-stack history diverges (%d vs oracle %d iterations)",
			f, frames, len(got.stacks), len(want.stacks))
	}
	if got.status != want.status || got.decisions != want.decisions || got.backtracks != want.backtracks ||
		!reflect.DeepEqual(got.seq, want.seq) {
		t.Fatalf("fault %v, %d frames: outcome %v/%d decisions/%d backtracks/%v, oracle %v/%d/%d/%v",
			f, frames, got.status, got.decisions, got.backtracks, got.seq,
			want.status, want.decisions, want.backtracks, want.seq)
	}
}

func linesEqual(a, b []line) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// oracleFaults picks up to n faults of nl (stride-sampled from the
// universe, offset by pick) and adds a pin fault on every pin of one
// mux and on the D pin of one flip-flop, the injection cases that
// differ most between the two engines.
func oracleFaults(nl *netlist.Netlist, pick, n int) []fault.Fault {
	all := fault.Universe(nl)
	var out []fault.Fault
	if len(all) > 0 {
		stride := len(all)/n + 1
		for i := pick % stride; i < len(all); i += stride {
			out = append(out, all[i])
		}
	}
	muxDone, dffDone := false, false
	for _, g := range nl.Gates {
		switch {
		case g.Kind == netlist.Mux && !muxDone:
			muxDone = true
			for pin := range g.Fanin {
				for _, sa1 := range []bool{false, true} {
					out = append(out, fault.Fault{Site: fault.Site{Gate: g.ID, Pin: pin}, SAOne: sa1})
				}
			}
		case g.Kind == netlist.DFF && !dffDone:
			dffDone = true
			for _, sa1 := range []bool{false, true} {
				out = append(out, fault.Fault{Site: fault.Site{Gate: g.ID, Pin: 0}, SAOne: sa1})
			}
		}
	}
	return out
}

// designgenNetlist synthesizes the seeded designgen design.
func designgenNetlist(tb testing.TB, seed int64) *netlist.Netlist {
	tb.Helper()
	src, err := verilog.Parse("design.v", designgen.Generate(seed, designgen.DefaultConfig()).Text())
	if err != nil {
		tb.Fatalf("seed %d: parse: %v", seed, err)
	}
	res, err := synth.Synthesize(src, "top", synth.Options{})
	if err != nil {
		tb.Fatalf("seed %d: synth: %v", seed, err)
	}
	return res.Netlist
}

// FuzzPODEMIncremental checks the incremental implication engine
// against the full-resimulation oracle on designgen netlists: sampled
// faults plus mux and flip-flop D-pin faults, every frame count up to
// the fuzzed bound, at a fuzzed backtrack limit.
func FuzzPODEMIncremental(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(3), uint8(8))
	f.Add(int64(15), uint16(7), uint8(2), uint8(32))
	f.Add(int64(34), uint16(3), uint8(4), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, pick uint16, frames, limit uint8) {
		nl := designgenNetlist(t, seed)
		maxFrames := 1 + int(frames)%4
		e := New(nl, Options{MaxFrames: maxFrames, BacktrackLimit: 1 + int(limit)%64})
		p, q := e.searcher(), e.searcher()
		for _, flt := range oracleFaults(nl, int(pick), 24) {
			for fr := 1; fr <= maxFrames; fr++ {
				checkIncremental(t, e, p, q, flt, fr)
			}
		}
	})
}

// TestPODEMIncrementalMatchesOracle runs the differential check on
// random sequential circuits, whose reconvergent and feedback structure
// the designgen corpus exercises less.
func TestPODEMIncrementalMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for ci := 0; ci < 12; ci++ {
		nl := randomSeqCircuit(rng, 1+rng.Intn(5), 10+rng.Intn(80))
		e := New(nl, Options{MaxFrames: 4, BacktrackLimit: 1 + rng.Intn(40)})
		p, q := e.searcher(), e.searcher()
		for _, flt := range oracleFaults(nl, ci, 24) {
			for fr := 1; fr <= 4; fr++ {
				checkIncremental(t, e, p, q, flt, fr)
			}
		}
	}
}
