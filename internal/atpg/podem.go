// Package atpg implements a gate-level sequential ATPG engine in the
// mold of the commercial tools the FACTOR paper drives: a PODEM-based
// deterministic test generator over a time-frame-expanded circuit
// model, preceded by a random-pattern phase, with fault-dropping
// simulation between deterministic tests.
//
// The sequential model assumes unknown (X) power-up state: frame-0
// flip-flop outputs are X and cannot be assigned, so every test
// sequence must justify state through the primary inputs — exactly the
// discipline that makes deeply embedded modules expensive to test and
// that FACTOR's transformed modules (with PIERs) relieve.
//
// The backtrace cost model is pluggable (Options.Guide): the default
// is a fast distance-based estimate; GuideSCOAP substitutes the SCOAP
// testability metrics from internal/testability, which account for
// side-input sensitization. Either guide only re-ranks the complete
// search — with no aborted searches the per-fault classification is
// identical — and both preserve the engine's determinism contract
// (bit-identical results for any worker count and across
// checkpoint/resume; the guide is part of the checkpoint fingerprint).
package atpg

import (
	"slices"
	"time"

	"factor/internal/fault"
	"factor/internal/netlist"
	"factor/internal/sim"
)

// Status classifies the outcome of deterministic test generation for
// one fault.
type Status int

// Test generation outcomes.
const (
	// Detected: a test sequence was found.
	Detected Status = iota
	// Untestable: the search space was exhausted within the time-frame
	// budget without finding a test (redundant or sequentially
	// untestable within the budget).
	Untestable
	// Aborted: the backtrack or time limit was hit.
	Aborted
)

func (s Status) String() string {
	switch s {
	case Detected:
		return "detected"
	case Untestable:
		return "untestable"
	case Aborted:
		return "aborted"
	}
	return "unknown"
}

const costInf = 1 << 28

// podem is one worker's deterministic search state. A single podem is
// reused across faults and time-frame escalations (reset), so the
// steady-state search allocates nothing.
//
// Implication is incremental (DESIGN.md §17): both machines start from
// the Engine's shared all-X good trace, the faulty machine is seeded by
// event-propagating the stuck value from the fault site, and every
// decision or flip propagates from the changed primary input only,
// level by level and across frames at flip-flop edges. Every
// overwritten value goes on an undo trail, so a backtrack restores the
// previous state without re-simulating. The D-frontier and the
// PO-detection test are kept in step with the changed lines.
type podem struct {
	nl     *netlist.Netlist
	c      *netlist.Compiled
	ng     int
	flt    fault.Fault
	stuck  sim.Logic
	frames int

	// good and bad are the two three-valued machines; assigned holds
	// the PI decisions (L0/L1 when decided, LX otherwise; only PI
	// slots are used). flags carries the derived per-line state
	// (flagFrontier, flagDetect). All four are indexed [t*ng+gate].
	good, bad []sim.Logic
	assigned  []sim.Logic
	flags     []uint8

	base     []sim.Logic // shared read-only all-X good trace
	cc0, cc1 []int       // static 0/1-controllability per gate
	obsDist  []int       // static distance-to-observation per gate

	backtracks int
	decisions  int // PI assignments pushed on the decision stack
	limit      int
	deadline   time.Time

	stack []decision
	trail []change
	dirty []int32 // lines whose derived state may be stale
	// siteDrv is the gate driving the faulted pin (-1 for an output
	// fault): its good value alone decides whether the pin carries D.
	siteDrv int

	// Event queue: one segment of qbuf per combinational level (offsets
	// from Compiled.LevelStart), next holds DFF readers for the
	// following frame, and qstamp dedupes queued gates per frame.
	qbuf   []int32
	qlen   []int32
	maxLvl int
	next   []int32
	qstamp []uint32
	epoch  uint32

	// front holds the D-frontier as keys t*ng+Pos[gate], unordered and
	// possibly stale or duplicated; frontier() sorts and compacts it
	// against flagFrontier. nDetect counts the PO lines showing D/D'.
	front    []int32
	frontBuf []line
	nDetect  int

	seen      []uint32 // xPathExists visit stamps, per line
	seenEpoch uint32
	xstack    []line

	cands []cand
	objs  []objective
}

// change is one undo-trail entry: the values line idx held before an
// implication overwrote them.
type change struct {
	idx       int32
	good, bad sim.Logic
}

// Derived per-line state kept in step with the line values.
const (
	flagFrontier uint8 = 1 << iota // on the D-frontier
	flagDetect                     // a PO line showing D or D'
)

// newPodem allocates search buffers for up to maxFrames time frames
// over the shared per-netlist statics. base is the Engine's all-X good
// trace (at least maxFrames frames); the statics and base are
// read-only, so concurrent searches on different goroutines share them
// safely.
func newPodem(nl *netlist.Netlist, st *statics, base []sim.Logic, maxFrames int) *podem {
	c := st.c
	n := maxFrames * c.NumGates
	p := &podem{
		nl: nl, c: c, ng: c.NumGates, base: base,
		cc0: st.cc0, cc1: st.cc1, obsDist: st.obs,
		good:     make([]sim.Logic, n),
		bad:      make([]sim.Logic, n),
		assigned: make([]sim.Logic, n),
		flags:    make([]uint8, n),
		seen:     make([]uint32, n),
		qbuf:     make([]int32, c.NumGates),
		qlen:     make([]int32, c.NumLevels),
		qstamp:   make([]uint32, c.NumGates),
		maxLvl:   -1,
	}
	for i := range p.assigned {
		p.assigned[i] = sim.LX
	}
	return p
}

// allXTrace computes the good machine over frames time frames with no
// primary input assigned. It depends only on the netlist, and frame t
// depends only on frames <= t, so one trace over MaxFrames frames
// serves every search at every frame count.
func allXTrace(nl *netlist.Netlist, st *statics, frames int) []sim.Logic {
	p := newPodem(nl, st, nil, frames)
	p.flt = fault.Fault{Site: fault.Site{Gate: -1, Pin: -1}}
	p.frames = frames
	for t := 0; t < frames; t++ {
		for _, g := range p.c.Order {
			gv, _ := p.eval(t, int(g))
			p.good[t*p.ng+int(g)], p.bad[t*p.ng+int(g)] = gv, gv
		}
	}
	return p.good
}

// reset starts a search for fault f over the given number of frames:
// it restores the all-X state, seeds the faulty machine from the fault
// site and rebuilds the derived line state from the seeded lines.
func (p *podem) reset(f fault.Fault, frames, limit int, deadline time.Time) {
	for _, d := range p.stack {
		p.assigned[d.l.t*p.ng+d.l.g] = sim.LX
	}
	p.stack = p.stack[:0]
	p.flt, p.frames, p.limit, p.deadline = f, frames, limit, deadline
	p.stuck = sim.L0
	if f.SAOne {
		p.stuck = sim.L1
	}
	p.siteDrv = -1
	if f.Pin >= 0 {
		p.siteDrv = int(p.c.Fanins(f.Gate)[f.Pin])
	}
	p.backtracks, p.decisions = 0, 0
	n := frames * p.ng
	copy(p.good[:n], p.base[:n])
	copy(p.bad[:n], p.base[:n])
	clear(p.flags[:n])
	p.front = p.front[:0]
	p.nDetect = 0
	p.trail = p.trail[:0]
	p.dirty = p.dirty[:0]
	// A search that panicked mid-implication may have left events
	// queued.
	clear(p.qlen)
	p.maxLvl = -1
	p.next = p.next[:0]
	p.nextEpoch()

	p.imply(0, true)
	for t := 0; t < frames; t++ {
		// A pin fault makes its gate a frontier candidate without
		// changing any line value.
		p.dirty = append(p.dirty, int32(t*p.ng+f.Gate))
	}
	p.flush()
	p.trail = p.trail[:0]
}

// eval computes one line of both machines from the current values of
// its fanins (the previous frame's D input for a flip-flop), injecting
// the fault on the faulty machine.
func (p *podem) eval(t, g int) (gv, bv sim.Logic) {
	c := p.c
	base := t * p.ng
	fs := c.FaninStart[g]
	fl := c.FaninList
	faulted := g == p.flt.Gate
	switch k := netlist.GateKind(c.Kind[g]); k {
	case netlist.Input:
		gv = p.assigned[base+g]
		bv = gv
	case netlist.Const0:
		gv, bv = sim.L0, sim.L0
	case netlist.Const1:
		gv, bv = sim.L1, sim.L1
	case netlist.DFF:
		if t == 0 {
			gv, bv = sim.LX, sim.LX
		} else {
			d := base - p.ng + int(fl[fs])
			gv, bv = p.good[d], p.bad[d]
			if faulted && p.flt.Pin == 0 {
				bv = p.stuck
			}
		}
	case netlist.Mux:
		s, d0, d1 := base+int(fl[fs]), base+int(fl[fs+1]), base+int(fl[fs+2])
		gv = sim.MuxL(p.good[s], p.good[d0], p.good[d1])
		bs, b0, b1 := p.bad[s], p.bad[d0], p.bad[d1]
		if faulted {
			switch p.flt.Pin {
			case 0:
				bs = p.stuck
			case 1:
				b0 = p.stuck
			case 2:
				b1 = p.stuck
			}
		}
		bv = sim.MuxL(bs, b0, b1)
	case netlist.Buf, netlist.Not:
		a := base + int(fl[fs])
		gv = sim.Tab1[k][p.good[a]]
		ba := p.bad[a]
		if faulted && p.flt.Pin == 0 {
			ba = p.stuck
		}
		bv = sim.Tab1[k][ba]
	default:
		a, b := base+int(fl[fs]), base+int(fl[fs+1])
		gv = sim.Tab2[k][int(p.good[a])*3+int(p.good[b])]
		ba, bb := p.bad[a], p.bad[b]
		if faulted {
			switch p.flt.Pin {
			case 0:
				ba = p.stuck
			case 1:
				bb = p.stuck
			}
		}
		bv = sim.Tab2[k][int(ba)*3+int(bb)]
	}
	if faulted && p.flt.Pin < 0 {
		bv = p.stuck
	}
	return gv, bv
}

// push queues gate g for evaluation in the frame being propagated.
func (p *podem) push(g int32) {
	if p.qstamp[g] == p.epoch {
		return
	}
	p.qstamp[g] = p.epoch
	p.place(g)
}

// place appends g to its level's segment of the queue.
func (p *podem) place(g int32) {
	lvl := p.c.Level[g]
	p.qbuf[p.c.LevelStart[lvl]+p.qlen[lvl]] = g
	p.qlen[lvl]++
	if int(lvl) > p.maxLvl {
		p.maxLvl = int(lvl)
	}
}

// imply propagates queued events from frame t to quiescence, frame by
// frame and level by level, so every line is evaluated at most once per
// frame, after all its fanins have settled. Changed flip-flop D inputs
// queue the flip-flop in the next frame. With seed set, the fault gate
// is also evaluated in every frame (faulty-machine seeding).
func (p *podem) imply(t int, seed bool) {
	for ; t < p.frames; t++ {
		if seed {
			p.push(int32(p.flt.Gate))
		}
		for lvl := 0; lvl <= p.maxLvl; lvl++ {
			seg := p.qbuf[p.c.LevelStart[lvl]:]
			for i := int32(0); i < p.qlen[lvl]; i++ {
				p.evalLine(t, seg[i])
			}
			p.qlen[lvl] = 0
		}
		p.maxLvl = -1
		p.nextEpoch()
		if len(p.next) == 0 && !seed {
			return
		}
		// The next frame's flip-flops were stamped with the new epoch
		// when queued, so they are placed without another check.
		for _, g := range p.next {
			p.place(g)
		}
		p.next = p.next[:0]
	}
}

// nextEpoch advances the queue stamp, clearing the stamps on the rare
// wrap-around so a stale stamp can never suppress an event.
func (p *podem) nextEpoch() {
	p.epoch++
	if p.epoch == ^uint32(0) {
		clear(p.qstamp)
		p.epoch = 1
	}
}

// evalLine re-evaluates line (t, g); on a change it records the old
// values on the trail and queues the readers: combinational ones in
// this frame, flip-flops in the next.
func (p *podem) evalLine(t int, g int32) {
	gv, bv := p.eval(t, int(g))
	idx := t*p.ng + int(g)
	if gv == p.good[idx] && bv == p.bad[idx] {
		return
	}
	p.trail = append(p.trail, change{idx: int32(idx), good: p.good[idx], bad: p.bad[idx]})
	p.note(t, int(g), idx, gv, bv)
	c := p.c
	for _, r := range c.FanoutRefs[c.FanoutStart[g]:c.FanoutStart[g+1]] {
		if r.Level >= 0 {
			p.push(r.ID)
			continue
		}
		if t+1 < p.frames && p.qstamp[r.ID] != p.epoch+1 {
			p.qstamp[r.ID] = p.epoch + 1
			p.next = append(p.next, r.ID)
		}
	}
}

// note writes (gv, bv) to line idx = (t, g) and queues the lines whose
// derived state the write can change. A line's own flags read only
// whether it is X and whether it carries D/D'; its readers' frontier
// membership reads only whether it carries D/D' — except the faulted
// pin, whose view is (driver's good value, stuck value).
func (p *podem) note(t, g, idx int, gv, bv sim.Logic) {
	og := p.good[idx]
	co := compOf[int(og)*3+int(p.bad[idx])]
	cn := compOf[int(gv)*3+int(bv)]
	p.good[idx], p.bad[idx] = gv, bv
	if co != cn {
		dOld, dNew := co >= cD, cn >= cD
		if (co == cX) != (cn == cX) || dOld != dNew {
			p.dirty = append(p.dirty, int32(idx))
		}
		if dOld != dNew {
			c := p.c
			for _, r := range c.FanoutRefs[c.FanoutStart[g]:c.FanoutStart[g+1]] {
				if r.Level >= 0 {
					p.dirty = append(p.dirty, int32(t*p.ng)+r.ID)
				}
			}
		}
	}
	if g == p.siteDrv && og != gv {
		p.dirty = append(p.dirty, int32(t*p.ng+p.flt.Gate))
	}
}

// flush rechecks the queued lines once all values have settled.
func (p *podem) flush() {
	for _, idx := range p.dirty {
		p.recheck(int(idx)/p.ng, int(idx)%p.ng)
	}
	p.dirty = p.dirty[:0]
}

// assign decides primary input l.g in frame l.t and implies it.
func (p *podem) assign(l line, v sim.Logic) {
	p.assigned[l.t*p.ng+l.g] = v
	p.nextEpoch()
	p.push(int32(l.g))
	p.imply(l.t, false)
	p.flush()
}

// undo restores every line changed since trail position mark.
func (p *podem) undo(mark int) {
	for i := len(p.trail) - 1; i >= mark; i-- {
		ch := p.trail[i]
		idx := int(ch.idx)
		p.note(idx/p.ng, idx%p.ng, idx, ch.good, ch.bad)
	}
	p.flush()
	p.trail = p.trail[:mark]
}

// recheck recomputes the derived state of line (t, g) from the current
// values: PO detection (D/D' on a PO line) and D-frontier membership (a
// combinational gate with composite X output and a D/D' input pin).
func (p *podem) recheck(t, g int) {
	idx := t*p.ng + g
	old := p.flags[idx]
	nf := uint8(0)
	cv := compOf[int(p.good[idx])*3+int(p.bad[idx])]
	if (cv == cD || cv == cDbar) && p.c.IsPO[g] {
		nf |= flagDetect
	}
	if cv == cX && netlist.GateKind(p.c.Kind[g]).Combinational() {
		for pin := range p.c.Fanins(g) {
			if v := p.pinValue(t, g, pin); v == cD || v == cDbar {
				nf |= flagFrontier
				break
			}
		}
	}
	if nf == old {
		return
	}
	if (nf^old)&flagDetect != 0 {
		if nf&flagDetect != 0 {
			p.nDetect++
		} else {
			p.nDetect--
		}
	}
	if nf&flagFrontier != 0 && old&flagFrontier == 0 {
		p.front = append(p.front, int32(t*p.ng)+p.c.Pos[g])
	}
	p.flags[idx] = nf
}

// composite five-valued view of a line.
type comp int8

const (
	c0 comp = iota
	c1
	cX
	cD    // good 1, faulty 0
	cDbar // good 0, faulty 1
)

// compOf maps (good, faulty) to the composite value, indexed
// good*3+faulty. A line with either machine X is cX: the search keeps
// the two machines separate and reads (good 1, faulty X) and the like
// through the raw planes where it matters.
var compOf = [9]comp{
	c0, cDbar, cX, // good 0
	cD, c1, cX, // good 1
	cX, cX, cX, // good X
}

func (p *podem) value(t, g int) comp {
	idx := t*p.ng + g
	return compOf[int(p.good[idx])*3+int(p.bad[idx])]
}

// detected reports whether any PO shows D/D' in any frame.
func (p *podem) detected() bool { return p.nDetect > 0 }

// line is a (frame, gate) pair in the unrolled model.
type line struct {
	t, g int
}

// excited reports whether the fault site is activated in some frame
// (good site value differs from the stuck value). For pin faults the
// site line is the driving gate of that pin.
func (p *podem) excited() bool {
	site := p.siteGate()
	want := sim.NotL(p.stuck)
	for t := 0; t < p.frames; t++ {
		if p.good[t*p.ng+site] == want {
			return true
		}
	}
	return false
}

func (p *podem) siteGate() int {
	if p.flt.Pin < 0 {
		return p.flt.Gate
	}
	return p.nl.Gates[p.flt.Gate].Fanin[p.flt.Pin]
}

// objective is one candidate value objective.
type objective struct {
	l   line
	val sim.Logic
}

// cand is a propagation objective with its observation cost.
type cand struct {
	obj  objective
	cost int
}

// excitationObjectives lists the frames in which the site could still
// be activated (good value X). Later frames are easier to justify from
// unknown initial state, so they come first.
func (p *podem) excitationObjectives() []objective {
	site := p.siteGate()
	want := sim.NotL(p.stuck)
	out := p.objs[:0]
	for t := p.frames - 1; t >= 0; t-- {
		if p.good[t*p.ng+site] == sim.LX {
			out = append(out, objective{l: line{t, site}, val: want})
		}
	}
	p.objs = out
	return out
}

// pinValue returns the composite value seen on one input pin of a
// gate, accounting for the fault injection on the faulted pin (where
// the faulty machine sees the stuck value regardless of the driver).
func (p *podem) pinValue(t, gate, pin int) comp {
	idx := t*p.ng + int(p.c.FaninList[int(p.c.FaninStart[gate])+pin])
	gv, bv := p.good[idx], p.bad[idx]
	if p.flt.Gate == gate && p.flt.Pin == pin {
		bv = p.stuck
	}
	return compOf[int(gv)*3+int(bv)]
}

// frontier returns the D-frontier — combinational gates with a D/D'
// input pin and an X output — in (frame ascending, topological
// position) order, the order the propagation objectives tie-break by.
// Input-pin faults surface here through pinValue: once the faulted
// pin's good value opposes the stuck value, the faulted gate itself
// joins the frontier.
func (p *podem) frontier() []line {
	slices.Sort(p.front)
	out := p.frontBuf[:0]
	w := 0
	prev := int32(-1)
	for _, k := range p.front {
		if k == prev {
			continue
		}
		prev = k
		t, g := int(k)/p.ng, int(p.c.Order[int(k)%p.ng])
		if p.flags[t*p.ng+g]&flagFrontier == 0 {
			continue
		}
		p.front[w] = k
		w++
		out = append(out, line{t, g})
	}
	p.front = p.front[:w]
	p.frontBuf = out
	return out
}

// xPathExists checks whether any X-valued path leads from l to a PO,
// crossing frames through flip-flops.
func (p *podem) xPathExists(l line) bool {
	p.seenEpoch++
	if p.seenEpoch == 0 {
		clear(p.seen)
		p.seenEpoch = 1
	}
	c := p.c
	stack := append(p.xstack[:0], l)
	found := false
	for len(stack) > 0 && !found {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		idx := cur.t*p.ng + cur.g
		if p.seen[idx] == p.seenEpoch {
			continue
		}
		p.seen[idx] = p.seenEpoch
		if c.IsPO[cur.g] {
			found = true
			break
		}
		for _, r := range c.FanoutRefs[c.FanoutStart[cur.g]:c.FanoutStart[cur.g+1]] {
			fo := int(r.ID)
			if r.Level < 0 {
				if cur.t+1 < p.frames && p.value(cur.t+1, fo) == cX {
					stack = append(stack, line{cur.t + 1, fo})
				}
				continue
			}
			if p.value(cur.t, fo) == cX {
				stack = append(stack, line{cur.t, fo})
			}
		}
	}
	p.xstack = stack[:0]
	return found
}

// objectives lists candidate value objectives, PODEM-style, best
// first. The search tries them in order until one backtraces to an
// assignable primary input.
func (p *podem) objectives() []objective {
	if !p.excited() {
		return p.excitationObjectives()
	}
	return p.propagationObjectives(p.frontier())
}

// propagationObjectives turns the ordered D-frontier into propagation
// objectives, stable-sorted by the frontier gate's observation cost.
func (p *podem) propagationObjectives(frontier []line) []objective {
	cands := p.cands[:0]
	for _, fl := range frontier {
		if !p.xPathExists(fl) {
			continue
		}
		g := p.nl.Gates[fl.g]
		tgt, val, ok := p.propagationInput(fl, g)
		if !ok {
			continue
		}
		cands = append(cands, cand{obj: objective{l: tgt, val: val}, cost: p.obsDist[fl.g]})
	}
	// Stable selection sort by cost (candidate lists are short).
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].cost < cands[j-1].cost; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	out := p.objs[:0]
	for _, c := range cands {
		out = append(out, c.obj)
	}
	p.cands, p.objs = cands, out
	return out
}

// propagationInput picks the input objective that unblocks a D-frontier
// gate: non-controlling values on X side inputs, select steering for
// muxes.
func (p *podem) propagationInput(fl line, g *netlist.Gate) (line, sim.Logic, bool) {
	if g.Kind == netlist.Mux {
		sel, d0, d1 := g.Fanin[0], g.Fanin[1], g.Fanin[2]
		sv := p.pinValue(fl.t, fl.g, 0)
		if sv == cD || sv == cDbar {
			// D on select: make the data inputs differ.
			for pin, di := range [2]int{d0, d1} {
				if p.pinValue(fl.t, fl.g, pin+1) == cX {
					other := p.pinValue(fl.t, fl.g, 2-pin)
					switch other {
					case c0:
						return line{fl.t, di}, sim.L1, true
					case c1:
						return line{fl.t, di}, sim.L0, true
					default:
						return line{fl.t, di}, sim.L0, true
					}
				}
			}
			return line{}, sim.LX, false
		}
		// D on a data input: steer the select.
		if sv == cX {
			if v := p.pinValue(fl.t, fl.g, 2); v == cD || v == cDbar {
				return line{fl.t, sel}, sim.L1, true
			}
			return line{fl.t, sel}, sim.L0, true
		}
		return line{}, sim.LX, false
	}
	ctrl, has := sim.ControllingValue(g.Kind)
	for pin, f := range g.Fanin {
		if p.pinValue(fl.t, fl.g, pin) == cX {
			want := sim.L0
			if has {
				want = sim.NotL(ctrl)
			}
			return line{fl.t, f}, want, true
		}
	}
	return line{}, sim.LX, false
}

// backtrace walks an objective back to an unassigned primary input
// through X-valued lines, returning the PI line and value to try.
func (p *podem) backtrace(obj line, val sim.Logic) (line, sim.Logic, bool) {
	cur := obj
	for steps := 0; steps < len(p.nl.Gates)*p.frames+16; steps++ {
		g := p.nl.Gates[cur.g]
		switch g.Kind {
		case netlist.Input:
			// The descent keeps to X lines in the composite view, but a
			// line can be X with its good value fully justified (the X
			// living only in the faulty machine — e.g. behind the faulted
			// select of a mux), so the walk can surface at an input that
			// is already assigned. Re-assigning it would change nothing
			// and the search would repeat this exact backtrace forever;
			// fail instead so the caller tries the next objective or
			// backtracks.
			if p.assigned[cur.t*p.ng+cur.g] != sim.LX {
				return line{}, sim.LX, false
			}
			return cur, val, true
		case netlist.Const0, netlist.Const1:
			return line{}, sim.LX, false
		case netlist.DFF:
			if cur.t == 0 {
				return line{}, sim.LX, false // power-up state is uncontrollable
			}
			cur = line{cur.t - 1, g.Fanin[0]}
			continue
		case netlist.Buf:
			cur = line{cur.t, g.Fanin[0]}
			continue
		case netlist.Not:
			val = sim.NotL(val)
			cur = line{cur.t, g.Fanin[0]}
			continue
		case netlist.Mux:
			sel, d0, d1 := g.Fanin[0], g.Fanin[1], g.Fanin[2]
			switch p.value(cur.t, sel) {
			case c0:
				cur = line{cur.t, d0}
			case c1:
				cur = line{cur.t, d1}
			case cX:
				// Steer the select toward a data input that already
				// carries the needed value; otherwise pick the branch
				// whose data input is cheapest to control and justify
				// the select first (once the select is assigned, the
				// next backtrace descends into the data input).
				if p.binEqual(cur.t, d1, val) {
					val, cur = sim.L1, line{cur.t, sel}
				} else if p.binEqual(cur.t, d0, val) {
					val, cur = sim.L0, line{cur.t, sel}
				} else {
					cost0, cost1 := costInf, costInf
					if p.value(cur.t, d0) == cX {
						cost0 = p.cc0[sel] + p.valCost(d0, val)
					}
					if p.value(cur.t, d1) == cX {
						cost1 = p.cc1[sel] + p.valCost(d1, val)
					}
					switch {
					case cost0 == costInf && cost1 == costInf:
						return line{}, sim.LX, false
					case cost1 < cost0:
						val, cur = sim.L1, line{cur.t, sel}
					default:
						val, cur = sim.L0, line{cur.t, sel}
					}
				}
			default:
				return line{}, sim.LX, false
			}
			continue
		}
		inv := sim.Inverting(g.Kind)
		eff := val
		if inv {
			eff = sim.NotL(eff)
		}
		switch g.Kind {
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
			ctrl, _ := sim.ControllingValue(g.Kind)
			if eff == ctrl {
				// One controlling input suffices: pick the easiest X.
				if in, ok := p.pickInput(cur, g, eff, true); ok {
					cur, val = in, eff
					continue
				}
				return line{}, sim.LX, false
			}
			// All inputs need the non-controlling value: hardest X first.
			if in, ok := p.pickInput(cur, g, eff, false); ok {
				cur, val = in, eff
				continue
			}
			return line{}, sim.LX, false
		case netlist.Xor, netlist.Xnor:
			a, b := g.Fanin[0], g.Fanin[1]
			av, bv := p.value(cur.t, a), p.value(cur.t, b)
			pickVal := func(other comp) sim.Logic {
				switch other {
				case c0:
					return eff
				case c1:
					return sim.NotL(eff)
				default:
					return eff // assume other settles to 0
				}
			}
			// Prefer the cheaper-to-control X input.
			if av == cX && (bv != cX || p.eitherCost(a) <= p.eitherCost(b)) {
				cur, val = line{cur.t, a}, pickVal(bv)
				continue
			}
			if bv == cX {
				cur, val = line{cur.t, b}, pickVal(av)
				continue
			}
			return line{}, sim.LX, false
		}
		return line{}, sim.LX, false
	}
	return line{}, sim.LX, false
}

// valCost is the static cost of justifying value v on gate g.
func (p *podem) valCost(g int, v sim.Logic) int {
	if v == sim.L1 {
		return p.cc1[g]
	}
	return p.cc0[g]
}

// eitherCost is the cheaper of controlling a gate to 0 or 1.
func (p *podem) eitherCost(g int) int {
	return minInt(p.cc0[g], p.cc1[g])
}

func (p *podem) binEqual(t, g int, v sim.Logic) bool {
	cv := p.value(t, g)
	return (cv == c0 && v == sim.L0) || (cv == c1 && v == sim.L1)
}

// pickInput selects an X-valued fanin by controllability cost; easiest
// when easy is true, hardest otherwise.
func (p *podem) pickInput(cur line, g *netlist.Gate, want sim.Logic, easy bool) (line, bool) {
	best := -1
	bestCost := 0
	for _, f := range g.Fanin {
		if p.value(cur.t, f) != cX {
			continue
		}
		cost := p.cc1[f]
		if want == sim.L0 {
			cost = p.cc0[f]
		}
		if best < 0 || (easy && cost < bestCost) || (!easy && cost > bestCost) {
			best = f
			bestCost = cost
		}
	}
	if best < 0 {
		return line{}, false
	}
	return line{cur.t, best}, true
}

// decision is one PI assignment on the decision stack. mark is the
// trail position before the assignment was implied: undoing to it
// restores the state the decision was taken in.
type decision struct {
	l       line
	val     sim.Logic
	flipped bool
	mark    int
}

// podemIterHook, when non-nil, runs at the top of every search
// iteration, after implication — the test-only observation point for
// checking the incremental state against full re-simulation.
var podemIterHook func(p *podem)

// run executes the PODEM search prepared by reset. It returns the
// discovered test sequence on success.
func (p *podem) run() (fault.Sequence, Status) {
	for iter := 0; ; iter++ {
		if iter&63 == 0 && !p.deadline.IsZero() && time.Now().After(p.deadline) {
			return nil, Aborted
		}
		if podemIterHook != nil {
			podemIterHook(p)
		}
		if p.detected() {
			return p.extractSequence(), Detected
		}
		if p.decide() {
			continue
		}
		// Backtrack.
		p.backtracks++
		if p.backtracks > p.limit {
			return nil, Aborted
		}
		if !p.backtrack() {
			return nil, Untestable
		}
	}
}

// decide pushes and implies the first objective that backtraces to an
// assignable primary input; false when none does.
func (p *podem) decide() bool {
	for _, obj := range p.objectives() {
		if pi, pv, ok := p.backtrace(obj.l, obj.val); ok {
			p.stack = append(p.stack, decision{l: pi, val: pv, mark: len(p.trail)})
			p.decisions++
			p.assign(pi, pv)
			return true
		}
	}
	return false
}

// backtrack flips the deepest unflipped decision, popping flipped ones
// above it; false when the stack is exhausted. Both first undo the
// decision's trail segment, restoring the state it was taken in.
func (p *podem) backtrack() bool {
	for len(p.stack) > 0 {
		top := &p.stack[len(p.stack)-1]
		p.undo(top.mark)
		if !top.flipped {
			top.flipped = true
			top.val = sim.NotL(top.val)
			p.assign(top.l, top.val)
			return true
		}
		p.assigned[top.l.t*p.ng+top.l.g] = sim.LX
		p.stack = p.stack[:len(p.stack)-1]
	}
	return false
}

// extractSequence converts the PI assignments into a test sequence.
// Unassigned PIs stay absent from the vectors (X); the caller may fill
// them randomly before fault simulation.
func (p *podem) extractSequence() fault.Sequence {
	seq := make(fault.Sequence, p.frames)
	for t := 0; t < p.frames; t++ {
		vec := fault.Vector{}
		for i, pi := range p.nl.PIs {
			if v := p.assigned[t*p.ng+pi]; v != sim.LX {
				vec[p.nl.PINames[i]] = v
			}
		}
		seq[t] = vec
	}
	return seq
}

// controllability computes SCOAP-like static 0/1 controllability costs;
// flip-flops add a sequential penalty and cyclic definitions relax to a
// fixpoint.
func controllability(nl *netlist.Netlist) (cc0, cc1 []int) {
	n := len(nl.Gates)
	cc0 = make([]int, n)
	cc1 = make([]int, n)
	for i := range cc0 {
		cc0[i], cc1[i] = costInf, costInf
	}
	capAdd := func(a, b int) int {
		s := a + b
		if s > costInf {
			return costInf
		}
		return s
	}
	for pass := 0; pass < 32; pass++ {
		changed := false
		set := func(id, v0, v1 int) {
			if v0 < cc0[id] {
				cc0[id] = v0
				changed = true
			}
			if v1 < cc1[id] {
				cc1[id] = v1
				changed = true
			}
		}
		for _, g := range nl.Gates {
			switch g.Kind {
			case netlist.Input:
				set(g.ID, 1, 1)
			case netlist.Const0:
				set(g.ID, 0, costInf)
			case netlist.Const1:
				set(g.ID, costInf, 0)
			case netlist.Buf:
				f := g.Fanin[0]
				set(g.ID, capAdd(cc0[f], 1), capAdd(cc1[f], 1))
			case netlist.Not:
				f := g.Fanin[0]
				set(g.ID, capAdd(cc1[f], 1), capAdd(cc0[f], 1))
			case netlist.And, netlist.Nand:
				a, b := g.Fanin[0], g.Fanin[1]
				v1 := capAdd(capAdd(cc1[a], cc1[b]), 1)
				v0 := capAdd(minInt(cc0[a], cc0[b]), 1)
				if g.Kind == netlist.Nand {
					v0, v1 = v1, v0
				}
				set(g.ID, v0, v1)
			case netlist.Or, netlist.Nor:
				a, b := g.Fanin[0], g.Fanin[1]
				v0 := capAdd(capAdd(cc0[a], cc0[b]), 1)
				v1 := capAdd(minInt(cc1[a], cc1[b]), 1)
				if g.Kind == netlist.Nor {
					v0, v1 = v1, v0
				}
				set(g.ID, v0, v1)
			case netlist.Xor, netlist.Xnor:
				a, b := g.Fanin[0], g.Fanin[1]
				same := minInt(capAdd(cc0[a], cc0[b]), capAdd(cc1[a], cc1[b]))
				diff := minInt(capAdd(cc0[a], cc1[b]), capAdd(cc1[a], cc0[b]))
				v0, v1 := capAdd(same, 1), capAdd(diff, 1)
				if g.Kind == netlist.Xnor {
					v0, v1 = v1, v0
				}
				set(g.ID, v0, v1)
			case netlist.Mux:
				s, d0, d1 := g.Fanin[0], g.Fanin[1], g.Fanin[2]
				v0 := minInt(capAdd(cc0[s], cc0[d0]), capAdd(cc1[s], cc0[d1]))
				v1 := minInt(capAdd(cc0[s], cc1[d0]), capAdd(cc1[s], cc1[d1]))
				set(g.ID, capAdd(v0, 1), capAdd(v1, 1))
			case netlist.DFF:
				f := g.Fanin[0]
				const seqPenalty = 10
				set(g.ID, capAdd(cc0[f], seqPenalty), capAdd(cc1[f], seqPenalty))
			}
		}
		if !changed {
			break
		}
	}
	return cc0, cc1
}

// observationDistance computes, per gate, a static cost to reach a
// primary output (levels through combinational gates, flip-flops add a
// sequential penalty).
func observationDistance(nl *netlist.Netlist) []int {
	n := len(nl.Gates)
	dist := make([]int, n)
	for i := range dist {
		dist[i] = costInf
	}
	for _, po := range nl.POs {
		dist[po] = 0
	}
	fanouts := nl.Fanouts()
	for pass := 0; pass < 64; pass++ {
		changed := false
		for id := n - 1; id >= 0; id-- {
			best := dist[id]
			for _, fo := range fanouts[id] {
				cost := 1
				if nl.Gates[fo].Kind == netlist.DFF {
					cost = 10
				}
				if d := dist[fo] + cost; d < best {
					best = d
				}
			}
			if best < dist[id] {
				dist[id] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
