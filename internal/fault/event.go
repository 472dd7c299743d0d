package fault

import (
	"slices"

	"factor/internal/netlist"
	"factor/internal/sim"
)

// groupLanes is the number of sequences packed into one good trace:
// sequence s of a group occupies lane s of every trace word.
const groupLanes = 64

// goodTrace holds the fault-free machine's value of every gate on every
// cycle of a group of up to 64 input sequences, one sim.Word per gate
// per cycle: lane s carries sequence s of the group. The good machine
// depends only on the sequence — never on which faults share a pass —
// so one trace is computed per group and shared read-only across every
// fault batch, and one packed sweep of the netlist advances all the
// group's sequences at once.
//
// Sequences of a group may differ in length; a lane past the end of
// its sequence holds X and is never read. Every stored word is
// canonical (no Ones bit in an X lane), so broadcasting one lane (see
// laneOf) yields exactly sim.Splat of that lane's value.
type goodTrace struct {
	gates  int
	cycles int        // length of the group's longest sequence
	vals   []sim.Word // vals[t*gates+g], post-eval value of gate g on cycle t
}

// cycle returns the per-gate good words of cycle t.
func (tr *goodTrace) cycle(t int) []sim.Word {
	return tr.vals[t*tr.gates : (t+1)*tr.gates]
}

// laneOf broadcasts lane s of w to all 64 lanes: for a canonical w it
// equals sim.Splat(w.Lane(s)).
func laneOf(w sim.Word, s uint) sim.Word {
	return sim.Word{Ones: -(w.Ones >> s & 1), Xs: -(w.Xs >> s & 1)}
}

// compute simulates the fault-free machine over a group of at most 64
// sequences, sequence s in lane s, reusing the trace's backing storage
// when capacity allows.
func (tr *goodTrace) compute(nl *netlist.Netlist, c *netlist.Compiled, seqs []Sequence) {
	if len(seqs) > groupLanes {
		panic("fault: good-trace group larger than 64 sequences")
	}
	ng := c.NumGates
	cycles := 0
	for _, seq := range seqs {
		cycles = max(cycles, len(seq))
	}
	tr.gates = ng
	tr.cycles = cycles
	if cap(tr.vals) < ng*cycles {
		tr.vals = make([]sim.Word, ng*cycles)
	}
	tr.vals = tr.vals[:ng*cycles]
	allX := sim.Word{Xs: ^uint64(0)}
	for t := 0; t < cycles; t++ {
		cur := tr.cycle(t)
		for _, pi := range nl.PIs {
			cur[pi] = allX
		}
		for s, seq := range seqs {
			if t >= len(seq) {
				continue // past the end: the lane stays X
			}
			bit := uint64(1) << uint(s)
			vec := seq[t]
			for i, pi := range nl.PIs {
				val, ok := vec[nl.PINames[i]]
				if !ok {
					continue // a missing PI is X, which the lane already holds
				}
				switch val {
				case sim.L0:
					cur[pi].Xs &^= bit
				case sim.L1:
					cur[pi].Xs &^= bit
					cur[pi].Ones |= bit
				}
			}
		}
		for _, id32 := range c.Order {
			id := int(id32)
			switch kind := netlist.GateKind(c.Kind[id]); kind {
			case netlist.Input:
				// set above
			case netlist.Const0:
				cur[id] = sim.Word{}
			case netlist.Const1:
				cur[id] = sim.Word{Ones: ^uint64(0)}
			case netlist.DFF:
				if t == 0 {
					cur[id] = allX // unknown power-up state
				} else {
					cur[id] = tr.vals[(t-1)*ng+int(c.Fanins(id)[0])]
				}
			default:
				fan := c.Fanins(id)
				switch kind {
				case netlist.Buf:
					cur[id] = cur[fan[0]]
				case netlist.Not:
					cur[id] = sim.Not(cur[fan[0]])
				case netlist.And:
					cur[id] = sim.And(cur[fan[0]], cur[fan[1]])
				case netlist.Or:
					cur[id] = sim.Or(cur[fan[0]], cur[fan[1]])
				case netlist.Nand:
					cur[id] = sim.Not(sim.And(cur[fan[0]], cur[fan[1]]))
				case netlist.Nor:
					cur[id] = sim.Not(sim.Or(cur[fan[0]], cur[fan[1]]))
				case netlist.Xor:
					cur[id] = sim.Xor(cur[fan[0]], cur[fan[1]])
				case netlist.Xnor:
					cur[id] = sim.Not(sim.Xor(cur[fan[0]], cur[fan[1]]))
				case netlist.Mux:
					cur[id] = sim.MuxW(cur[fan[0]], cur[fan[1]], cur[fan[2]])
				}
			}
		}
	}
}

// newGoodTrace computes the good-machine trace of a sequence group.
func newGoodTrace(nl *netlist.Netlist, c *netlist.Compiled, seqs []Sequence) *goodTrace {
	tr := &goodTrace{}
	tr.compute(nl, c, seqs)
	return tr
}

// EventSim is the event-driven, cone-restricted fault simulator: the
// production engine behind Pool and FirstDetections. Like ParallelSim
// it packs up to 63 faulty machines into lanes 1..63 of a packed word,
// but instead of re-evaluating the whole netlist per cycle it
// evaluates only the gates that can differ from the fault-free
// machine:
//
//   - the good machine is simulated once per group of up to 64
//     sequences (shared across batches via goodTrace) — lane values of
//     any gate outside the batch's divergence set are a broadcast of
//     the sequence's good lane;
//   - each cycle seeds a levelized worklist with the injection sites
//     and the flip-flops whose faulty state diverged on earlier
//     cycles, then sweeps level by level through the union of the
//     faults' fanout cones;
//   - propagation stops at any gate whose packed output word equals
//     the good word (the fault effects were masked), so the swept
//     region is the *active* cone, usually far smaller than the
//     structural one.
//
// Detection semantics are bit-identical to ParallelSim, which is kept
// as the reference implementation (see TestEventMatchesParallel* and
// FuzzEventDrivenEquivalence).
type EventSim struct {
	nl *netlist.Netlist
	c  *netlist.Compiled

	// Dense injection tables, indexed by gate ID (same layout as
	// ParallelSim). injTouched lists every gate with an entry;
	// injGates the gates seeded into the per-cycle sweep (stem
	// injections anywhere, pin injections on combinational gates);
	// injFlops the DFFs with a D-pin injection (applied at clocking).
	stemMask   []uint64
	stemOne    []uint64
	pinInj     [][]pinInjection
	injTouched []int32
	injGates   []int32
	injFlops   []int32

	// Per-cycle divergence overlay: faulty[g] is the packed word of
	// gate g on the current cycle iff divergedAt[g] == epoch;
	// otherwise the gate's value is Splat(good[g]).
	faulty     []sim.Word
	divergedAt []uint32
	queuedAt   []uint32
	epoch      uint32

	// Sparse faulty flip-flop state, persisting across cycles of one
	// sequence: fstate[f] is valid iff flopDiverged[f]; divFlops lists
	// the diverged flops.
	fstate       []sim.Word
	flopDiverged []bool
	divFlops     []int32

	// Levelized worklist: one flat buffer partitioned by c.LevelStart
	// (a gate queues at most once per cycle, so level l's segment never
	// overflows its gate count), plus per-level fill counts and the
	// per-cycle flop-candidate list. All reused across cycles (zero
	// steady-state allocations).
	bucketBuf  []int32
	bucketLen  []int32
	flopCand   []int32
	flopCandAt []uint32

	// lane is the good-trace lane of the sequence being simulated;
	// good values are read as laneOf(trace word, lane).
	lane uint

	// Good-trace and batch scratch for RunSequence, reused across
	// calls.
	tr           goodTrace
	batchScratch []Fault

	// stats counts committed work; drained via DrainStats. Plain
	// fields: the sweep stays allocation- and atomic-free.
	stats SimStats
}

// NewEvent builds an event-driven fault simulator for n.
func NewEvent(n *netlist.Netlist) *EventSim {
	c := n.Compile()
	ng := c.NumGates
	return &EventSim{
		nl:           n,
		c:            c,
		stemMask:     make([]uint64, ng),
		stemOne:      make([]uint64, ng),
		pinInj:       make([][]pinInjection, ng),
		faulty:       make([]sim.Word, ng),
		divergedAt:   make([]uint32, ng),
		queuedAt:     make([]uint32, ng),
		fstate:       make([]sim.Word, ng),
		flopDiverged: make([]bool, ng),
		bucketBuf:    make([]int32, ng),
		bucketLen:    make([]int32, c.NumLevels),
		flopCandAt:   make([]uint32, ng),
	}
}

// Clone returns a fresh event simulator over the same netlist. The
// netlist and compiled view are shared read-only; everything else is
// private, so each clone can run on its own goroutine.
func (e *EventSim) Clone() *EventSim { return NewEvent(e.nl) }

// load prepares the dense injection tables for a batch occupying lanes
// 1..len(batch) and classifies the seed sets. Previous tables are
// cleared in place; steady-state loads allocate nothing.
func (e *EventSim) load(batch []Fault) { e.loadLanes(batch, ^uint64(0)) }

// loadLanes is load restricted to the lanes set in lanes: fault i keeps
// lane i+1 but is injected only if that bit is set. Lanes are
// independent, so dropping a lane changes no other lane's result; an
// uninjected lane simply follows the good machine.
func (e *EventSim) loadLanes(batch []Fault, lanes uint64) {
	for _, g := range e.injTouched {
		e.stemMask[g] = 0
		e.stemOne[g] = 0
		e.pinInj[g] = e.pinInj[g][:0]
	}
	e.injTouched = e.injTouched[:0]
	e.injGates = e.injGates[:0]
	e.injFlops = e.injFlops[:0]
	for i, f := range batch {
		lane := uint64(1) << uint(i+1)
		if lanes&lane == 0 {
			continue
		}
		if e.stemMask[f.Gate] == 0 && len(e.pinInj[f.Gate]) == 0 {
			e.injTouched = append(e.injTouched, int32(f.Gate))
		}
		if f.Pin < 0 {
			e.stemMask[f.Gate] |= lane
			if f.SAOne {
				e.stemOne[f.Gate] |= lane
			}
		} else {
			var sa uint64
			if f.SAOne {
				sa = lane
			}
			e.pinInj[f.Gate] = append(e.pinInj[f.Gate], pinInjection{pin: int32(f.Pin), mask: lane, saOne: sa})
		}
	}
	for _, g := range e.injTouched {
		kind := netlist.GateKind(e.c.Kind[g])
		// Stem injections override the output at eval time for every
		// kind; pin injections force inputs of combinational gates at
		// eval time but DFF D-pins only at clocking.
		if e.stemMask[g] != 0 || (kind.Combinational() && len(e.pinInj[g]) > 0) {
			e.injGates = append(e.injGates, g)
		}
		if kind == netlist.DFF && len(e.pinInj[g]) > 0 {
			e.injFlops = append(e.injFlops, g)
		}
	}
}

// push queues gate g for evaluation in the current cycle's sweep.
func (e *EventSim) push(g int32) {
	if e.queuedAt[g] == e.epoch {
		return
	}
	e.queuedAt[g] = e.epoch
	l := e.c.Level[g]
	e.bucketBuf[e.c.LevelStart[l]+e.bucketLen[l]] = g
	e.bucketLen[l]++
}

// addFlopCand queues DFF f for re-capture at the end of the cycle.
func (e *EventSim) addFlopCand(f int32) {
	if e.flopCandAt[f] == e.epoch {
		return
	}
	e.flopCandAt[f] = e.epoch
	e.flopCand = append(e.flopCand, f)
}

// value returns the packed word of gate g on the current cycle: the
// faulty overlay if g diverged this cycle, else a splat of its good
// value.
func (e *EventSim) value(g int32, good []sim.Word) sim.Word {
	if e.divergedAt[g] == e.epoch {
		return e.faulty[g]
	}
	return laneOf(good[g], e.lane)
}

// evalGate computes gate g's packed output with injections applied.
func (e *EventSim) evalGate(g int32, good []sim.Word) sim.Word {
	var out sim.Word
	switch netlist.GateKind(e.c.Kind[g]) {
	case netlist.Input, netlist.Const0, netlist.Const1:
		// These only ever diverge through a stem injection.
		out = laneOf(good[g], e.lane)
	case netlist.DFF:
		if e.flopDiverged[g] {
			out = e.fstate[g]
		} else {
			out = laneOf(good[g], e.lane)
		}
	default:
		fan := e.c.Fanins(int(g))
		if len(e.pinInj[g]) != 0 {
			var faninBuf [3]sim.Word
			in := faninBuf[:len(fan)]
			for i, f := range fan {
				in[i] = e.value(f, good)
			}
			for _, pi := range e.pinInj[g] {
				in[pi.pin] = inject(in[pi.pin], pi.mask, pi.saOne)
			}
			out = sim.EvalGate(netlist.GateKind(e.c.Kind[g]), in)
			break
		}
		// No pin injections (the common case): dispatch directly to the
		// word operations, skipping EvalGate's switch and the fanin
		// buffer copies. All stored words are canonical, so Buf needs no
		// renormalization.
		switch netlist.GateKind(e.c.Kind[g]) {
		case netlist.Buf:
			out = e.value(fan[0], good)
		case netlist.Not:
			out = sim.Not(e.value(fan[0], good))
		case netlist.And:
			out = sim.And(e.value(fan[0], good), e.value(fan[1], good))
		case netlist.Or:
			out = sim.Or(e.value(fan[0], good), e.value(fan[1], good))
		case netlist.Nand:
			out = sim.Not(sim.And(e.value(fan[0], good), e.value(fan[1], good)))
		case netlist.Nor:
			out = sim.Not(sim.Or(e.value(fan[0], good), e.value(fan[1], good)))
		case netlist.Xor:
			out = sim.Xor(e.value(fan[0], good), e.value(fan[1], good))
		case netlist.Xnor:
			out = sim.Not(sim.Xor(e.value(fan[0], good), e.value(fan[1], good)))
		case netlist.Mux:
			out = sim.MuxW(e.value(fan[0], good), e.value(fan[1], good), e.value(fan[2], good))
		default:
			out = laneOf(good[g], e.lane)
		}
	}
	if m := e.stemMask[g]; m != 0 {
		out = inject(out, m, e.stemOne[g])
	}
	return out
}

// detLanes returns the lanes of w that provably differ from the
// splatted good value gw (the per-PO detection rule of ParallelSim): a
// lane counts when both it and the good value are binary and they
// differ. An X good value earns no detection credit.
func detLanes(w, gw sim.Word) uint64 {
	return (w.Ones ^ gw.Ones) &^ w.Xs &^ gw.Xs &^ 1
}

// bumpEpoch advances the per-cycle stamp, re-zeroing the stamp arrays
// on the (effectively never taken) wraparound.
func (e *EventSim) bumpEpoch() {
	e.epoch++
	if e.epoch == 0 {
		clear(e.divergedAt)
		clear(e.queuedAt)
		clear(e.flopCandAt)
		e.epoch = 1
	}
}

// resetSequence clears the sequential divergence state between
// sequences (the all-X power-up state never diverges by itself).
func (e *EventSim) resetSequence() {
	for _, f := range e.divFlops {
		e.flopDiverged[f] = false
	}
	e.divFlops = e.divFlops[:0]
}

// cycle simulates one clock cycle of the loaded batch against lane
// e.lane of one trace cycle's good words and returns the newly
// detected lanes.
func (e *EventSim) cycle(good []sim.Word) uint64 {
	e.bumpEpoch()
	// Seeds: every eval-time injection site, plus every flop whose
	// state diverged on an earlier cycle (it must propagate its stale
	// divergence and be re-captured — possibly healing).
	for _, g := range e.injGates {
		e.push(g)
	}
	for _, f := range e.divFlops {
		e.push(f)
		e.addFlopCand(f)
	}
	for _, f := range e.injFlops {
		e.addFlopCand(f)
	}

	var det uint64
	var evals uint64
	c := e.c
	for l := 0; l < len(e.bucketLen); l++ {
		base := c.LevelStart[l]
		// Fanouts of combinational gates sit at strictly higher levels
		// and DFF readers go to the flop-candidate list, so this
		// segment is complete before it is scanned.
		for i := int32(0); i < e.bucketLen[l]; i++ {
			g := e.bucketBuf[base+i]
			evals++
			out := e.evalGate(g, good)
			gw := laneOf(good[g], e.lane)
			if out == gw {
				continue // masked: the cone is pruned here
			}
			e.faulty[g] = out
			e.divergedAt[g] = e.epoch
			if c.IsPO[g] {
				det |= detLanes(out, gw)
			}
			for _, fr := range c.FanoutRefs[c.FanoutStart[g]:c.FanoutStart[g+1]] {
				if fr.Level < 0 {
					e.addFlopCand(fr.ID)
				} else if e.queuedAt[fr.ID] != e.epoch {
					e.queuedAt[fr.ID] = e.epoch
					e.bucketBuf[c.LevelStart[fr.Level]+e.bucketLen[fr.Level]] = fr.ID
					e.bucketLen[fr.Level]++
				}
			}
		}
		e.bucketLen[l] = 0
	}

	// Clock: re-capture every candidate flop. A flop heals when its
	// captured word matches the good next state.
	for _, f := range e.flopCand {
		d := e.value(c.Fanins(int(f))[0], good)
		for _, pi := range e.pinInj[f] {
			d = inject(d, pi.mask, pi.saOne)
		}
		goodNext := laneOf(good[c.Fanins(int(f))[0]], e.lane)
		if d != goodNext {
			e.fstate[f] = d
			if !e.flopDiverged[f] {
				e.flopDiverged[f] = true
				e.divFlops = append(e.divFlops, f)
			}
		} else if e.flopDiverged[f] {
			e.flopDiverged[f] = false
			e.stats.FlopHeals++
		}
	}
	e.flopCand = e.flopCand[:0]
	// Compact the diverged-flop list in place.
	k := 0
	for _, f := range e.divFlops {
		if e.flopDiverged[f] {
			e.divFlops[k] = f
			k++
		}
	}
	e.divFlops = e.divFlops[:k]
	e.stats.Events += evals
	e.stats.Cycles++
	return det
}

// runLoaded simulates the first cycles cycles of trace lane lane (the
// lane's whole sequence) against the already-loaded batch from the
// all-X power-up state and returns the detected lanes.
func (e *EventSim) runLoaded(tr *goodTrace, lane, cycles int) uint64 {
	e.resetSequence()
	e.lane = uint(lane)
	var detected uint64
	for t := 0; t < cycles; t++ {
		detected |= e.cycle(tr.cycle(t))
	}
	return detected
}

// runBatch loads one batch and simulates it against the sequence of a
// one-sequence trace (lane 0).
func (e *EventSim) runBatch(batch []Fault, tr *goodTrace) uint64 {
	e.load(batch)
	e.stats.Batches++
	return e.runLoaded(tr, 0, tr.cycles)
}

// coneOrder returns the pending fault indices reordered by the
// topological position of their fault site. Detection is an intrinsic
// property of (fault, sequence), so regrouping batches never changes
// results — but faults that sit close together in topological order
// overlap heavily in their fanout cones, so slicing the reordered list
// into 63-lane batches keeps each batch's active cone tight. The order
// is a deterministic function of the pending list.
func coneOrder(c *netlist.Compiled, faults []Fault, pending []int) []int {
	out := append([]int(nil), pending...)
	if len(out) <= 63 {
		// A single batch: grouping cannot change the batch's cone union,
		// and detection is intrinsic per fault, so skip the sort.
		return out
	}
	// Sort (Pos, original index) packed into int64 keys: same order as a
	// two-key comparison sort, without interface dispatch per compare.
	keys := make([]int64, len(out))
	for i, fi := range out {
		keys[i] = int64(c.Pos[faults[fi].Gate])<<32 | int64(int32(fi))
	}
	slices.Sort(keys)
	for i, k := range keys {
		out[i] = int(int32(k))
	}
	return out
}

// RunSequence simulates seq against the pending faults of res and
// marks newly detected faults, returning how many were newly detected.
// Results are bit-identical to ParallelSim.RunSequence; the batches
// are assembled by cone locality and evaluated event-driven.
func (e *EventSim) RunSequence(res *Result, seq Sequence) int {
	pending := coneOrder(e.c, res.Faults, res.Remaining())
	if len(pending) == 0 {
		return 0
	}
	e.tr.compute(e.nl, e.c, []Sequence{seq})
	e.stats.TraceCycles += uint64(len(seq))
	tr := &e.tr
	newly := 0
	for start := 0; start < len(pending); start += 63 {
		end := min(start+63, len(pending))
		idxs := pending[start:end]
		batch := e.batchScratch[:0]
		for _, fi := range idxs {
			batch = append(batch, res.Faults[fi])
		}
		e.batchScratch = batch
		detectedLanes := e.runBatch(batch, tr)
		for i, fi := range idxs {
			if detectedLanes&(1<<uint(i+1)) != 0 && !res.Detected[fi] {
				res.Detected[fi] = true
				newly++
			}
		}
	}
	return newly
}
