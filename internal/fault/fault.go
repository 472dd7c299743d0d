// Package fault implements the single-stuck-at fault model over the
// gate-level netlist IR: fault universe construction, structural
// equivalence collapsing, and sequential fault simulation — a serial
// reference implementation, a 63-fault-per-pass parallel machine
// built on the packed 3-valued simulator, and an event-driven engine
// on the compiled CSR netlist view that simulates the good machine
// once and re-evaluates only the diverged cone of each fault batch.
package fault

import (
	"fmt"

	"factor/internal/netlist"
	"factor/internal/sim"
)

// Site identifies a fault location: the output stem of a gate
// (Pin == -1) or one input pin of a gate (Pin >= 0).
type Site struct {
	Gate int
	Pin  int
}

// Fault is a single stuck-at fault.
type Fault struct {
	Site
	SAOne bool // true: stuck-at-1, false: stuck-at-0
}

func (f Fault) String() string {
	v := 0
	if f.SAOne {
		v = 1
	}
	if f.Pin < 0 {
		return fmt.Sprintf("g%d/sa%d", f.Gate, v)
	}
	return fmt.Sprintf("g%d.in%d/sa%d", f.Gate, f.Pin, v)
}

// Key packs the fault's identity into a uint64 suitable as a
// deterministic draw key (failpoint injection, per-fault RNG streams):
// a pure function of the fault, independent of list position or
// scheduling. Pin is biased by 1 so the stem sentinel (-1) stays
// non-negative.
func (f Fault) Key() uint64 {
	v := uint64(0)
	if f.SAOne {
		v = 1
	}
	return uint64(f.Gate)<<21 | uint64(f.Pin+1)<<1 | v
}

// Universe builds the collapsed single-stuck-at fault list for a
// netlist:
//
//   - every gate output (stem) except constants carries sa0 and sa1;
//   - every input pin whose driver has fanout > 1 (a branch of a
//     multi-fanout stem) carries sa0 and sa1;
//   - structural equivalence collapsing then keeps one representative
//     per equivalence class (e.g. an AND input sa0 is equivalent to the
//     AND output sa0; a NOT input sa-v to its output sa-~v; BUF and DFF
//     pins to their stems).
//
// The returned faults are sorted by (gate, pin, stuck-at value), stems
// before pins.
//
// Every candidate fault has a dense slot, 2*site+sa, where the sites
// of gate g are base[g] (its stem) and base[g]+1+pin (its input pins).
// Slot order is exactly the output order, so the union-find and the
// choice of class representatives run over flat slices and the
// representatives come out sorted.
func Universe(n *netlist.Netlist) []Fault {
	fanouts := n.Fanouts()
	base := make([]int32, len(n.Gates)+1)
	for id, g := range n.Gates {
		base[id+1] = base[id] + 1 + int32(len(g.Fanin))
	}
	slot := func(gate, pin int, sa1 bool) int32 {
		k := 2 * (base[gate] + 1 + int32(pin))
		if sa1 {
			k++
		}
		return k
	}
	// Union-find over the slots: parent[k] == k for a root.
	parent := make([]int32, 2*base[len(n.Gates)])
	for k := range parent {
		parent[k] = int32(k)
	}
	find := func(k int32) int32 {
		for parent[k] != k {
			parent[k] = parent[parent[k]] // path halving
			k = parent[k]
		}
		return k
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}

	// Equivalence rules, collapsing within gates. A pin of a
	// single-fanout connection carries no fault of its own: its fault
	// is represented by the driver's stem fault.
	for _, g := range n.Gates {
		out := func(sa1 bool) int32 { return slot(g.ID, -1, sa1) }
		in := func(pin int, sa1 bool) (int32, bool) {
			drv := g.Fanin[pin]
			if len(fanouts[drv]) > 1 {
				return slot(g.ID, pin, sa1), true
			}
			return slot(drv, -1, sa1), isFaultSite(n, drv)
		}
		switch g.Kind {
		case netlist.Buf, netlist.DFF:
			for _, sa1 := range []bool{false, true} {
				if k, ok := in(0, sa1); ok {
					union(k, out(sa1))
				}
			}
		case netlist.Not:
			for _, sa1 := range []bool{false, true} {
				if k, ok := in(0, sa1); ok {
					union(k, out(!sa1))
				}
			}
		case netlist.And:
			for pin := 0; pin < 2; pin++ {
				if k, ok := in(pin, false); ok {
					union(k, out(false))
				}
			}
		case netlist.Nand:
			for pin := 0; pin < 2; pin++ {
				if k, ok := in(pin, false); ok {
					union(k, out(true))
				}
			}
		case netlist.Or:
			for pin := 0; pin < 2; pin++ {
				if k, ok := in(pin, true); ok {
					union(k, out(true))
				}
			}
		case netlist.Nor:
			for pin := 0; pin < 2; pin++ {
				if k, ok := in(pin, true); ok {
					union(k, out(false))
				}
			}
		}
	}

	// One representative per class: its lowest slot, which is the
	// first member met in slot order. That is the rule "stems over
	// branches, then lower gate ID, lower pin, sa0": a branch joins a
	// class only through its own gate's output stem, whose slot is
	// lower, so the lowest slot of a class is a stem unless the class
	// is a lone branch. Candidates are every gate output except
	// constants, and every input pin whose driver has fanout > 1 (a
	// branch of a multi-fanout stem).
	taken := make([]bool, len(parent))
	out := make([]Fault, 0, len(parent)/2) // one per site, about the class count
	for _, g := range n.Gates {
		if !isFaultSite(n, g.ID) {
			continue
		}
		for pin := -1; pin < len(g.Fanin); pin++ {
			if pin >= 0 && len(fanouts[g.Fanin[pin]]) <= 1 {
				continue
			}
			for _, sa1 := range []bool{false, true} {
				if r := find(slot(g.ID, pin, sa1)); !taken[r] {
					taken[r] = true
					out = append(out, Fault{Site: Site{g.ID, pin}, SAOne: sa1})
				}
			}
		}
	}
	return out
}

func isFaultSite(n *netlist.Netlist, gate int) bool {
	switch n.Gates[gate].Kind {
	case netlist.Const0, netlist.Const1:
		return false
	}
	return true
}

// UniverseRestrictedTo returns the subset of the collapsed universe
// whose fault sites lie on gates for which keep returns true. This is
// how the FACTOR flow targets only the faults inside the module under
// test of a transformed module.
func UniverseRestrictedTo(n *netlist.Netlist, keep func(g *netlist.Gate) bool) []Fault {
	var out []Fault
	for _, f := range Universe(n) {
		if keep(n.Gates[f.Gate]) {
			out = append(out, f)
		}
	}
	return out
}

// Vector assigns a scalar logic value to every primary input by name.
// Missing PIs default to X.
type Vector map[string]sim.Logic

// Sequence is an ordered list of input vectors applied on consecutive
// clock cycles.
type Sequence []Vector

// Result accumulates detection status over a fault list.
type Result struct {
	Faults   []Fault
	Detected []bool
}

// NewResult initializes an undetected result set.
func NewResult(faults []Fault) *Result {
	return &Result{Faults: faults, Detected: make([]bool, len(faults))}
}

// Coverage returns detected/total as a percentage (0 when empty).
func (r *Result) Coverage() float64 {
	if len(r.Faults) == 0 {
		return 0
	}
	return 100 * float64(r.NumDetected()) / float64(len(r.Faults))
}

// NumDetected counts detected faults.
func (r *Result) NumDetected() int {
	c := 0
	for _, d := range r.Detected {
		if d {
			c++
		}
	}
	return c
}

// Remaining returns the indices of undetected faults.
func (r *Result) Remaining() []int {
	var out []int
	for i, d := range r.Detected {
		if !d {
			out = append(out, i)
		}
	}
	return out
}
