// Package netlist defines the gate-level intermediate representation
// shared by the synthesizer, the logic/fault simulators and the ATPG
// engine. A Netlist is a directed graph of single-output gates over a
// small cell library (constants, inverters, 2-input logic, multiplexers
// and D flip-flops), with named primary inputs and outputs.
//
// All sequential elements are positive-edge D flip-flops of a single
// implicit clock domain; synchronous resets and clock enables are
// synthesized into the D-input logic cone. This matches the class of
// netlists the FACTOR flow hands to its gate-level ATPG tool.
package netlist

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
)

// GateKind enumerates the cell library.
type GateKind int

// Gate kinds. NInputs documents the fanin arity; And/Or/Nand/Nor/Xor/
// Xnor are strictly 2-input (wider operations are built as trees).
const (
	Const0 GateKind = iota // no fanin
	Const1                 // no fanin
	Input                  // primary input, no fanin
	Buf                    // 1 fanin
	Not                    // 1 fanin
	And                    // 2 fanin
	Or                     // 2 fanin
	Nand                   // 2 fanin
	Nor                    // 2 fanin
	Xor                    // 2 fanin
	Xnor                   // 2 fanin
	Mux                    // 3 fanin: sel, d0 (sel=0), d1 (sel=1)
	DFF                    // 1 fanin: D; Q is the gate output
)

var gateKindNames = [...]string{
	Const0: "const0", Const1: "const1", Input: "input",
	Buf: "buf", Not: "not", And: "and", Or: "or",
	Nand: "nand", Nor: "nor", Xor: "xor", Xnor: "xnor",
	Mux: "mux", DFF: "dff",
}

func (k GateKind) String() string {
	if int(k) < len(gateKindNames) {
		return gateKindNames[k]
	}
	return fmt.Sprintf("GateKind(%d)", int(k))
}

// Arity returns the number of fanins a gate of this kind must have.
func (k GateKind) Arity() int {
	switch k {
	case Const0, Const1, Input:
		return 0
	case Buf, Not, DFF:
		return 1
	case Mux:
		return 3
	default:
		return 2
	}
}

// Combinational reports whether the kind computes a combinational
// function of its fanins (false for Input, constants and DFF).
func (k GateKind) Combinational() bool {
	switch k {
	case Const0, Const1, Input, DFF:
		return false
	}
	return true
}

// Gate is one node of the netlist. ID is its index in Netlist.Gates.
type Gate struct {
	ID    int
	Kind  GateKind
	Fanin []int
	Name  string // diagnostic net name (hierarchical), may be empty
	// Scope is the hierarchical instance path ("u_core.u_alu.") of the
	// module whose elaboration created this gate; it lets the ATPG flow
	// target only the faults inside a module under test after
	// flattening. Empty means the top module (or unknown provenance).
	Scope string
}

// InvariantError is the panic value raised when a construction-time
// invariant is violated (wrong fanin arity, out-of-range gate ID).
// Construction calls are hot paths used by the synthesizer on
// internally-generated IDs, so they panic rather than return errors;
// public API boundaries that construct netlists from less-trusted input
// convert the panic back into an error with RecoverInvariant.
type InvariantError struct {
	Msg string
}

func (e *InvariantError) Error() string { return e.Msg }

func invariantf(format string, args ...interface{}) {
	panic(&InvariantError{Msg: fmt.Sprintf(format, args...)})
}

// CycleError reports a combinational cycle found during topological
// ordering, naming one gate on the cycle.
type CycleError struct {
	Netlist string
	Gate    int
	Kind    GateKind
	Name    string
}

func (e *CycleError) Error() string {
	return fmt.Sprintf("netlist %s: combinational cycle through gate %d (%s %s)",
		e.Netlist, e.Gate, e.Kind, e.Name)
}

// RecoverInvariant is a deferred boundary that converts a netlist
// invariant or cycle panic into an error assigned to *errp; any other
// panic propagates. It lets public constructors (synth.Synthesize,
// core.Transform) return structured errors on malformed logic while the
// construction primitives stay panic-based for provably-internal
// invariants.
func RecoverInvariant(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	switch e := r.(type) {
	case *InvariantError:
		*errp = e
	case *CycleError:
		*errp = e
	default:
		panic(r)
	}
}

// Netlist is a gate-level circuit.
type Netlist struct {
	Name  string
	Gates []*Gate

	// PIs lists primary input gate IDs in declaration order; PINames
	// holds the corresponding names (parallel slice).
	PIs     []int
	PINames []string

	// POs lists the driver gate ID of each primary output, with names
	// in PONames (parallel slice).
	POs     []int
	PONames []string

	// DFFs lists the IDs of all DFF gates, in creation order.
	DFFs []int

	// topoMu guards the derived-view caches below. TopoOrder, Fanouts
	// and Compile are all on the construction path of every simulator
	// and every per-fault PODEM search, so their results are memoized;
	// the mutex makes first use safe when workers sharing the netlist
	// race to compute them. AddGate and SetFanin invalidate all three.
	topoMu        sync.Mutex
	topoCache     []int
	fanoutCache   [][]int
	compiledCache *Compiled
}

// New returns an empty netlist with the given name.
func New(name string) *Netlist {
	return &Netlist{Name: name}
}

// AddGate appends a gate and returns its ID. Fanin arity is validated;
// fanin IDs must already exist (the graph is constructed in topological
// order except for DFF feedback, see SetFanin).
func (n *Netlist) AddGate(kind GateKind, fanin ...int) int {
	if len(fanin) != kind.Arity() {
		invariantf("netlist: %s gate requires %d fanins, got %d", kind, kind.Arity(), len(fanin))
	}
	for _, f := range fanin {
		if f < 0 || f >= len(n.Gates) {
			invariantf("netlist: fanin %d out of range (have %d gates)", f, len(n.Gates))
		}
	}
	id := len(n.Gates)
	n.Gates = append(n.Gates, &Gate{ID: id, Kind: kind, Fanin: append([]int(nil), fanin...)})
	if kind == DFF {
		n.DFFs = append(n.DFFs, id)
	}
	n.invalidateTopo()
	return id
}

// AddInput appends a primary input gate.
func (n *Netlist) AddInput(name string) int {
	id := n.AddGate(Input)
	n.Gates[id].Name = name
	n.PIs = append(n.PIs, id)
	n.PINames = append(n.PINames, name)
	return id
}

// AddOutput marks driver as a primary output with the given name.
func (n *Netlist) AddOutput(name string, driver int) {
	if driver < 0 || driver >= len(n.Gates) {
		invariantf("netlist: output %s driver %d out of range", name, driver)
	}
	n.POs = append(n.POs, driver)
	n.PONames = append(n.PONames, name)
}

// SetFanin rewires one fanin of a gate. Used to close DFF feedback
// loops (the D input may be created after the flop) and by optimizer
// rewrites.
func (n *Netlist) SetFanin(gate, idx, driver int) {
	g := n.Gates[gate]
	if idx < 0 || idx >= len(g.Fanin) {
		invariantf("netlist: fanin index %d out of range for %s gate %d", idx, g.Kind, gate)
	}
	if driver < 0 || driver >= len(n.Gates) {
		invariantf("netlist: driver %d out of range", driver)
	}
	g.Fanin[idx] = driver
	n.invalidateTopo()
}

// NumGates returns the number of logic gates — combinational cells plus
// flip-flops — excluding primary inputs and constants. This is the
// "gate count" reported in the paper's tables.
func (n *Netlist) NumGates() int {
	c := 0
	for _, g := range n.Gates {
		switch g.Kind {
		case Input, Const0, Const1:
		default:
			c++
		}
	}
	return c
}

// NumCombinational returns the number of combinational cells.
func (n *Netlist) NumCombinational() int {
	c := 0
	for _, g := range n.Gates {
		if g.Kind.Combinational() {
			c++
		}
	}
	return c
}

// Stats summarizes a netlist for reports.
type Stats struct {
	Name    string
	PIs     int
	POs     int
	Gates   int // combinational + DFF
	DFFs    int
	Levels  int // combinational depth
	ByKind  map[GateKind]int
	SeqDeep int // sequential depth estimate (longest flop-to-flop chain length through flops)
}

// ComputeStats gathers summary statistics.
func (n *Netlist) ComputeStats() Stats {
	s := Stats{
		Name:   n.Name,
		PIs:    len(n.PIs),
		POs:    len(n.POs),
		Gates:  n.NumGates(),
		DFFs:   len(n.DFFs),
		ByKind: map[GateKind]int{},
	}
	for _, g := range n.Gates {
		s.ByKind[g.Kind]++
	}
	levels := n.Levelize()
	for _, l := range levels {
		if l+1 > s.Levels {
			s.Levels = l + 1
		}
	}
	s.SeqDeep = n.SequentialDepth()
	return s
}

// Levelize assigns a combinational level to every gate: inputs,
// constants and DFF outputs are level 0; every combinational gate is
// 1 + max(level of fanins). The returned slice is indexed by gate ID.
func (n *Netlist) Levelize() []int {
	level := make([]int, len(n.Gates))
	order := n.TopoOrder()
	for _, id := range order {
		g := n.Gates[id]
		if !g.Kind.Combinational() {
			level[id] = 0
			continue
		}
		max := -1
		for _, f := range g.Fanin {
			if level[f] > max {
				max = level[f]
			}
		}
		level[id] = max + 1
	}
	return level
}

// TopoOrder returns all gate IDs in a topological order of the
// combinational graph: a combinational gate appears after all its
// fanins; DFFs, inputs and constants appear before any gate that reads
// them. Panics with a *CycleError if the combinational logic is cyclic
// — callers that construct netlists from untrusted RTL should check
// TopoOrderErr (or Validate) once at their API boundary, after which
// TopoOrder cannot panic.
//
// The order is computed once and memoized (mutating the netlist via
// AddGate or SetFanin invalidates it); concurrent callers share one
// computation. The returned slice is shared: callers must treat it as
// read-only.
func (n *Netlist) TopoOrder() []int {
	order, err := n.TopoOrderErr()
	if err != nil {
		panic(err)
	}
	return order
}

// TopoOrderErr is TopoOrder returning a *CycleError instead of
// panicking when the combinational logic is cyclic.
func (n *Netlist) TopoOrderErr() ([]int, error) {
	n.topoMu.Lock()
	defer n.topoMu.Unlock()
	return n.topoOrderLocked()
}

// topoOrderLocked memoizes the topological order; topoMu must be held.
func (n *Netlist) topoOrderLocked() ([]int, error) {
	if n.topoCache == nil {
		order, err := n.computeTopoOrder()
		if err != nil {
			return nil, err
		}
		n.topoCache = order
	}
	return n.topoCache, nil
}

func (n *Netlist) invalidateTopo() {
	n.topoMu.Lock()
	n.topoCache = nil
	n.fanoutCache = nil
	n.compiledCache = nil
	n.topoMu.Unlock()
}

func (n *Netlist) computeTopoOrder() ([]int, error) {
	order := make([]int, 0, len(n.Gates))
	// 0 = unvisited, 1 = on stack, 2 = done.
	state := make([]byte, len(n.Gates))
	// Non-combinational gates are sources.
	for id, g := range n.Gates {
		if !g.Kind.Combinational() {
			order = append(order, id)
			state[id] = 2
		}
	}
	var stack []int
	for start := range n.Gates {
		if state[start] != 0 {
			continue
		}
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			if state[id] == 0 {
				state[id] = 1
				for _, f := range n.Gates[id].Fanin {
					switch state[f] {
					case 0:
						stack = append(stack, f)
					case 1:
						return nil, &CycleError{Netlist: n.Name, Gate: f,
							Kind: n.Gates[f].Kind, Name: n.Gates[f].Name}
					}
				}
				continue
			}
			stack = stack[:len(stack)-1]
			if state[id] == 1 {
				state[id] = 2
				order = append(order, id)
			}
		}
	}
	return order, nil
}

// Fanouts returns, for each gate ID, the list of gates that read it.
// The result is computed once and memoized alongside the TopoOrder
// cache (mutating the netlist via AddGate or SetFanin invalidates it);
// concurrent first use shares one computation. The returned slices are
// shared: callers must treat them as read-only.
func (n *Netlist) Fanouts() [][]int {
	n.topoMu.Lock()
	defer n.topoMu.Unlock()
	return n.fanoutsLocked()
}

// fanoutsLocked memoizes the fanout lists; topoMu must be held.
func (n *Netlist) fanoutsLocked() [][]int {
	if n.fanoutCache == nil {
		out := make([][]int, len(n.Gates))
		for id, g := range n.Gates {
			for _, f := range g.Fanin {
				out[f] = append(out[f], id)
			}
		}
		n.fanoutCache = out
	}
	return n.fanoutCache
}

// SequentialDepth estimates the sequential depth of the circuit: the
// longest acyclic chain of flip-flops (number of flops on the longest
// PI-to-PO register path). Cycles (state-holding loops) contribute
// their acyclic unrolling only once. This drives the time-frame budget
// heuristic in the ATPG engine.
func (n *Netlist) SequentialDepth() int {
	if len(n.DFFs) == 0 {
		return 0
	}
	// Build flop-to-flop adjacency: flop A feeds flop B if A's output
	// reaches B's D input through combinational logic.
	reach := n.flopAdjacency()
	depth := make(map[int]int, len(n.DFFs))
	visiting := make(map[int]bool, len(n.DFFs))
	var dfs func(f int) int
	dfs = func(f int) int {
		if d, ok := depth[f]; ok {
			return d
		}
		if visiting[f] {
			return 0 // cycle: count each flop once
		}
		visiting[f] = true
		best := 0
		for _, succ := range reach[f] {
			if d := dfs(succ); d > best {
				best = d
			}
		}
		visiting[f] = false
		depth[f] = best + 1
		return best + 1
	}
	max := 0
	for _, f := range n.DFFs {
		if d := dfs(f); d > max {
			max = d
		}
	}
	return max
}

// flopAdjacency returns for each DFF the set of DFFs reachable through
// combinational logic from its output to their D inputs. Each list is
// in n.DFFs order.
func (n *Netlist) flopAdjacency() map[int][]int {
	// For each gate, the set of source flops feeding it through
	// combinational logic, computed in topological order as a bitset
	// over n.DFFs indices.
	bit := make(map[int]int, len(n.DFFs))
	for i, f := range n.DFFs {
		bit[f] = i
	}
	words := (len(n.DFFs) + 63) / 64
	sources := make([][]uint64, len(n.Gates))
	for _, id := range n.TopoOrder() {
		g := n.Gates[id]
		switch {
		case g.Kind == DFF:
			set := make([]uint64, words)
			if i, ok := bit[id]; ok {
				set[i/64] |= 1 << (i % 64)
			}
			sources[id] = set
		case g.Kind.Combinational():
			set := make([]uint64, words)
			for _, f := range g.Fanin {
				for w, v := range sources[f] {
					set[w] |= v
				}
			}
			sources[id] = set
		}
	}
	adj := make(map[int][]int, len(n.DFFs))
	for fi, f := range n.DFFs {
		for w, v := range sources[n.Gates[f].Fanin[0]] {
			for ; v != 0; v &= v - 1 {
				si := w*64 + bits.TrailingZeros64(v)
				if si != fi {
					adj[n.DFFs[si]] = append(adj[n.DFFs[si]], f)
				}
			}
		}
	}
	return adj
}

// Validate checks structural invariants: fanin arity and range, PO
// drivers valid, PI/PO name uniqueness, acyclic combinational logic.
func (n *Netlist) Validate() error {
	for id, g := range n.Gates {
		if g.ID != id {
			return fmt.Errorf("netlist %s: gate %d has ID %d", n.Name, id, g.ID)
		}
		if len(g.Fanin) != g.Kind.Arity() {
			return fmt.Errorf("netlist %s: gate %d (%s) has %d fanins, want %d",
				n.Name, id, g.Kind, len(g.Fanin), g.Kind.Arity())
		}
		for _, f := range g.Fanin {
			if f < 0 || f >= len(n.Gates) {
				return fmt.Errorf("netlist %s: gate %d fanin %d out of range", n.Name, id, f)
			}
		}
	}
	if len(n.PIs) != len(n.PINames) || len(n.POs) != len(n.PONames) {
		return fmt.Errorf("netlist %s: PI/PO name slices out of sync", n.Name)
	}
	seen := map[string]bool{}
	for _, name := range n.PINames {
		if seen[name] {
			return fmt.Errorf("netlist %s: duplicate PI name %q", n.Name, name)
		}
		seen[name] = true
	}
	seen = map[string]bool{}
	for _, name := range n.PONames {
		if seen[name] {
			return fmt.Errorf("netlist %s: duplicate PO name %q", n.Name, name)
		}
		seen[name] = true
	}
	for i, po := range n.POs {
		if po < 0 || po >= len(n.Gates) {
			return fmt.Errorf("netlist %s: PO %s driver out of range", n.Name, n.PONames[i])
		}
	}
	_, err := n.TopoOrderErr()
	return err
}

// PI returns the gate ID of the named primary input, or -1.
func (n *Netlist) PI(name string) int {
	for i, pn := range n.PINames {
		if pn == name {
			return n.PIs[i]
		}
	}
	return -1
}

// PO returns the driver gate ID of the named primary output, or -1.
func (n *Netlist) PO(name string) int {
	for i, pn := range n.PONames {
		if pn == name {
			return n.POs[i]
		}
	}
	return -1
}

// Clone returns a deep copy of the netlist.
func (n *Netlist) Clone() *Netlist {
	c := &Netlist{
		Name:    n.Name,
		Gates:   make([]*Gate, len(n.Gates)),
		PIs:     append([]int(nil), n.PIs...),
		PINames: append([]string(nil), n.PINames...),
		POs:     append([]int(nil), n.POs...),
		PONames: append([]string(nil), n.PONames...),
		DFFs:    append([]int(nil), n.DFFs...),
	}
	for i, g := range n.Gates {
		c.Gates[i] = &Gate{ID: g.ID, Kind: g.Kind, Fanin: append([]int(nil), g.Fanin...), Name: g.Name, Scope: g.Scope}
	}
	return c
}

// EmitVerilog renders the netlist as a structural Verilog module using
// only gate primitives and simple DFF always blocks — the form in which
// FACTOR writes transformed modules to disk.
func (n *Netlist) EmitVerilog() string {
	var sb strings.Builder
	net := func(id int) string { return fmt.Sprintf("n%d", id) }

	// Flip-flops need a clock pin; add one unless a primary input
	// already carries the name.
	needsClk := len(n.DFFs) > 0 && n.PI("clk") < 0
	clkName := "clk"
	for needsClk {
		collides := false
		for _, name := range n.PINames {
			if sanitizeName(name) == clkName {
				collides = true
			}
		}
		for _, name := range n.PONames {
			if sanitizeName(name) == clkName {
				collides = true
			}
		}
		if !collides {
			break
		}
		clkName += "_"
	}
	if !needsClk && len(n.DFFs) > 0 {
		clkName = sanitizeName(n.PINames[indexOf(n, "clk")])
	}

	fmt.Fprintf(&sb, "module %s (", sanitizeName(n.Name))
	first := true
	for _, name := range n.PINames {
		if !first {
			sb.WriteString(", ")
		}
		sb.WriteString(sanitizeName(name))
		first = false
	}
	for _, name := range n.PONames {
		if !first {
			sb.WriteString(", ")
		}
		sb.WriteString(sanitizeName(name))
		first = false
	}
	if needsClk {
		if !first {
			sb.WriteString(", ")
		}
		sb.WriteString(clkName)
	}
	sb.WriteString(");\n")
	for _, name := range n.PINames {
		fmt.Fprintf(&sb, "  input %s;\n", sanitizeName(name))
	}
	for _, name := range n.PONames {
		fmt.Fprintf(&sb, "  output %s;\n", sanitizeName(name))
	}
	if needsClk {
		fmt.Fprintf(&sb, "  input %s;\n", clkName)
	}
	for _, g := range n.Gates {
		switch g.Kind {
		case DFF:
			fmt.Fprintf(&sb, "  reg %s;\n", net(g.ID))
		default:
			// Input gates also get an internal alias wire: the buf
			// below drives it from the port.
			fmt.Fprintf(&sb, "  wire %s;\n", net(g.ID))
		}
	}
	for _, g := range n.Gates {
		switch g.Kind {
		case Input:
			fmt.Fprintf(&sb, "  buf (%s, %s);\n", net(g.ID), sanitizeName(g.Name))
		case Const0:
			fmt.Fprintf(&sb, "  assign %s = 1'b0;\n", net(g.ID))
		case Const1:
			fmt.Fprintf(&sb, "  assign %s = 1'b1;\n", net(g.ID))
		case Buf:
			fmt.Fprintf(&sb, "  buf (%s, %s);\n", net(g.ID), net(g.Fanin[0]))
		case Not:
			fmt.Fprintf(&sb, "  not (%s, %s);\n", net(g.ID), net(g.Fanin[0]))
		case And, Or, Nand, Nor, Xor, Xnor:
			fmt.Fprintf(&sb, "  %s (%s, %s, %s);\n", g.Kind, net(g.ID), net(g.Fanin[0]), net(g.Fanin[1]))
		case Mux:
			fmt.Fprintf(&sb, "  assign %s = %s ? %s : %s;\n",
				net(g.ID), net(g.Fanin[0]), net(g.Fanin[2]), net(g.Fanin[1]))
		case DFF:
			fmt.Fprintf(&sb, "  always @(posedge %s) %s <= %s;\n", clkName, net(g.ID), net(g.Fanin[0]))
		}
	}
	for i, po := range n.POs {
		fmt.Fprintf(&sb, "  buf (%s, %s);\n", sanitizeName(n.PONames[i]), net(po))
	}
	sb.WriteString("endmodule\n")
	return sb.String()
}

func indexOf(n *Netlist, name string) int {
	for i, pn := range n.PINames {
		if pn == name {
			return i
		}
	}
	return 0
}

func sanitizeName(s string) string {
	if s == "" {
		return "unnamed"
	}
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			sb.WriteByte(c)
		default:
			sb.WriteByte('_')
		}
	}
	out := sb.String()
	if out[0] >= '0' && out[0] <= '9' {
		out = "_" + out
	}
	return out
}

// KindCounts renders the per-kind gate counts sorted by kind for
// deterministic reports.
func (s Stats) KindCounts() string {
	var kinds []GateKind
	for k := range s.ByKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s=%d", k, s.ByKind[k]))
	}
	return strings.Join(parts, " ")
}
