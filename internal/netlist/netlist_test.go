package netlist

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// buildAdder returns a 1-bit full adder netlist: sum = a^b^cin,
// cout = ab | cin(a^b).
func buildAdder() *Netlist {
	n := New("fa")
	a := n.AddInput("a")
	b := n.AddInput("b")
	cin := n.AddInput("cin")
	axb := n.AddGate(Xor, a, b)
	sum := n.AddGate(Xor, axb, cin)
	ab := n.AddGate(And, a, b)
	cab := n.AddGate(And, cin, axb)
	cout := n.AddGate(Or, ab, cab)
	n.AddOutput("sum", sum)
	n.AddOutput("cout", cout)
	return n
}

// buildCounter returns a 2-bit counter: q0 toggles, q1 = q1 ^ q0.
func buildCounter() *Netlist {
	n := New("cnt2")
	en := n.AddInput("en")
	q0 := n.AddGate(DFF, en) // placeholder fanin, fixed below
	q1 := n.AddGate(DFF, en)
	d0 := n.AddGate(Xor, q0, en)
	carry := n.AddGate(And, q0, en)
	d1 := n.AddGate(Xor, q1, carry)
	n.SetFanin(q0, 0, d0)
	n.SetFanin(q1, 0, d1)
	n.AddOutput("q0", q0)
	n.AddOutput("q1", q1)
	return n
}

func TestAdderStructure(t *testing.T) {
	n := buildAdder()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if n.NumGates() != 5 {
		t.Errorf("NumGates = %d, want 5", n.NumGates())
	}
	if len(n.PIs) != 3 || len(n.POs) != 2 {
		t.Errorf("PIs=%d POs=%d", len(n.PIs), len(n.POs))
	}
	if n.PI("cin") != 2 || n.PI("nope") != -1 {
		t.Errorf("PI lookup broken")
	}
	if n.PO("sum") < 0 || n.PO("nope") != -1 {
		t.Errorf("PO lookup broken")
	}
}

func TestLevelize(t *testing.T) {
	n := buildAdder()
	lv := n.Levelize()
	if lv[n.PI("a")] != 0 {
		t.Errorf("input level = %d, want 0", lv[n.PI("a")])
	}
	if lv[n.PO("sum")] != 2 {
		t.Errorf("sum level = %d, want 2", lv[n.PO("sum")])
	}
	if lv[n.PO("cout")] != 3 {
		t.Errorf("cout level = %d, want 3", lv[n.PO("cout")])
	}
}

func TestTopoOrderProperty(t *testing.T) {
	n := buildCounter()
	order := n.TopoOrder()
	if len(order) != len(n.Gates) {
		t.Fatalf("topo order has %d entries, want %d", len(order), len(n.Gates))
	}
	pos := make([]int, len(n.Gates))
	for i, id := range order {
		pos[id] = i
	}
	for _, g := range n.Gates {
		if !g.Kind.Combinational() {
			continue
		}
		for _, f := range g.Fanin {
			if pos[f] > pos[g.ID] {
				t.Errorf("gate %d appears before its fanin %d", g.ID, f)
			}
		}
	}
}

func TestCombinationalCycleDetected(t *testing.T) {
	n := New("cyc")
	a := n.AddInput("a")
	g1 := n.AddGate(And, a, a)
	g2 := n.AddGate(Or, g1, a)
	n.SetFanin(g1, 1, g2) // cycle g1 -> g2 -> g1
	if err := n.Validate(); err == nil {
		t.Fatal("expected cycle error")
	} else if !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("error %q does not mention cycle", err)
	}
}

func TestDFFFeedbackIsNotACycle(t *testing.T) {
	n := buildCounter()
	if err := n.Validate(); err != nil {
		t.Fatalf("DFF feedback flagged as cycle: %v", err)
	}
}

func TestSequentialDepth(t *testing.T) {
	// Chain of 3 flops: d -> f1 -> f2 -> f3 -> out
	n := New("chain")
	d := n.AddInput("d")
	f1 := n.AddGate(DFF, d)
	f2 := n.AddGate(DFF, f1)
	f3 := n.AddGate(DFF, f2)
	n.AddOutput("q", f3)
	if got := n.SequentialDepth(); got != 3 {
		t.Errorf("chain depth = %d, want 3", got)
	}

	if got := buildAdder().SequentialDepth(); got != 0 {
		t.Errorf("combinational depth = %d, want 0", got)
	}

	// Self-loop flop counts once.
	n2 := New("loop")
	in := n2.AddInput("in")
	f := n2.AddGate(DFF, in)
	x := n2.AddGate(Xor, f, in)
	n2.SetFanin(f, 0, x)
	n2.AddOutput("q", f)
	if got := n2.SequentialDepth(); got != 1 {
		t.Errorf("self-loop depth = %d, want 1", got)
	}
}

func TestStats(t *testing.T) {
	n := buildCounter()
	s := n.ComputeStats()
	if s.DFFs != 2 || s.PIs != 1 || s.POs != 2 {
		t.Errorf("stats: %+v", s)
	}
	if s.Gates != 5 {
		t.Errorf("Gates = %d, want 5 (3 comb + 2 dff)", s.Gates)
	}
	if s.ByKind[Xor] != 2 || s.ByKind[DFF] != 2 {
		t.Errorf("ByKind: %v", s.ByKind)
	}
	if !strings.Contains(s.KindCounts(), "dff=2") {
		t.Errorf("KindCounts: %s", s.KindCounts())
	}
}

func TestClone(t *testing.T) {
	n := buildCounter()
	c := n.Clone()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Mutating the clone must not affect the original.
	c.Gates[2].Fanin[0] = 0
	c.PINames[0] = "changed"
	if n.Gates[2].Fanin[0] == 0 && n.Gates[2].ID == 2 && len(n.Gates[2].Fanin) > 0 {
		// Original d0 fanin was q0 (gate 1); ensure unchanged.
		if n.Gates[3].Fanin[0] == 0 {
			t.Error("clone shares fanin storage with original")
		}
	}
	if n.PINames[0] == "changed" {
		t.Error("clone shares name storage with original")
	}
}

func TestValidateCatchesNameDuplicates(t *testing.T) {
	n := New("dup")
	n.AddInput("a")
	n.AddInput("a")
	if err := n.Validate(); err == nil {
		t.Error("duplicate PI names not caught")
	}
	n2 := New("dup2")
	a := n2.AddInput("a")
	n2.AddOutput("y", a)
	n2.AddOutput("y", a)
	if err := n2.Validate(); err == nil {
		t.Error("duplicate PO names not caught")
	}
}

func TestAddGatePanics(t *testing.T) {
	n := New("p")
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("bad arity", func() { n.AddGate(And, 0) })
	mustPanic("bad fanin", func() { n.AddGate(Not, 42) })
	mustPanic("bad output", func() { n.AddOutput("y", 42) })
}

func TestFanouts(t *testing.T) {
	n := buildAdder()
	fo := n.Fanouts()
	a := n.PI("a")
	if len(fo[a]) != 2 { // a feeds axb and ab
		t.Errorf("fanout of a = %v, want 2 readers", fo[a])
	}
}

func TestEmitVerilogParsesBack(t *testing.T) {
	// The emitted structural Verilog must be self-consistent enough to
	// contain each net exactly once as a wire/reg and reference module
	// ports.
	n := buildCounter()
	v := n.EmitVerilog()
	for _, want := range []string{"module cnt2", "input en;", "output q0;", "always @(posedge clk)", "endmodule"} {
		if !strings.Contains(v, want) {
			t.Errorf("emitted Verilog missing %q:\n%s", want, v)
		}
	}
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"a.b[3]": "a_b_3_",
		"3x":     "_3x",
		"":       "unnamed",
		"ok_1":   "ok_1",
	}
	for in, want := range cases {
		if got := sanitizeName(in); got != want {
			t.Errorf("sanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

// Property: for random DAG construction, TopoOrder is a permutation and
// respects edges.
func TestTopoOrderQuick(t *testing.T) {
	f := func(seed []byte) bool {
		n := New("rand")
		n.AddInput("i0")
		n.AddInput("i1")
		for _, b := range seed {
			sz := len(n.Gates)
			f1 := int(b) % sz
			f2 := int(b>>3) % sz
			switch b % 5 {
			case 0:
				n.AddGate(And, f1, f2)
			case 1:
				n.AddGate(Or, f1, f2)
			case 2:
				n.AddGate(Not, f1)
			case 3:
				n.AddGate(Xor, f1, f2)
			case 4:
				n.AddGate(DFF, f1)
			}
		}
		order := n.TopoOrder()
		if len(order) != len(n.Gates) {
			return false
		}
		pos := make([]int, len(n.Gates))
		seen := make([]bool, len(n.Gates))
		for i, id := range order {
			if seen[id] {
				return false
			}
			seen[id] = true
			pos[id] = i
		}
		for _, g := range n.Gates {
			if !g.Kind.Combinational() {
				continue
			}
			for _, fi := range g.Fanin {
				if pos[fi] > pos[g.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGateKindStrings(t *testing.T) {
	if And.String() != "and" || DFF.String() != "dff" || Mux.String() != "mux" {
		t.Error("GateKind.String broken")
	}
	if GateKind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

// refFlopAdjacency is the direct map-of-sets formulation of
// flopAdjacency, kept as its reference.
func refFlopAdjacency(n *Netlist) map[int][]int {
	sources := make(map[int]map[int]bool, len(n.Gates))
	for _, id := range n.TopoOrder() {
		g := n.Gates[id]
		switch {
		case g.Kind == DFF:
			sources[id] = map[int]bool{id: true}
		case g.Kind.Combinational():
			set := map[int]bool{}
			for _, f := range g.Fanin {
				for s := range sources[f] {
					set[s] = true
				}
			}
			sources[id] = set
		}
	}
	adj := make(map[int][]int, len(n.DFFs))
	for _, f := range n.DFFs {
		src := sources[n.Gates[f].Fanin[0]]
		for _, s := range n.DFFs {
			if s != f && src[s] {
				adj[s] = append(adj[s], f)
			}
		}
	}
	return adj
}

// TestFlopAdjacencyMatchesReference checks the bitset flop adjacency
// against the reference, list order included (SequentialDepth's
// cycle-breaking DFS depends on it), on random circuits with feedback.
func TestFlopAdjacencyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := randomNetlist(rng, 1+rng.Intn(4), 20+rng.Intn(300))
		// Close some register loops: rewire flop D pins to later logic.
		for _, f := range n.DFFs {
			if rng.Intn(3) == 0 {
				n.SetFanin(f, 0, rng.Intn(len(n.Gates)))
			}
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got, want := n.flopAdjacency(), refFlopAdjacency(n); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: flop adjacency %v, reference %v", trial, got, want)
		}
	}
}
