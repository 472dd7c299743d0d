package fault_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"factor/internal/arm"
	"factor/internal/core"
	"factor/internal/design"
	"factor/internal/designgen"
	"factor/internal/fault"
	"factor/internal/netlist"
	"factor/internal/synth"
	"factor/internal/verilog"
)

// universeMapOracle is the map-based fault universe the dense
// fault.Universe replaced, kept as its differential oracle: union-find
// over map[key]key, classes grouped in map[key][]key, one
// representative per class, then a sort.
func universeMapOracle(n *netlist.Netlist) []fault.Fault {
	fanouts := n.Fanouts()
	type key struct {
		site fault.Site
		sa1  bool
	}
	parent := map[key]key{}
	var find func(k key) key
	find = func(k key) key {
		p, ok := parent[k]
		if !ok || p == k {
			return k
		}
		root := find(p)
		parent[k] = root
		return root
	}
	union := func(a, b key) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	isSite := func(gate int) bool {
		k := n.Gates[gate].Kind
		return k != netlist.Const0 && k != netlist.Const1
	}

	var all []key
	for _, g := range n.Gates {
		if !isSite(g.ID) {
			continue
		}
		all = append(all, key{fault.Site{Gate: g.ID, Pin: -1}, false}, key{fault.Site{Gate: g.ID, Pin: -1}, true})
		for pin, drv := range g.Fanin {
			if len(fanouts[drv]) > 1 {
				all = append(all, key{fault.Site{Gate: g.ID, Pin: pin}, false}, key{fault.Site{Gate: g.ID, Pin: pin}, true})
			}
		}
	}
	for _, g := range n.Gates {
		out := func(sa1 bool) key { return key{fault.Site{Gate: g.ID, Pin: -1}, sa1} }
		in := func(pin int, sa1 bool) (key, bool) {
			drv := g.Fanin[pin]
			if len(fanouts[drv]) > 1 {
				return key{fault.Site{Gate: g.ID, Pin: pin}, sa1}, true
			}
			return key{fault.Site{Gate: drv, Pin: -1}, sa1}, isSite(drv)
		}
		type rule struct {
			pins        int
			inSA, outSA []bool
		}
		var r rule
		switch g.Kind {
		case netlist.Buf, netlist.DFF:
			r = rule{1, []bool{false, true}, []bool{false, true}}
		case netlist.Not:
			r = rule{1, []bool{false, true}, []bool{true, false}}
		case netlist.And:
			r = rule{2, []bool{false}, []bool{false}}
		case netlist.Nand:
			r = rule{2, []bool{false}, []bool{true}}
		case netlist.Or:
			r = rule{2, []bool{true}, []bool{true}}
		case netlist.Nor:
			r = rule{2, []bool{true}, []bool{false}}
		}
		for pin := 0; pin < r.pins; pin++ {
			for i, sa1 := range r.inSA {
				if k, ok := in(pin, sa1); ok {
					union(k, out(r.outSA[i]))
				}
			}
		}
	}

	better := func(a, b key) bool {
		if (a.site.Pin < 0) != (b.site.Pin < 0) {
			return a.site.Pin < 0
		}
		if a.site.Gate != b.site.Gate {
			return a.site.Gate < b.site.Gate
		}
		if a.site.Pin != b.site.Pin {
			return a.site.Pin < b.site.Pin
		}
		return !a.sa1 && b.sa1
	}
	classes := map[key][]key{}
	for _, k := range all {
		root := find(k)
		classes[root] = append(classes[root], k)
	}
	var out []fault.Fault
	for _, members := range classes {
		rep := members[0]
		for _, m := range members[1:] {
			if better(m, rep) {
				rep = m
			}
		}
		out = append(out, fault.Fault{Site: rep.site, SAOne: rep.sa1})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Gate != b.Gate {
			return a.Gate < b.Gate
		}
		if a.Pin != b.Pin {
			return a.Pin < b.Pin
		}
		return !a.SAOne && b.SAOne
	})
	return out
}

func checkUniverse(t *testing.T, name string, nl *netlist.Netlist) {
	t.Helper()
	want := universeMapOracle(nl)
	got := fault.Universe(nl)
	if len(got) == 0 {
		t.Fatalf("%s: empty fault universe", name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: dense universe (%d faults) differs from the map oracle (%d faults)", name, len(got), len(want))
	}
}

// TestUniverseMatchesMapOracle compares the dense fault universe with
// the map-based oracle on every ARM MUT's transformed module, in flat
// and composed extraction, and on a designgen corpus.
func TestUniverseMatchesMapOracle(t *testing.T) {
	src, err := arm.Parse()
	if err != nil {
		t.Fatal(err)
	}
	d, err := design.Analyze(src, arm.Top)
	if err != nil {
		t.Fatal(err)
	}
	for _, mut := range arm.MUTs() {
		for _, mode := range []core.Mode{core.ModeFlat, core.ModeComposed} {
			tr, err := core.Transform(core.NewExtractor(d, mode), mut.Path, nil,
				core.TransformOptions{TopParams: map[string]int64{"W": arm.DefaultWidth}})
			if err != nil {
				t.Fatalf("%s mode %d: %v", mut.Path, mode, err)
			}
			checkUniverse(t, fmt.Sprintf("%s mode %d", mut.Path, mode), tr.Netlist)
		}
	}
	for seed := int64(1); seed <= 12; seed++ {
		gsrc, err := verilog.Parse("design.v", designgen.Generate(seed, designgen.DefaultConfig()).Text())
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		res, err := synth.Synthesize(gsrc, "top", synth.Options{})
		if err != nil {
			t.Fatalf("seed %d: synth: %v", seed, err)
		}
		checkUniverse(t, fmt.Sprintf("designgen seed %d", seed), res.Netlist)
	}
}

var universeSink []fault.Fault

// BenchmarkUniverse times the dense fault universe against the map
// oracle on the flat exception unit's transformed module.
func BenchmarkUniverse(b *testing.B) {
	src, err := arm.Parse()
	if err != nil {
		b.Fatal(err)
	}
	d, err := design.Analyze(src, arm.Top)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := core.Transform(core.NewExtractor(d, core.ModeFlat), "u_core.u_exc", nil,
		core.TransformOptions{TopParams: map[string]int64{"W": arm.DefaultWidth}})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		fn   func(*netlist.Netlist) []fault.Fault
	}{{"dense", fault.Universe}, {"map", universeMapOracle}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				universeSink = bc.fn(tr.Netlist)
			}
		})
	}
}
