package fault

import (
	"factor/internal/netlist"
	"factor/internal/sim"
)

// RandomSequences generates nSeqs input sequences of cycles vectors
// each, drawn from a single LCG stream seeded with seed and assigned to
// the netlist's primary inputs in PINames order. The stream persists
// across sequences, so the result is a pure function of (seed, PI name
// list, nSeqs, cycles) — byte-identical across processes, worker counts
// and shard boundaries, which is what lets a re-exec'd shard regenerate
// the exact stimulus its parent planned without shipping vectors over
// the wire.
func RandomSequences(nl *netlist.Netlist, seed uint64, nSeqs, cycles int) []Sequence {
	seqs := make([]Sequence, nSeqs)
	rng := seed
	for s := range seqs {
		seq := make(Sequence, cycles)
		for t := range seq {
			vec := make(Vector, len(nl.PINames))
			for _, name := range nl.PINames {
				rng = rng*6364136223846793005 + 1442695040888963407
				vec[name] = sim.Logic((rng >> 33) & 1)
			}
			seq[t] = vec
		}
		seqs[s] = seq
	}
	return seqs
}
