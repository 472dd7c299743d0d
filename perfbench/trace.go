package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"factor/internal/atpg"
	"factor/internal/cli"
	"factor/internal/core"
	"factor/internal/design"
	"factor/internal/fault"
	"factor/internal/netlist"
	"factor/internal/service"
	"factor/internal/shard"
	"factor/internal/telemetry"
	"factor/internal/verilog"
)

// tracer takes jobs apart into the public calls service.Build and
// service.RunPipeline make, in their order, and records a span around
// each call. The program's own spans inside a call (parse, extract,
// synth, atpg.random, atpg.deterministic) are adopted as its children.
type tracer struct {
	rec *spanRecorder

	// wall is the traced pass's wall time; refWall is the untraced
	// wall time of the same work.
	wall, refWall float64

	counts         map[string]float64 // deterministic work counts
	randomS, detS  float64            // RunResult.RandomTime, DetTime
	atpgAllocBytes uint64
	mem            memDelta // Go runtime over the untraced pass
	hits, misses   int      // serve-mix: traced hit and miss decompositions
	hitFrontS      float64  // serve-mix: time of the traced hits (their build front)
	missS          float64  // serve-mix: time of the traced misses
	serve          *serveStats
}

func newTracer() *tracer {
	return &tracer{rec: newSpanRecorder(), counts: map[string]float64{}}
}

// built is the traced replay of service.Build's result.
type built struct {
	nl     *netlist.Netlist
	faults []fault.Fault
}

// call records one public call as a span under parent.
func (t *tracer) call(name, job string, parent *spanRec, f func() error) error {
	s := t.rec.begin(name, job, parent)
	err := f()
	s.finish()
	if err != nil {
		return fmt.Errorf("%s: %s: %w", job, name, err)
	}
	return nil
}

// front replays service.Build for a MUT spec (parse → analyze →
// transform → fault universe) under tel.
func (t *tracer) front(ctx context.Context, spec service.JobSpec, job string, parent *spanRec) (*built, error) {
	var src *verilog.SourceFile
	err := t.call("verilog.ParseContext", job, parent, func() (err error) {
		src, err = verilog.ParseContext(ctx, "design.v", spec.Design)
		return err
	})
	if err != nil {
		return nil, err
	}
	params := map[string]int64{}
	if hasParam(src, spec.Top, "W") {
		params["W"] = int64(spec.Width)
	}
	var d *design.Design
	if err := t.call("design.Analyze", job, parent, func() (err error) {
		d, err = design.Analyze(src, spec.Top)
		return err
	}); err != nil {
		return nil, err
	}
	mode := core.ModeComposed
	if spec.Mode == "flat" {
		mode = core.ModeFlat
	}
	var tr *core.Transformed
	if err := t.call("core.TransformContext", job, parent, func() (err error) {
		tr, err = core.TransformContext(ctx, core.NewExtractor(d, mode), spec.MUT, nil, core.TransformOptions{TopParams: params})
		return err
	}); err != nil {
		return nil, err
	}
	b := &built{nl: tr.Netlist}
	_ = t.call("fault.UniverseRestrictedTo", job, parent, func() error {
		b.faults = fault.UniverseRestrictedTo(tr.Netlist, tr.MUTFaultFilter())
		if len(b.faults) == 0 {
			b.faults = fault.Universe(tr.Netlist)
		}
		return nil
	})
	return b, nil
}

// hasParam reports whether module top declares a parameter name.
func hasParam(src *verilog.SourceFile, top, name string) bool {
	m := src.Module(top)
	if m == nil {
		return false
	}
	for _, pd := range m.Params() {
		for _, n := range pd.Names {
			if n == name {
				return true
			}
		}
	}
	return false
}

// address replays the admission side of a submission: the snapshot
// and the content address computed from it.
func (t *tracer) address(spec service.JobSpec, b *built, job string, parent *spanRec) {
	var snap []byte
	_ = t.call("netlist.Snapshot", job, parent, func() error {
		snap = b.nl.Snapshot()
		return nil
	})
	t.counts["snapshot.bytes"] += float64(len(snap))
	_ = t.call("service.Hash", job, parent, func() error {
		service.Hash(snap, spec)
		return nil
	})
}

// atpgCounts are the report fields the traced run must reproduce.
type atpgCounts struct {
	Total, Detected, Random, Det, Untestable, Aborted, NotAttempted, Quarantined, Tests int
	FirstDigest                                                                         string
}

func reportCounts(rep *cli.Report) atpgCounts {
	a := rep.ATPG
	return atpgCounts{a.TotalFaults, a.Detected, a.DetectedRandom, a.DetectedDet, a.Untestable,
		a.Aborted, a.NotAttempted, a.Quarantined, a.Tests, rep.FaultSim.FirstDigest}
}

// runATPG replays the test-generation half of RunPipeline: engine
// construction, the two-phase run, and the first-detection replay.
func (t *tracer) runATPG(ctx context.Context, spec service.JobSpec, b *built, job string, parent *spanRec) (atpgCounts, error) {
	guide, err := atpg.ParseGuide(spec.Guide)
	if err != nil {
		return atpgCounts{}, err
	}
	opts := atpg.Options{
		RandomSequences: spec.RandomSequences,
		RandomSeqLen:    spec.RandomSeqLen,
		BacktrackLimit:  spec.BacktrackLimit,
		MaxFrames:       spec.MaxFrames,
		Seed:            spec.Seed,
		Guide:           guide,
		Workers:         spec.Workers,
		// RunPipeline always installs a checkpoint sink.
		Checkpoint: func(*atpg.Checkpoint) error { return nil },
	}
	var eng *atpg.Engine
	_ = t.call("atpg.New", job, parent, func() error {
		eng = atpg.New(b.nl, opts)
		return nil
	})
	var res *atpg.RunResult
	var allocs runtime.MemStats
	runtime.ReadMemStats(&allocs)
	before := allocs.TotalAlloc
	if err := t.call("atpg.RunContext", job, parent, func() (err error) {
		res, err = eng.RunContext(ctx, b.faults)
		return err
	}); err != nil {
		return atpgCounts{}, err
	}
	runtime.ReadMemStats(&allocs)
	t.atpgAllocBytes += allocs.TotalAlloc - before
	t.randomS += res.RandomTime.Seconds()
	t.detS += res.DetTime.Seconds()
	t.counts["atpg.searches"] += float64(res.Stats.Searches)
	t.counts["atpg.decisions"] += float64(res.Stats.Decisions)
	t.counts["atpg.backtracks"] += float64(res.Stats.Backtracks)
	t.counts["atpg.detected_det"] += float64(res.DetectedDet)
	t.counts["faultsim.events"] += float64(res.Stats.Sim.Events)

	var first []int
	var simStats fault.SimStats
	var simErrs []error
	_ = t.call("fault.FirstDetections", job, parent, func() error {
		first, simStats, simErrs = fault.FirstDetections(ctx, b.nl, b.faults, res.Tests, spec.Workers, time.Time{})
		return nil
	})
	if len(simErrs) > 0 {
		return atpgCounts{}, fmt.Errorf("%s: replay quarantined %d batch(es)", job, len(simErrs))
	}
	t.counts["replay.events"] += float64(simStats.Events)
	return atpgCounts{
		Total: len(b.faults), Detected: res.Result.NumDetected(), Random: res.DetectedRandom,
		Det: res.DetectedDet, Untestable: res.UntestableNum, Aborted: res.AbortedNum,
		NotAttempted: res.NotAttempted, Quarantined: res.QuarantinedNum, Tests: len(res.Tests),
		FirstDigest: shard.DigestFirst(first),
	}, nil
}

// render times the report layer on a report the untraced run produced.
func (t *tracer) render(rep *cli.Report, job string, parent *spanRec) error {
	var data []byte
	err := t.call("cli.Report.Render", job, parent, func() (err error) {
		data, err = rep.Render()
		return err
	})
	t.counts["report.bytes"] += float64(len(data))
	return err
}

// traceJob runs fn under a fresh traced telemetry handle inside a root
// span for job, then adopts the program's spans and counters. It
// returns the root span.
func (t *tracer) traceJob(ctx context.Context, job string, fn func(ctx context.Context, root *spanRec) error) (*spanRec, error) {
	tel := telemetry.New()
	tel.EnableTrace()
	telStart := time.Now()
	root := t.rec.begin("job", job, nil)
	err := fn(telemetry.NewContext(ctx, tel), root)
	root.finish()
	t.rec.adopt(tel, telStart, job)
	c := tel.Counters()
	t.counts["parse.tokens"] += float64(c["parse.tokens"])
	t.counts["extract.work_items"] += float64(c["extract.work_items"])
	t.counts["synth.gates_after"] += float64(c["synth.gates_after"])
	return root, err
}

// atpgJob replays RunPipeline's test-generation half on a replayed
// Build, checks that it did the same work as the untraced run whose
// report is ref, and renders ref.
func (t *tracer) atpgJob(ctx context.Context, job string, spec service.JobSpec, b *built, ref *cli.Report, root *spanRec) error {
	if ref == nil {
		return fmt.Errorf("%s: no untraced report to compare against", job)
	}
	got, err := t.runATPG(ctx, spec, b, job, root)
	if err != nil {
		return err
	}
	if want := reportCounts(ref); got != want {
		return fmt.Errorf("%s: traced run differs from RunPipeline: got %+v, want %+v", job, got, want)
	}
	return t.render(ref, job, root)
}

// layerOf maps a span name to the layer it accounts to. A call's self
// time belongs to the layer it calls into; "job" self time is the
// benchmark's own glue between calls.
var layerOf = map[string]string{
	"verilog.ParseContext":       "parse",
	"parse":                      "parse",
	"design.Analyze":             "analyze",
	"core.TransformContext":      "extract",
	"extract":                    "extract",
	"synth":                      "synth",
	"fault.UniverseRestrictedTo": "universe",
	"netlist.Snapshot":           "snapshot",
	"service.Hash":               "hash",
	"atpg.New":                   "atpg.new",
	"atpg.RunContext":            "atpg.other",
	"atpg.random":                "atpg.random",
	"atpg.deterministic":         "atpg.det",
	"fault.FirstDetections":      "replay",
	"cli.Report.Render":          "report",
	"job":                        "glue",
}

// layerOrder is the table's row order: pipeline order.
var layerOrder = []string{"parse", "analyze", "extract", "synth", "universe", "snapshot", "hash",
	"atpg.new", "atpg.random", "atpg.det", "atpg.other", "replay", "report", "glue"}

// buildFront are the layers a submission's admission Build runs.
var buildFront = []string{"parse", "analyze", "extract", "synth", "universe", "snapshot", "hash"}

func (t *tracer) layerSelf() map[string]float64 {
	out := map[string]float64{}
	for name, s := range t.rec.selfTimes() {
		layer, ok := layerOf[name]
		if !ok {
			layer = "other"
		}
		out[layer] += s
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics derives the per-layer metrics from the traced pass.
func (t *tracer) metrics() map[string]float64 {
	self := t.layerSelf()
	c := t.counts
	m := map[string]float64{
		"atpg.det_s":            t.detS,
		"atpg.searches":         c["atpg.searches"],
		"atpg.decisions":        c["atpg.decisions"],
		"atpg.backtracks":       c["atpg.backtracks"],
		"atpg.ns_per_decision":  1e9 * ratio(t.detS, c["atpg.decisions"]),
		"atpg.search_yield":     ratio(c["atpg.detected_det"], c["atpg.searches"]),
		"atpg.alloc_mb":         float64(t.atpgAllocBytes) / (1 << 20),
		"atpg.new_s":            self["atpg.new"],
		"atpg.random_s":         t.randomS,
		"faultsim.events":       c["faultsim.events"],
		"faultsim.events_per_s": ratio(c["faultsim.events"], t.randomS),
		"replay.busy_s":         self["replay"],
		"replay.events_per_s":   ratio(c["replay.events"], self["replay"]),
		"parse.busy_s":          self["parse"],
		"parse.tokens_per_s":    ratio(c["parse.tokens"], self["parse"]),
		"analyze.busy_s":        self["analyze"],
		"extract.busy_s":        self["extract"],
		"extract.work_items":    c["extract.work_items"],
		"synth.busy_s":          self["synth"],
		"synth.gates_after":     c["synth.gates_after"],
		"snapshot.busy_s":       self["snapshot"],
		"snapshot.bytes":        c["snapshot.bytes"],
		"hash.busy_s":           self["hash"],
		"report.render_s":       self["report"],
		"report.bytes":          c["report.bytes"],
		"gc.cycles":             float64(t.mem.gcCycles),
		"gc.pause_s":            t.mem.pauseS,
		"heap.alloc_mb":         t.mem.allocMB,
		"trace.overhead_s":      t.wall - t.refWall,
		"share.atpg_det":        ratio(t.detS, t.wall),
		"share.fault":           ratio(t.randomS+self["replay"], t.wall),
	}
	if t.serve != nil {
		m["share.build_hit"] = ratio(ratio(t.hitFrontS, float64(t.hits)), t.serve.hitP50/1000)
		for k, v := range t.serve.metrics() {
			m[k] = v
		}
	}
	return m
}

// table renders the per-layer table: self time, its share of the
// traced wall time (the layers' self times add up to it), and the
// layer's counts and rates.
func (t *tracer) table() string {
	self := t.layerSelf()
	c := t.counts
	rates := map[string]string{
		"parse":       fmt.Sprintf("tokens=%.0f tokens/s=%.0f", c["parse.tokens"], ratio(c["parse.tokens"], self["parse"])),
		"extract":     fmt.Sprintf("work_items=%.0f items/s=%.0f", c["extract.work_items"], ratio(c["extract.work_items"], self["extract"])),
		"synth":       fmt.Sprintf("gates_after=%.0f gates/s=%.0f", c["synth.gates_after"], ratio(c["synth.gates_after"], self["synth"])),
		"snapshot":    fmt.Sprintf("bytes=%.0f", c["snapshot.bytes"]),
		"atpg.random": fmt.Sprintf("faultsim.events=%.0f events/s=%.0f", c["faultsim.events"], ratio(c["faultsim.events"], t.randomS)),
		"atpg.det": fmt.Sprintf("searches=%.0f decisions=%.0f backtracks=%.0f ns/decision=%.0f yield=%.3f",
			c["atpg.searches"], c["atpg.decisions"], c["atpg.backtracks"],
			1e9*ratio(t.detS, c["atpg.decisions"]), ratio(c["atpg.detected_det"], c["atpg.searches"])),
		"replay": fmt.Sprintf("events=%.0f events/s=%.0f", c["replay.events"], ratio(c["replay.events"], self["replay"])),
		"report": fmt.Sprintf("bytes=%.0f", c["report.bytes"]),
	}
	var b strings.Builder
	fmt.Fprintf(&b, "layer table: traced wall %.3fs, untraced wall %.3fs, trace overhead %.3fs\n", t.wall, t.refWall, t.wall-t.refWall)
	fmt.Fprintf(&b, "  %-12s %10s %8s  %s\n", "layer", "self_s", "share", "work")
	var front float64
	for _, l := range layerOrder {
		fmt.Fprintf(&b, "  %-12s %10.4f %7.1f%%  %s\n", l, self[l], 100*ratio(self[l], t.wall), rates[l])
	}
	for _, l := range buildFront {
		front += self[l]
	}
	fmt.Fprintf(&b, "  %-12s %10.4f %7.1f%%\n", "build front", front, 100*ratio(front, t.wall))
	if t.serve != nil {
		b.WriteString(t.serve.table(t))
	}
	return b.String()
}

// tracedBatch replays a mut-* batch, already run untraced in the same
// order (its reports are in out.reports), with spans around every
// public call.
func tracedBatch(ctx context.Context, jobs []batchJob, order []int, out *outcome) (*tracer, error) {
	t := newTracer()
	start := time.Now()
	for _, i := range order {
		j := jobs[i]
		_, err := t.traceJob(ctx, j.label, func(ctx context.Context, root *spanRec) error {
			b, err := t.front(ctx, j.spec, j.label, root)
			if err != nil {
				return err
			}
			return t.atpgJob(ctx, j.label, j.spec, b, out.reports[j.label], root)
		})
		if err != nil {
			return nil, err
		}
	}
	t.wall = time.Since(start).Seconds()
	return t, nil
}

// memDelta is the Go runtime's GC and allocation activity over an
// interval.
type memDelta struct {
	gcCycles uint32
	pauseS   float64
	allocMB  float64
}

type memSample runtime.MemStats

func readMem() *memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return (*memSample)(&m)
}

func (now *memSample) since(before *memSample) memDelta {
	return memDelta{
		gcCycles: now.NumGC - before.NumGC,
		pauseS:   float64(now.PauseTotalNs-before.PauseTotalNs) / 1e9,
		allocMB:  float64(now.TotalAlloc-before.TotalAlloc) / (1 << 20),
	}
}
