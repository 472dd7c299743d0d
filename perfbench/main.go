// Command perfbench is the repository's benchmark. It runs three
// workloads through the path factord serves — service.RunPipeline and
// the factord HTTP API — checks every report, and prints its metrics.
//
//	bash perfbench/run.sh --workload mut-podem --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end metrics; with --trace 1 a traced run takes each
// job apart into its public calls and the metrics are per layer.
//
// Two more modes drive the single-workload runs as child processes:
// --workload all runs every workload once, and --steady N runs one
// workload N times (seeds 1..N) and prints each end-to-end metric's
// median, quartiles and max/min ratio. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"factor/internal/cli"
)

// workDir holds what a run leaves behind: serve-mix data directories
// (removed when the run ends) and the traced run's span files. It is
// relative to the checkout root the benchmark runs from.
const workDir = ".bench_build/run"

// runConfig is what a workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, runConfig) (*outcome, error){
	"mut-podem": func(ctx context.Context, cfg runConfig) (*outcome, error) {
		return runMutWorkload(ctx, mutPodemJobs(), cfg)
	},
	"mut-random": func(ctx context.Context, cfg runConfig) (*outcome, error) {
		return runMutWorkload(ctx, mutRandomJobs(), cfg)
	},
	"serve-mix": runServeMix,
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"mut-podem", "mut-random", "serve-mix"}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"coverage_pct", "%"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a --trace 1 run prints, on every workload;
// a layer a workload does not reach reads 0.
var perLayer = []metricDef{
	{"atpg.det_s", "s"}, {"atpg.searches", "count"}, {"atpg.decisions", "count"},
	{"atpg.backtracks", "count"}, {"atpg.ns_per_decision", "ns"}, {"atpg.search_yield", "ratio"},
	{"atpg.alloc_mb", "MB"}, {"atpg.new_s", "s"}, {"atpg.random_s", "s"},
	{"faultsim.events", "count"}, {"faultsim.events_per_s", "1/s"},
	{"replay.busy_s", "s"}, {"replay.events_per_s", "1/s"},
	{"parse.busy_s", "s"}, {"parse.tokens_per_s", "1/s"}, {"analyze.busy_s", "s"},
	{"extract.busy_s", "s"}, {"extract.work_items", "count"},
	{"synth.busy_s", "s"}, {"synth.gates_after", "count"},
	{"snapshot.busy_s", "s"}, {"snapshot.bytes", "bytes"}, {"hash.busy_s", "s"},
	{"report.render_s", "s"}, {"report.bytes", "bytes"},
	{"queue.wait_s", "s"}, {"runner.busy_s", "s"},
	{"http.submit_hit_s", "s"}, {"http.submit_miss_s", "s"}, {"http.report_s", "s"},
	{"journal.flushes", "count"}, {"service.cache_hits", "count"}, {"service.cache_misses", "count"},
	{"store.bytes_written", "bytes"},
	{"serve.hit_p50_ms", "ms"}, {"serve.hit_tail_ms", "ms"}, {"serve.hit_tail_pct", "%"}, {"serve.hits", "count"},
	{"serve.miss_p50_ms", "ms"}, {"serve.miss_tail_ms", "ms"}, {"serve.miss_tail_pct", "%"}, {"serve.misses", "count"},
	{"serve.req_per_s", "1/s"},
	{"gc.cycles", "count"}, {"gc.pause_s", "s"}, {"heap.alloc_mb", "MB"},
	{"trace.overhead_s", "s"},
	{"share.atpg_det", "ratio"}, {"share.fault", "ratio"}, {"share.build_hit", "ratio"},
}

// outcome is what a workload run produced.
type outcome struct {
	attempted, failed int
	failures          []string

	e2e    map[string]float64 // --trace 0
	layers map[string]float64 // --trace 1

	ledger  *reportLedger
	reports map[string]*cli.Report // last report per job label
	table   string                 // the traced run's per-layer table
	spans   *spanRecorder
	notes   []string
}

func newOutcome() *outcome {
	return &outcome{ledger: newReportLedger(), reports: map[string]*cli.Report{}}
}

// fail counts one failed operation.
func (o *outcome) fail(err error) {
	o.failed++
	o.failures = append(o.failures, err.Error())
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect picks the defined metrics out of values; a missing one is an
// error unless zeroOK.
func collect(defs []metricDef, values map[string]float64, zeroOK bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !zeroOK {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: finite(v), Unit: d.unit}
	}
	return out, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: mut-podem, mut-random, serve-mix, or all")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "measuring time of one run, in seconds")
	trace := fs.Int("trace", 0, "1: traced run printing per-layer metrics")
	steady := fs.Int("steady", 0, "run the workload this many times (seeds 1..N) and print each end-to-end metric's spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> [--steady N]")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	switch {
	case *name == "all":
		return runAll(cfg, stdout, stderr)
	case *steady > 0:
		return runSteady(*name, *steady, cfg, stdout, stderr)
	}
	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	out, err := fn(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	fmt.Fprintln(stdout, hostLine(*name, *seed))
	fmt.Fprint(stdout, out.ledger)
	for _, n := range out.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, f := range out.failures {
		fmt.Fprintf(stdout, "FAILED %s\n", f)
	}
	fmt.Fprint(stdout, out.table)

	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed}
	if cfg.trace {
		res.Metrics, err = collect(perLayer, out.layers, true)
		if err == nil && out.spans != nil {
			path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
			if err = out.spans.writeFile(path); err == nil {
				fmt.Fprintf(stdout, "spans written to %s\n", path)
			}
		}
	} else {
		res.Metrics, err = collect(endToEnd, out.e2e, false)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	printMetrics(stdout, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct || res.Attempted < 1 {
		return 1
	}
	return 0
}

// printMetrics prints one "metric <name> <value> <unit>" line each, by
// name.
func printMetrics(w io.Writer, m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-24s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
