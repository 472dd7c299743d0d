// Command factor is the FACTOR constraint extractor: it reads a
// Verilog design, extracts the functional constraints surrounding a
// module under test, and writes the transformed module (MUT + virtual
// environment) as synthesizable Verilog.
//
// Usage:
//
//	factor -mut <instance.path>[,<instance.path>...] [-design file.v]
//	       [-top name] [-mode flat|composed] [-piers] [-o out.v]
//	       [-dir outdir] [-j N] [-stats] [-timeout d] [-report file.json]
//	       [-trace out.json] [-progress auto|on|off]
//	       [-cpuprofile f] [-memprofile f]
//
// Without -design the built-in ARM2-class benchmark SoC is used.
// Several comma-separated MUT paths are extracted concurrently over -j
// workers (0 = all CPU cores) with a shared constraint cache, so
// intermediate modules common to several MUTs are analyzed once;
// multi-MUT mode requires -dir and writes one subdirectory per MUT.
//
// In multi-MUT mode a failing MUT does not abort its siblings: the
// healthy MUTs are written normally, the failure is reported on stderr
// (and in the -report JSON), and the process exits 3. Exit codes:
// 0 success, 1 error (nothing produced), 2 usage, 3 partial.
//
// With -atpg the command runs the full pipeline instead — extract (if
// -mut is given) → synth → ATPG → first-detection replay — through the
// same internal/service.RunPipeline the factord job server uses, so
// the -report bytes are byte-identical to the report the server
// stores for an equivalent job submission (conformance invariant I8).
// In -atpg mode -mut is optional (empty targets the whole top) and the
// ATPG knobs -seed/-seqs/-seqlen/-frames/-backtracks/-guide apply. The
// extraction-only flags -piers, -stats, -o and -dir have no effect on
// the pipeline, so setting any of them with -atpg is a usage error
// (exit 2).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"factor/internal/arm"
	"factor/internal/cli"
	"factor/internal/core"
	"factor/internal/design"
	"factor/internal/factorerr"
	"factor/internal/failpoint"
	"factor/internal/service"
	"factor/internal/telemetry"
	"factor/internal/verilog"
)

func main() {
	designFile := flag.String("design", "", "Verilog design file (default: built-in ARM benchmark)")
	top := flag.String("top", "", "top module (default: first module, or 'arm' for the built-in design)")
	mut := flag.String("mut", "", "hierarchical instance path(s) of the module(s) under test, comma-separated (required)")
	mode := flag.String("mode", "composed", "extraction mode: flat | composed")
	piers := flag.Bool("piers", false, "identify PIERs and add load/observe points to the netlist view")
	out := flag.String("o", "", "write the transformed Verilog here (default stdout)")
	outDir := flag.String("dir", "", "write one file per module into this directory (the paper's \"retains the original directory structure\")")
	stats := flag.Bool("stats", true, "print extraction statistics to stderr")
	width := flag.Int("width", 16, "datapath width parameter W (built-in design)")
	workers := flag.Int("j", 0, "worker goroutines for multi-MUT extraction (0 = all CPU cores)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for extraction + synthesis (0 = none)")
	report := flag.String("report", "", "write a machine-readable run report (JSON) to this file")
	atpgMode := flag.Bool("atpg", false, "run the full pipeline (extract, synth, ATPG, fault-sim replay) via the service code path")
	seed := flag.Int64("seed", 1, "ATPG random-phase seed (-atpg mode)")
	seqs := flag.Int("seqs", 0, "random sequences (-atpg mode, 0 = default)")
	seqLen := flag.Int("seqlen", 0, "cycles per random sequence (-atpg mode, 0 = derive)")
	frames := flag.Int("frames", 0, "time-frame budget (-atpg mode, 0 = derive)")
	backtracks := flag.Int("backtracks", 0, "PODEM backtrack limit (-atpg mode, 0 = default)")
	guide := flag.String("guide", "default", "PODEM backtrace cost model (-atpg mode): default or scoap")
	rf := cli.RegisterRunFlags()
	flag.Parse()

	if *atpgMode {
		if err := atpgFlagConflicts(flag.CommandLine); err != nil {
			cli.Usagef("factor", "%v", err)
		}
		runATPGPipeline(atpgArgs{
			designFile: *designFile, top: *top, width: *width, mut: *mut,
			mode: *mode, seed: *seed, seqs: *seqs, seqLen: *seqLen,
			frames: *frames, backtracks: *backtracks, guide: *guide,
			workers: *workers, timeout: *timeout, report: *report, rf: rf,
		})
		return
	}
	if *mut == "" {
		cli.Usagef("factor", "-mut is required (e.g. -mut u_core.u_alu)")
	}
	muts := strings.Split(*mut, ",")
	for i := range muts {
		muts[i] = strings.TrimSpace(muts[i])
	}
	if len(muts) > 1 && *outDir == "" {
		cli.Usagef("factor", "multiple -mut paths require -dir (one subdirectory per MUT)")
	}
	m := core.ModeComposed
	if *mode == "flat" {
		m = core.ModeFlat
	} else if *mode != "composed" {
		cli.Usagef("factor", "unknown mode %q", *mode)
	}

	ctx, stop := cli.SignalContext(*timeout)
	defer stop()
	tel, finishTel, err := rf.Start("factor")
	if err != nil {
		cli.Fatal("factor", err)
	}
	failpoint.SetCanceler(stop)
	ctx = telemetry.NewContext(ctx, tel)

	src, topName, params, err := loadDesign(ctx, *designFile, *top, *width)
	if err != nil {
		cli.Fatal("factor", err)
	}
	span := tel.StartSpan("analyze")
	d, err := design.Analyze(src, topName)
	span.End()
	if err != nil {
		cli.Fatal("factor", factorerr.Wrap(factorerr.StageAnalyze, factorerr.CodeAnalysis, err))
	}

	ext := core.NewExtractor(d, m)
	start := time.Now()
	span = tel.StartSpan("transform")
	trs, runErr := core.TransformAll(ctx, ext, muts, nil, core.TransformOptions{
		TopParams:   params,
		EnablePIERs: *piers,
	}, *workers)
	span.End()
	elapsed := time.Since(start)
	if err := finishTel(); err != nil {
		fmt.Fprintf(os.Stderr, "factor: %s\n", factorerr.FormatChain(err))
	}

	// Write outputs for every MUT that made it; failed MUTs left nil
	// entries and are reported below.
	multi := len(muts) > 1
	for _, tr := range trs {
		if tr == nil {
			continue
		}
		if *outDir != "" {
			// Each MUT gets its own subdirectory in multi-MUT mode so
			// specialized modules of different MUTs cannot collide.
			dir := *outDir
			if multi {
				dir = filepath.Join(dir, strings.ReplaceAll(tr.MUTPath, ".", "_"))
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				cli.Fatal("factor", factorerr.Wrap(factorerr.StageIO, factorerr.CodeIO, err))
			}
			for _, m := range tr.Source.Modules {
				path := filepath.Join(dir, m.Name+".v")
				if err := os.WriteFile(path, []byte(verilog.Print(m)), 0o644); err != nil {
					cli.Fatal("factor", factorerr.Wrap(factorerr.StageIO, factorerr.CodeIO, err))
				}
			}
			fmt.Fprintf(os.Stderr, "factor: wrote %d module files to %s\n", len(tr.Source.Modules), dir)
		} else {
			text := verilog.PrintFile(tr.Source)
			if *out == "" {
				fmt.Print(text)
			} else if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
				cli.Fatal("factor", factorerr.Wrap(factorerr.StageIO, factorerr.CodeIO, err))
			}
		}
	}

	if *stats {
		for _, tr := range trs {
			if tr == nil {
				continue
			}
			fmt.Fprintf(os.Stderr, "factor: MUT %s (%s), mode %s\n", tr.MUTModule, tr.MUTPath, tr.Mode)
			fmt.Fprintf(os.Stderr, "  transformed top: %s\n", tr.TopName)
			fmt.Fprintf(os.Stderr, "  MUT gates: %d, environment gates: %d\n", tr.MUTGates, tr.EnvGates)
			fmt.Fprintf(os.Stderr, "  interface: %d PIs, %d POs\n", tr.PIs, tr.POs)
			fmt.Fprintf(os.Stderr, "  PIERs: %d\n", len(tr.PIERs))
			fmt.Fprintf(os.Stderr, "  extraction %v (%d work items), synthesis %v\n",
				tr.ExtractTime.Round(time.Microsecond), tr.WorkItems,
				tr.SynthTime.Round(time.Microsecond))
			for _, dg := range tr.Diags {
				fmt.Fprintf(os.Stderr, "  testability: %s\n", dg)
			}
			for _, w := range tr.Warnings {
				fmt.Fprintf(os.Stderr, "  synth: %s\n", w)
			}
		}
		fmt.Fprintf(os.Stderr, "factor: %d MUT(s) in %v; cache hits %d, misses %d\n",
			len(trs), elapsed.Round(time.Microsecond), ext.CacheHits, ext.CacheMisses)
		fmt.Fprint(os.Stderr, tel.Summary())
	}

	if *report != "" {
		rep := cli.NewReport("factor", runErr)
		rep.AttachTelemetry(tel)
		degraded := 0
		for _, tr := range trs {
			if tr == nil {
				degraded++
			}
		}
		rep.AttachDegraded(0, degraded)
		for i, tr := range trs {
			mr := cli.MUTReport{Path: muts[i], OK: tr != nil}
			if tr != nil {
				mr.Gates = tr.MUTGates + tr.EnvGates
				mr.PIs = tr.PIs
				mr.POs = tr.POs
				mr.PIERs = len(tr.PIERs)
			}
			rep.MUTs = append(rep.MUTs, mr)
		}
		if err := rep.Write(*report); err != nil {
			cli.Fatal("factor", err)
		}
	}

	if runErr != nil {
		fmt.Fprintf(os.Stderr, "factor: %s\n", factorerr.FormatChain(runErr))
		os.Exit(factorerr.ExitCode(runErr))
	}
}

// extractionOnlyFlags are parsed for extraction mode but never reach
// the -atpg pipeline: it adds no PIERs, prints no extraction statistics
// and writes no transformed Verilog.
var extractionOnlyFlags = map[string]bool{"piers": true, "stats": true, "o": true, "dir": true}

// atpgFlagConflicts rejects the extraction-only flags set explicitly on
// the command line of an -atpg run, so no flag is silently ignored.
func atpgFlagConflicts(fs *flag.FlagSet) error {
	var set []string
	fs.Visit(func(f *flag.Flag) {
		if extractionOnlyFlags[f.Name] {
			set = append(set, "-"+f.Name)
		}
	})
	if len(set) == 0 {
		return nil
	}
	return fmt.Errorf("%s cannot be used with -atpg: the pipeline adds no PIERs, prints no extraction statistics and writes no Verilog (use -report for its report)",
		strings.Join(set, ", "))
}

// atpgArgs carries the -atpg mode flag values.
type atpgArgs struct {
	designFile, top, mut, mode, guide string
	width                             int
	seed                              int64
	seqs, seqLen, frames, backtracks  int
	workers                           int
	timeout                           time.Duration
	report                            string
	rf                                *cli.RunFlags
}

// runATPGPipeline is the -atpg mode body: the same
// service.RunPipeline the factord job server runs, so the -report
// bytes are byte-identical to the server's stored report for an
// equivalent submission.
func runATPGPipeline(a atpgArgs) {
	ctx, stop := cli.SignalContext(a.timeout)
	defer stop()
	tel, finishTel, err := a.rf.Start("factor")
	if err != nil {
		cli.Fatal("factor", err)
	}
	failpoint.SetCanceler(stop)

	spec := service.JobSpec{
		Top:             a.top,
		Width:           a.width,
		MUT:             a.mut,
		Mode:            a.mode,
		Seed:            a.seed,
		RandomSequences: a.seqs,
		RandomSeqLen:    a.seqLen,
		BacktrackLimit:  a.backtracks,
		MaxFrames:       a.frames,
		Guide:           a.guide,
		Workers:         a.workers,
	}
	if a.designFile != "" {
		data, err := os.ReadFile(a.designFile)
		if err != nil {
			cli.Fatal("factor", factorerr.Wrap(factorerr.StageIO, factorerr.CodeInput, err))
		}
		spec.Design = string(data)
	}

	rep, _, runErr := service.RunPipeline(ctx, spec, service.RunConfig{Tel: tel})
	if err := finishTel(); err != nil {
		cli.Warn("factor", err)
	}
	if runErr != nil {
		cli.Fatal("factor", runErr)
	}

	fmt.Fprintf(os.Stderr, "factor: %d faults, %.2f%% coverage, %.2f%% efficiency, %d tests (replay detected %d)\n",
		rep.ATPG.TotalFaults, rep.ATPG.Coverage, rep.ATPG.Efficiency, rep.ATPG.Tests, rep.FaultSim.Detected)
	if a.report != "" {
		if err := rep.Write(a.report); err != nil {
			cli.Fatal("factor", err)
		}
	} else if _, err := rep.WriteTo(os.Stdout); err != nil {
		cli.Fatal("factor", err)
	}
	if rep.ExitCode != 0 {
		os.Exit(rep.ExitCode)
	}
}

func loadDesign(ctx context.Context, file, top string, width int) (*verilog.SourceFile, string, map[string]int64, error) {
	if file == "" {
		src, err := arm.ParseContext(ctx)
		if err != nil {
			return nil, "", nil, factorerr.Wrap(factorerr.StageParse, factorerr.CodeInput, err)
		}
		if top == "" {
			top = arm.Top
		}
		return src, top, map[string]int64{"W": int64(width)}, nil
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, "", nil, factorerr.Wrap(factorerr.StageIO, factorerr.CodeInput, err)
	}
	src, err := verilog.ParseContext(ctx, file, string(data))
	if err != nil {
		return nil, "", nil, factorerr.Wrap(factorerr.StageParse, factorerr.CodeInput, err)
	}
	if top == "" {
		if len(src.Modules) == 0 {
			return nil, "", nil, factorerr.New(factorerr.StageParse, factorerr.CodeInput, "%s: no modules", file)
		}
		top = src.Modules[0].Name
	}
	return src, top, nil, nil
}
