package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"factor/internal/arm"
	"factor/internal/service"
	"factor/internal/telemetry"
)

// batchJob is one job of a mut-* batch: a label for the output and
// the spec the program receives.
type batchJob struct {
	label string
	spec  service.JobSpec
}

// armSpec is a job on the built-in ARM design, uploaded as source text
// the way a factord client sends it. Every result-shaping field is set
// explicitly so the traced run can replay Build without the service's
// private defaulting, and every job runs on one worker.
func armSpec(mut, mode string, backtracks, randomSeqs int, seed int64) service.JobSpec {
	return service.JobSpec{
		Design:          arm.Source(),
		Top:             arm.Top,
		Width:           arm.DefaultWidth,
		MUT:             mut,
		Mode:            mode,
		Seed:            seed,
		RandomSequences: randomSeqs,
		BacktrackLimit:  backtracks,
		Guide:           "default",
		Workers:         1,
	}
}

// pinnedJobSeed is the JobSpec.Seed of every mut-* job: the served
// default. The workload seed orders the batch instead, because the
// ALU's coverage is bimodal in JobSpec.Seed (9.7% at seed 1, 17.2% at
// seed 2 at backtrack limit 8), so a seed-varied spec would measure
// seed luck rather than the code.
const pinnedJobSeed = 1

// mutPodemJobs are paper MUTs in composed mode; the deterministic PODEM
// phase does most of the work. The ALU runs at backtrack limit 1, a
// shallow search that aborts on every fault, over at most two time
// frames; exc at 16 adds deep searches; the forwarding unit runs at 4.
// The ALU and exc take 16 random sequences, not the default 64, so the
// random phase leaves more faults to PODEM: with the default budget on
// jobs this short, PODEM's share of the batch fell under 80%. The
// limits keep the batch near five seconds, so a 30-second run times
// every job about six times and each median can set a burst of host
// noise aside. At backtrack limit 8 and the default frame bound the
// ALU's report counts some faults as both aborted and detected, which
// the output check rejects — a program defect that is still open (see
// README.md, "Output checks").
func mutPodemJobs() []batchJob {
	alu := armSpec("u_core.u_alu", "composed", 1, 16, pinnedJobSeed)
	alu.MaxFrames = 2
	return []batchJob{
		{"alu/composed/bt1/f2/rs16", alu},
		{"exc/composed/bt16/rs16", armSpec("u_core.u_exc", "composed", 16, 16, pinnedJobSeed)},
		{"fwd/composed/bt4", armSpec("u_core.u_fwd", "composed", 4, 0, pinnedJobSeed)},
	}
}

// mutRandomJobs are flat-mode jobs with a large random budget and a
// one-backtrack PODEM limit: fault simulation does most of the work.
// 512 sequences keep a job under about two seconds, so a 30-second run
// times each job about nine times; at 1024 a job took about four
// seconds and held 300 MB.
func mutRandomJobs() []batchJob {
	return []batchJob{
		{"exc/flat/rs512", armSpec("u_core.u_exc", "flat", 1, 512, pinnedJobSeed)},
		{"fwd/flat/rs512", armSpec("u_core.u_fwd", "flat", 1, 512, pinnedJobSeed)},
	}
}

// setupRepeats is how many times a run repeats its set-up; setup_s is
// the median.
const setupRepeats = 31

// batchSetup builds every job's front once per repetition (parse,
// analyze, extract, synthesize) and returns the median wall time of a
// repetition.
func batchSetup(ctx context.Context, jobs []batchJob, repeats int) (float64, error) {
	var times []float64
	for range repeats {
		start := time.Now()
		for _, j := range jobs {
			if _, err := service.Build(ctx, j.spec); err != nil {
				return 0, fmt.Errorf("building %s: %w", j.label, err)
			}
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), nil
}

// batchTotals is the outcome of one batch.
type batchTotals struct {
	wall            float64 // seconds
	detected, total int
}

// runBatch runs the jobs in order through service.RunPipeline, as
// factord's runner does, checks every report, records its hash in the
// ledger and keeps it in out.reports. A failed job is counted and
// logged, and the batch goes on.
func runBatch(ctx context.Context, jobs []batchJob, order []int, out *outcome) batchTotals {
	var bt batchTotals
	start := time.Now()
	for _, i := range order {
		j := jobs[i]
		out.attempted++
		cr, err := runOne(ctx, j, out)
		if err != nil {
			out.fail(err)
			continue
		}
		bt.detected += cr.Detected
		bt.total += cr.TotalFaults
	}
	bt.wall = time.Since(start).Seconds()
	return bt
}

func runOne(ctx context.Context, j batchJob, out *outcome) (checkedReport, error) {
	rep, _, err := service.RunPipeline(ctx, j.spec, service.RunConfig{Tel: telemetry.New()})
	if err != nil {
		return checkedReport{}, fmt.Errorf("%s: %w", j.label, err)
	}
	data, err := rep.Render()
	if err != nil {
		return checkedReport{}, fmt.Errorf("%s: rendering report: %w", j.label, err)
	}
	out.reports[j.label] = rep
	return out.ledger.add(j.label, data)
}

// runMutWorkload measures a mut-* workload: set-up, then rounds for
// about the measuring time (at least one), each running every job once
// in an order drawn from the workload seed. With trace, it runs an untraced,
// a traced and another untraced batch instead and reports the
// per-layer metrics.
func runMutWorkload(ctx context.Context, jobs []batchJob, cfg runConfig) (*outcome, error) {
	out := newOutcome()
	rng := rand.New(rand.NewSource(cfg.seed))
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	setup, err := batchSetup(ctx, jobs, repeats)
	if err != nil {
		return nil, err
	}

	if cfg.trace {
		// Untraced, traced, untraced: the untraced wall time is the mean
		// of the batches either side, so warm-up does not land on one
		// side of the trace overhead.
		order := rng.Perm(len(jobs))
		before := readMem()
		first := runBatch(ctx, jobs, order, out)
		mem := readMem().since(before)
		tr, err := tracedBatch(ctx, jobs, order, out)
		if err != nil {
			return nil, err
		}
		last := runBatch(ctx, jobs, order, out)
		tr.refWall = (first.wall + last.wall) / 2
		tr.mem = mem
		out.layers = tr.metrics()
		out.table = tr.table()
		out.spans = tr.rec
		return out, nil
	}

	// Each job is one timed unit. Before it the heap is collected and
	// returned to the system and the resident-set mark reset, so every
	// sample starts from the same state; each job's time and peak are
	// medians over the rounds, which sets a burst of host noise aside.
	rss, err := startPeakRSS()
	if err != nil {
		return nil, err
	}
	walls := make([][]float64, len(jobs))
	peaks := make([][]float64, len(jobs))
	var first batchTotals
	start := time.Now()
	for round := 0; ; round++ {
		roundStart := time.Now()
		for _, i := range rng.Perm(len(jobs)) {
			debug.FreeOSMemory()
			if _, err := rss.take(); err != nil {
				return nil, err
			}
			out.attempted++
			t0 := time.Now()
			cr, err := runOne(ctx, jobs[i], out)
			wall := time.Since(t0).Seconds()
			if err != nil {
				out.fail(err)
				continue
			}
			peak, err := rss.take()
			if err != nil {
				return nil, err
			}
			walls[i] = append(walls[i], wall)
			peaks[i] = append(peaks[i], peak)
			if round == 0 {
				first.detected += cr.Detected
				first.total += cr.TotalFaults
			}
		}
		// Start another round only if it should end less than half a
		// round past the measuring time, so a run lasts about as long as
		// asked whatever the round length.
		if time.Since(start).Seconds()+time.Since(roundStart).Seconds()/2 >= cfg.seconds.Seconds() {
			break
		}
	}
	// wall_s is the time of a batch of typical jobs: the sum of each
	// job's median; peak_rss_mb the largest of the jobs' median peaks.
	var wallS, peakMB float64
	for i := range jobs {
		if len(walls[i]) == 0 {
			continue // every run of the job failed; out.failures say why
		}
		wallS += median(walls[i])
		peakMB = max(peakMB, median(peaks[i]))
	}
	out.e2e = map[string]float64{
		"setup_s":      setup,
		"wall_s":       wallS,
		"coverage_pct": 100 * ratio(float64(first.detected), float64(first.total)),
		"peak_rss_mb":  peakMB,
	}
	for i, j := range jobs {
		out.notes = append(out.notes, fmt.Sprintf("job %s runs=%d median_s=%.4f median_peak_mb=%.1f wall_s=%.4g",
			j.label, len(walls[i]), median(walls[i]), median(peaks[i]), walls[i]))
	}
	return out, nil
}
