package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// runChild runs one single-workload run of this binary as a child
// process (so each has its own resident set) and returns its result
// line and its host line.
func runChild(name string, seed int64, cfg runConfig, stderr io.Writer) (*result, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(int(cfg.seconds.Seconds())), "--trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = stderr
	runErr := cmd.Run()
	host, last := scanOutput(stdout.Bytes())
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return nil, host, fmt.Errorf("%s seed %d: %w", name, seed, runErr)
		}
		return nil, host, fmt.Errorf("%s seed %d: no result line: %w", name, seed, err)
	}
	if runErr != nil {
		return &res, host, fmt.Errorf("%s seed %d: %w", name, seed, runErr)
	}
	return &res, host, nil
}

// scanOutput picks a run's host line and its last line out of its
// standard output.
func scanOutput(b []byte) (host, last string) {
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "host ") {
			host = line
		}
		if line != "" {
			last = line
		}
	}
	return host, last
}

// runAll runs every workload once and prints every metric by name and
// unit; it fails when any run fails or any output check fails.
func runAll(cfg runConfig, stdout, stderr io.Writer) int {
	code := 0
	for _, name := range workloadOrder {
		res, host, err := runChild(name, cfg.seed, cfg, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			code = 1
		}
		if res == nil {
			continue
		}
		fmt.Fprintln(stdout, host)
		fmt.Fprintf(stdout, "%s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
		printMetrics(stdout, res.Metrics)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// runSteady runs one workload n times, seeds 1..n, and prints, for each
// metric, its median, quartiles, quartile spread as a share of the
// median, and max/min ratio.
func runSteady(name string, n int, cfg runConfig, stdout, stderr io.Writer) int {
	if _, ok := workloads[name]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", name)
		return 2
	}
	values := map[string][]float64{}
	units := map[string]string{}
	code := 0
	for seed := int64(1); seed <= int64(n); seed++ {
		res, host, err := runChild(name, seed, cfg, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			code = 1
			continue
		}
		if !res.Correct {
			code = 1
		}
		for k, v := range res.Metrics {
			values[k] = append(values[k], v.Value)
			units[k] = v.Unit
		}
		fmt.Fprintf(stdout, "run seed=%d %s\n%s\n", seed, compact(res.Metrics), host)
	}
	fmt.Fprint(stdout, spreadTable(name, values, units))
	return code
}

func compact(m map[string]metricValue) string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	slices.Sort(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "%s=%.6g ", k, m[k].Value)
	}
	return strings.TrimSpace(b.String())
}

// spreadTable renders the steadiness summary of each metric's values.
func spreadTable(name string, values map[string][]float64, units map[string]string) string {
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	slices.Sort(names)
	var b strings.Builder
	fmt.Fprintf(&b, "steady %s: %-16s %5s %12s %12s %12s %9s %8s\n", name, "metric", "n", "median", "q1", "q3", "iqr/med", "max/min")
	for _, k := range names {
		v := values[k]
		if len(v) < 2 {
			continue
		}
		q1, q2, q3 := quartiles(v)
		fmt.Fprintf(&b, "steady %s: %-16s %5d %12.6g %12.6g %12.6g %8.2f%% %8.4f  %s\n",
			name, k, len(v), q2, q1, q3, 100*ratio(q3-q1, q2), ratio(slices.Max(v), slices.Min(v)), units[k])
	}
	return b.String()
}
