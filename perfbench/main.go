// Command perfbench is the repository's end-to-end benchmark. It drives
// the steady-state library from outside, through its public functions
// (Solver.Solve, Solution.Verify/Report/Schedule/SimModel, Simulate,
// NewBasisCache and serve.Server.Handler), and runs one named workload as
// a single-process closed loop: one client goroutine issues a fixed,
// seeded round of operations again and again, each operation only after
// the previous one returned, until the run length is used up. Every
// operation checks its output against properties of the method or
// against references computed during set-up.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload scatter-cold --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload warm-chains --seed 1 --seconds 10 --trace 1
//	bash perfbench/run.sh --workload reduce-fill --smoke
//	bash perfbench/run.sh --workload serve-mixed --steady 10 --seconds 10
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics, measured with tracing off and timed in process
// CPU time; with --trace 1 they are the per-layer metrics of a traced run
// (among them the wall-clock figures), whose full per-layer table is also
// written to a JSON file under --trace-out. README.md describes the
// workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// smoke runs one round of a few operations, set up once.
	smoke    bool
	traceOut string
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag, steady int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&cfg.seconds, "seconds", 10, "measured run length in seconds (whole rounds are always completed)")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	fs.BoolVar(&cfg.smoke, "smoke", false, "run one round of a few operations (a quick correctness pass)")
	fs.StringVar(&cfg.traceOut, "trace-out", ".bench_build/traces", "directory the traced run writes its per-layer table to")
	fs.IntVar(&steady, "steady", 0, "run the workload this many times in child processes, seeds seed, seed+1, …, and print each metric's quartiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	cfg.trace = traceFlag == 1
	if cfg.seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be at least 1, got %d\n", cfg.seconds)
		return 2
	}
	setup, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if steady > 0 {
		if err := runSteady(cfg, steady, traceFlag, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	res, err := execute(context.Background(), cfg, setup)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if res.Failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed\n", res.Failed, res.Attempted)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// workloadNames lists the workloads in a stable order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// execute sets the workload up (several times, reporting the median set-up
// time), then runs its closed loop and turns the samples into metrics.
func execute(ctx context.Context, cfg config, setup setupFunc) (*result, error) {
	const setups = 5
	var b *bench
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if b != nil {
			b.close()
		}
		start := startWatch()
		var err error
		b, err = setup(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		warmUp(ctx, b)
		setupTimes = append(setupTimes, start.read().cpu.Seconds())
		if cfg.smoke {
			break
		}
	}
	defer b.close()

	if cfg.trace {
		return traced(ctx, cfg, b)
	}
	run := closedLoop(ctx, b, nil, cfg.runLength(), cfg.minOps())
	rss, err := rssPeakMB()
	if err != nil {
		return nil, err
	}
	res := run.result()
	res.Metrics = map[string]metric{
		"ops_per_cpu_s": {run.opsPerCPUSecond(), "1/s"},
		"op_cpu_p50_ms": {quantile(run.latencies, 0.5), "ms"},
		"op_cpu_p90_ms": {quantile(run.latencies, 0.9), "ms"},
		"rss_peak_mb":   {rss, "MB"},
		"setup_s":       {median(setupTimes), "s"},
	}
	return res, nil
}

// runLength is how long the closed loop keeps starting rounds.
func (cfg config) runLength() time.Duration {
	if cfg.smoke {
		return 0
	}
	return time.Duration(cfg.seconds) * time.Second
}

// minOps is the fewest operations a run completes: enough to leave ten
// samples beyond the 90th percentile.
func (cfg config) minOps() int {
	if cfg.smoke {
		return 1
	}
	return 100
}
