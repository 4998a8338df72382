package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runSteady runs the workload n times, each in a child process of this
// binary with the next seed, and prints every metric's median, quartiles
// and spreads: the interquartile range and the max−min range, each as a
// share of the median. The bounds in BENCHMARK.json are set from this
// output.
func runSteady(cfg config, n, trace int, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	var failedShares []string
	for i := 0; i < n; i++ {
		seed := cfg.seed + int64(i)
		var out bytes.Buffer
		cmd := exec.Command(self, "--workload", cfg.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(cfg.seconds), "--trace", strconv.Itoa(trace), "--trace-out", cfg.traceOut)
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run seed %d: %w", seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("seed %d: parse result: %w", seed, err)
		}
		fmt.Fprintf(stdout, "seed %d: %s\n", seed, lines[len(lines)-1])
		failedShares = append(failedShares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value) //sslint:allow one value per name per run: each name's slice is in seed order
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%s, %d runs, seeds %d..%d, %d s each; failed/attempted: %v\n",
		cfg.workload, n, cfg.seed, cfg.seed+int64(n)-1, cfg.seconds, failedShares)
	fmt.Fprintf(stdout, "%-24s %-6s %12s %12s %12s %8s %8s\n", "metric", "unit", "q1", "median", "q3", "iqr/med", "rng/med")
	for _, name := range names {
		xs := values[name]
		q := [3]float64{quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)}
		lo, hi := minMax(xs)
		fmt.Fprintf(stdout, "%-24s %-6s %12.4f %12.4f %12.4f %8.3f %8.3f\n",
			name, units[name], q[0], q[1], q[2], ratio(q[2]-q[0], q[1]), ratio(hi-lo, q[1]))
	}
	return nil
}

func minMax(xs []float64) (lo, hi float64) {
	for i, x := range xs {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}
