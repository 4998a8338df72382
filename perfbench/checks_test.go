package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	steadystate "repro"
)

// wantCheckError fails the test unless err is a *checkError.
func wantCheckError(t *testing.T, what string, err error) {
	t.Helper()
	var ce *checkError
	if !errors.As(err, &ce) {
		t.Errorf("%s: got %v, want a failed check", what, err)
	}
}

// ulpAbove returns x plus one part in den(x)·10^12: the smallest nudge
// the exact checks must still see.
func ulpAbove(x steadystate.Rat) steadystate.Rat {
	den := new(big.Int).Mul(x.Denom(), new(big.Int).Exp(big.NewInt(10), big.NewInt(12), nil))
	return new(big.Rat).Add(x, new(big.Rat).SetFrac(big.NewInt(1), den))
}

// solvedScatter solves one seeded scatter-cold scenario.
func solvedScatter(t *testing.T) (*libCase, steadystate.Solution) {
	t.Helper()
	p, spec := scatterCase(rand.New(rand.NewSource(7)), 0)
	c, err := newLibCase("scatter", p, spec)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := steadystate.Solve(context.Background(), p, spec)
	if err != nil {
		t.Fatal(err)
	}
	return c, sol
}

func TestPortBoundCheck(t *testing.T) {
	c, sol := solvedScatter(t)
	if err := checkPortBound(sol.Throughput(), c.bound); err != nil {
		t.Fatalf("optimal throughput rejected: %v", err)
	}
	if err := checkPortBound(c.bound, c.bound); err != nil {
		t.Errorf("throughput equal to the bound rejected: %v", err)
	}
	wantCheckError(t, "one ulp above the port bound", checkPortBound(ulpAbove(c.bound), c.bound))
}

func TestPortBoundByHand(t *testing.T) {
	// A star: the center reaches each leaf over a link of cost 1/2, so a
	// scatter to three leaves sends three messages of at least 1/2 each
	// per operation: TP ≤ 2/3.
	p := steadystate.Star(3, steadystate.R(1, 2), steadystate.R(1, 1))
	center := p.MustLookup("center")
	spec := steadystate.ScatterSpec(center, p.MustLookup("leaf0"), p.MustLookup("leaf1"), p.MustLookup("leaf2"))
	bound, err := portBound(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	if bound.Cmp(big.NewRat(2, 3)) != 0 {
		t.Errorf("star scatter bound = %s, want 2/3", bound.RatString())
	}
	// A broadcast sends one copy: the source port allows 2, each leaf's
	// receive port allows 2.
	bound, err = portBound(p, steadystate.BroadcastSpec(center, spec.Targets...))
	if err != nil {
		t.Fatal(err)
	}
	if bound.Cmp(big.NewRat(2, 1)) != 0 {
		t.Errorf("star broadcast bound = %s, want 2", bound.RatString())
	}
}

func TestBaselineCheck(t *testing.T) {
	c, sol := solvedScatter(t)
	if c.floor == nil {
		t.Fatal("no baseline for a scatter")
	}
	if err := checkBaseline(sol.Throughput(), c.floor); err != nil {
		t.Fatalf("optimal throughput below the baseline: %v", err)
	}
	below := new(big.Rat).Sub(c.floor, new(big.Rat).Sub(ulpAbove(c.floor), c.floor))
	wantCheckError(t, "one ulp below the baseline", checkBaseline(below, c.floor))
}

func TestReplayCheck(t *testing.T) {
	_, sol := solvedScatter(t)
	m, err := sol.SimModel()
	if err != nil {
		t.Fatal(err)
	}
	periods := 2 * scheduleDepth(m)
	res, err := steadystate.Simulate(m, periods)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReplayResult(sol, m, res, periods); err != nil {
		t.Fatalf("real replay rejected: %v", err)
	}
	depth := scheduleDepth(m)
	ops := new(big.Rat).Mul(sol.Throughput(), new(big.Rat).SetInt(m.Period)).Num()
	lower := new(big.Int).Mul(ops, big.NewInt(int64(periods-res.FirstFullPeriod)))
	upper := new(big.Int).Mul(ops, big.NewInt(int64(periods)))
	check := func(delivered *big.Int) error {
		return checkReplay("scatter", delivered, sol.Throughput(), m.Period, periods, res.FirstFullPeriod, depth)
	}
	if err := check(lower); err != nil {
		t.Errorf("delivered at the floor rejected: %v", err)
	}
	wantCheckError(t, "one message short", check(new(big.Int).Sub(lower, big.NewInt(1))))
	wantCheckError(t, "one message over the ceiling", check(new(big.Int).Add(upper, big.NewInt(1))))
	wantCheckError(t, "warm-up beyond the depth", checkReplay("scatter", lower, sol.Throughput(), m.Period, periods, depth+1, depth))
}

func TestReferenceChecks(t *testing.T) {
	_, sol := solvedScatter(t)
	tp, period := sol.Throughput(), sol.Period()
	if err := checkSameTP(new(big.Rat).Set(tp), tp); err != nil {
		t.Errorf("identical throughput rejected: %v", err)
	}
	wantCheckError(t, "warm throughput one ulp above the cold one", checkSameTP(ulpAbove(tp), tp))
	if err := checkSamePeriod(new(big.Int).Set(period), period); err != nil {
		t.Errorf("identical period rejected: %v", err)
	}
	periodErr := checkSamePeriod(new(big.Int).Add(period, big.NewInt(1)), period)
	wantCheckError(t, "another period", periodErr)
	// The period fault fails the operation without marking the run
	// incorrect; any other failed check beside it does.
	if wrongAnswer(periodErr) {
		t.Error("the period fault alone counted as a wrong answer")
	}
	if !wrongAnswer(errors.Join(periodErr, checkSameTP(ulpAbove(tp), tp))) {
		t.Error("a throughput mismatch next to the period fault not counted as a wrong answer")
	}
}

// TestSmokeEveryWorkload runs one small round of every workload, with
// tracing off and twice with tracing on: no operation may fail, and the
// traced runs' counters must be byte-identical.
func TestSmokeEveryWorkload(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			cfg := config{workload: name, seed: 3, seconds: 1, smoke: true}
			res, err := execute(ctx, cfg, workloads[name])
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("smoke run: correct=%t failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range []string{"ops_per_cpu_s", "op_cpu_p50_ms", "op_cpu_p90_ms", "rss_peak_mb", "setup_s"} {
				if res.Metrics[m].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m, res.Metrics[m].Value)
				}
			}
			var counters [2][]byte
			for i := range counters {
				cfg.trace, cfg.traceOut = true, t.TempDir()
				res, err := execute(ctx, cfg, workloads[name])
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || len(res.Metrics) != len(perLayerMetrics) {
					t.Fatalf("traced smoke run: failed=%d, %d metrics, want 0 and %d", res.Failed, len(res.Metrics), len(perLayerMetrics))
				}
				data, err := os.ReadFile(filepath.Join(cfg.traceOut, "trace-"+name+"-seed3.json"))
				if err != nil {
					t.Fatal(err)
				}
				var table struct {
					Counters json.RawMessage `json:"counters"`
				}
				if err := json.Unmarshal(data, &table); err != nil {
					t.Fatal(err)
				}
				counters[i] = table.Counters
			}
			if !bytes.Equal(counters[0], counters[1]) {
				t.Errorf("traced counters differ between two runs of one seed:\n%s\n%s", counters[0], counters[1])
			}
		})
	}
}
