package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
)

// perLayerMetrics names every per-layer metric with its unit, in the
// order the traced run reports them. A metric whose layer a workload does
// not reach reads 0 on that workload.
var perLayerMetrics = []struct{ name, unit string }{
	{"api.solve_ms", "ms"},
	{"api.verify_ms", "ms"},
	{"api.report_ms", "ms"},
	{"api.solve_alloc_mb", "MB"},
	{"api.solve_mallocs", "count"},
	{"graph.reachability_ms", "ms"},
	{"graph.content_hash_ms", "ms"},
	{"fragment.assemble_ms", "ms"},
	{"fragment.extract_ms", "ms"},
	{"lp.vars", "count"},
	{"lp.constraints", "count"},
	{"lp.rows_ms", "ms"},
	{"lp.phase1_ms", "ms"},
	{"lp.phase2_ms", "ms"},
	{"lp.phase2_ms_per_pivot", "ms"},
	{"lp.warmstart_ms", "ms"},
	{"solve.unattributed_ms", "ms"},
	{"lp.pivots", "count"},
	{"lp.phase1_pivots", "count"},
	{"lp.phase2_pivots", "count"},
	{"lp.degenerate_pivots", "count"},
	{"lp.rebuild_pivots", "count"},
	{"lp.nonzeros_initial", "count"},
	{"lp.nonzeros_final", "count"},
	{"lp.warm_starts", "count"},
	{"lp.warm_rejects", "count"},
	{"lp.warm_over_cold", "ratio"},
	{"schedule.build_ms", "ms"},
	{"schedule.alloc_mb", "MB"},
	{"sim.model_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"sim.latency_ms", "ms"},
	{"sim.alloc_mb", "MB"},
	{"serve.hit_ms", "ms"},
	{"serve.miss_ms", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.decode_ms", "ms"},
	{"serve.cache_key_ms", "ms"},
	{"obs.trace_overhead_pct", "%"},
	{"loop.wall_ops_per_s", "1/s"},
	{"loop.wall_p50_ms", "ms"},
	{"loop.wall_p90_ms", "ms"},
}

// spanLayers maps the program's span names to layer metric names.
var spanLayers = map[string]string{
	"solve":        "solve.unattributed_ms",
	"reachability": "graph.reachability_ms",
	"assemble":     "fragment.assemble_ms",
	"extract":      "fragment.extract_ms",
	"lp.rows":      "lp.rows_ms",
	"lp.phase1":    "lp.phase1_ms",
	"lp.phase2":    "lp.phase2_ms",
	"lp.warmstart": "lp.warmstart_ms",
}

// traceTable is the traced run's per-layer table, written as JSON.
type traceTable struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Counters are deterministic functions of the seed: taken over the
	// first traced round, they are byte-identical across traced runs.
	Counters map[string]int64 `json:"counters"`
	// Spans is the self time of every span layer, per solve.
	Spans []spanRow `json:"spans"`
	// Calls is every public call the benchmark timed around.
	Calls   []callRow         `json:"calls"`
	Metrics map[string]metric `json:"metrics"`
}

// spanRow is one span layer: the p50 over solves of its self time in a
// solve, and its share of all solve time and of all operation time.
type spanRow struct {
	Layer      string  `json:"layer"`
	SelfMSP50  float64 `json:"self_ms_p50"`
	ShareSolve float64 `json:"share_of_solve"`
	ShareOp    float64 `json:"share_of_op"`
}

// callRow is one timed public call: p50 time (untraced half), its share
// of operation time, and p50 allocation (traced half).
type callRow struct {
	Call      string  `json:"call"`
	Calls     int     `json:"calls"`
	MSP50     float64 `json:"ms_p50"`
	ShareOp   float64 `json:"share_of_op"`
	AllocMB   float64 `json:"alloc_mb_p50"`
	MallocP50 float64 `json:"mallocs_p50"`
}

// traced runs the workload's loop for the run length, alternating whole
// rounds with tracing off (timing the public calls only) and rounds with
// span trees and allocation deltas, so a change in the host's speed falls
// on both halves alike. It reports the per-layer metrics and writes the
// per-layer table.
func traced(ctx context.Context, cfg config, b *bench) (*result, error) {
	light, full := newProbe(false), newProbe(true)
	plain, tr := &loopRun{}, &loopRun{}
	start := time.Now()
	for tr.rounds == 0 || time.Since(start) < cfg.runLength() {
		plain.add(closedLoop(ctx, b, light, 0, 1))
		tr.add(closedLoop(ctx, b, full, 0, 1))
	}

	t := buildTable(b, plain, light, tr, full)
	t.Workload, t.Seed = cfg.workload, cfg.seed
	if err := os.MkdirAll(cfg.traceOut, 0o755); err != nil {
		return nil, fmt.Errorf("create trace output directory: %w", err)
	}
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("encode per-layer table: %w", err)
	}
	path := filepath.Join(cfg.traceOut, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("write per-layer table: %w", err)
	}
	return &result{
		Correct:   !plain.wrong && !tr.wrong,
		Attempted: plain.attempted + tr.attempted,
		Failed:    plain.failed + tr.failed,
		Metrics:   t.Metrics,
	}, nil
}

// buildTable turns the two halves' samples into the per-layer table.
func buildTable(b *bench, plain *loopRun, light *probe, tr *loopRun, full *probe) *traceTable {
	t := &traceTable{Counters: counters(full), Metrics: make(map[string]metric)}
	values := make(map[string]float64)
	for k, v := range t.Counters {
		values[k] = float64(v)
	}
	if n := t.Counters["solves"]; n > 0 {
		for _, k := range []string{"lp.vars", "lp.constraints", "lp.pivots", "lp.phase1_pivots", "lp.phase2_pivots",
			"lp.degenerate_pivots", "lp.rebuild_pivots", "lp.nonzeros_initial", "lp.nonzeros_final"} {
			values[k] = float64(t.Counters[k]) / float64(n)
		}
	}

	// Span self times, per solve.
	names := make([]string, 0, len(spanLayers))
	for name := range spanLayers {
		names = append(names, name)
	}
	sort.Strings(names)
	perSolve := make(map[string][]float64)
	var solveMS, phase2MS float64
	var phase2Pivots int64
	for _, s := range full.solves {
		self := make(map[string]float64)
		s.report.Trace.Root.Walk(func(sp *obs.Span) {
			self[sp.Name] += selfMS(sp)
			if sp.Name == "lp.phase2" {
				phase2Pivots += attrInt(sp.Attrs["pivots"])
			}
		})
		for _, name := range names {
			perSolve[name] = append(perSolve[name], self[name])
		}
		solveMS += durMS(s.report.Trace.Root)
		phase2MS += self["lp.phase2"]
	}
	opMS := sum(tr.wallLatencies)
	for _, name := range names {
		total := sum(perSolve[name])
		row := spanRow{Layer: name, SelfMSP50: median(perSolve[name]), ShareSolve: ratio(total, solveMS), ShareOp: ratio(total, opMS)}
		t.Spans = append(t.Spans, row)
		values[spanLayers[name]] = row.SelfMSP50
	}
	values["lp.phase2_ms_per_pivot"] = ratio(phase2MS, float64(phase2Pivots))

	// Public calls: time from the untraced half, allocation from the
	// traced one.
	calls := make([]string, 0, len(light.calls)+len(full.calls))
	for name := range full.calls {
		calls = append(calls, name)
	}
	for name := range light.calls {
		if _, ok := full.calls[name]; !ok {
			calls = append(calls, name)
		}
	}
	sort.Strings(calls)
	plainMS := sum(plain.wallLatencies)
	for _, name := range calls {
		timed := light.calls[name]
		shareBase := plainMS
		if len(timed) == 0 {
			timed, shareBase = full.calls[name], opMS
		}
		ms := make([]float64, len(timed))
		for i, s := range timed {
			ms[i] = s.ms
		}
		var alloc, mallocs []float64
		for _, s := range full.calls[name] {
			alloc = append(alloc, float64(s.allocB)/(1<<20))
			mallocs = append(mallocs, float64(s.mallocs))
		}
		row := callRow{Call: name, Calls: len(timed), MSP50: median(ms), ShareOp: ratio(sum(ms), shareBase),
			AllocMB: median(alloc), MallocP50: median(mallocs)}
		t.Calls = append(t.Calls, row)
		values[name+"_ms"] = row.MSP50
		switch name {
		case "api.solve":
			values["api.solve_alloc_mb"] = row.AllocMB
			values["api.solve_mallocs"] = row.MallocP50
		case "schedule.build":
			values["schedule.alloc_mb"] = row.AllocMB
		}
	}
	values["sim.alloc_mb"] = simAllocMB(full)
	if len(light.calls["api.solve"]) == 0 {
		// Served solves run inside the server: take their time from the
		// reports of the misses.
		var ms []float64
		for _, s := range full.solves {
			ms = append(ms, s.report.SolveMS)
		}
		values["api.solve_ms"] = median(ms)
	}
	values["lp.warm_over_cold"] = warmOverCold(b, light)

	var hits, misses []float64
	for _, s := range light.serves {
		if s.hit {
			hits = append(hits, s.ms)
		} else {
			misses = append(misses, s.ms)
		}
	}
	values["serve.hit_ms"] = median(hits)
	values["serve.miss_ms"] = median(misses)
	values["serve.hit_ratio"] = ratio(float64(len(hits)), float64(len(hits)+len(misses)))
	values["obs.trace_overhead_pct"] = traceOverheadPct(light, full)
	// The end-to-end figures on the wall clock, from the untraced half.
	values["loop.wall_ops_per_s"] = plain.opsPerWallSecond()
	values["loop.wall_p50_ms"] = quantile(plain.wallLatencies, 0.5)
	values["loop.wall_p90_ms"] = quantile(plain.wallLatencies, 0.9)

	for _, m := range perLayerMetrics {
		t.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	return t
}

// counters sums the deterministic counters of the first traced round.
func counters(full *probe) map[string]int64 {
	c := map[string]int64{"solves": 0}
	for _, s := range full.solves {
		if s.round != 0 {
			continue
		}
		rep := s.report
		c["solves"]++
		c["lp.vars"] += int64(rep.LPVars)
		c["lp.constraints"] += int64(rep.LPConstraints)
		c["lp.pivots"] += int64(rep.LPPivots)
		if rep.WarmStart {
			c["lp.warm_starts"]++
		}
		if rep.WarmReject != "" {
			c["lp.warm_rejects"]++
		}
		rep.Trace.Root.Walk(func(sp *obs.Span) {
			c["spans."+sp.Name]++
			switch sp.Name {
			case "lp.rows":
				c["lp.nonzeros_initial"] += attrInt(sp.Attrs["nonzeros"])
			case "lp.phase1":
				c["lp.phase1_pivots"] += attrInt(sp.Attrs["pivots"])
				c["lp.degenerate_pivots"] += attrInt(sp.Attrs["degenerate_pivots"])
			case "lp.phase2":
				c["lp.phase2_pivots"] += attrInt(sp.Attrs["pivots"])
				c["lp.degenerate_pivots"] += attrInt(sp.Attrs["degenerate_pivots"])
				c["lp.nonzeros_final"] += lastNonzeros(sp.Attrs["trajectory"])
			case "lp.warmstart":
				c["lp.rebuild_pivots"] += attrInt(sp.Attrs["rebuild_pivots"])
			}
		})
	}
	for _, s := range full.serves {
		if s.round != 0 {
			continue
		}
		if s.hit {
			c["serve.hits"]++
		} else {
			c["serve.misses"]++
		}
	}
	return c
}

// overheadCalls are the timed calls both halves of a traced run make the
// same way, apart from tracing: the traced half adds WithTrace (?trace=1
// on requests) to them, and runs its extra calls (sim.latency and the
// serving steps) and allocation reads outside their timers.
var overheadCalls = []string{"api.solve", "api.verify", "api.report", "schedule.build", "sim.model", "sim.run", "serve.request"}

// traceOverheadPct is how much more CPU time the traced half's calls took
// than the untraced half's, in percent: per operation, the mean over
// rounds of its overheadCalls' CPU time, summed over the operations both
// halves ran. CPU time keeps the host's steal out of the comparison.
func traceOverheadPct(light, full *probe) float64 {
	plain, traced := opCallMS(light), opCallMS(full)
	var plainMS, tracedMS float64
	for op, ms := range plain {
		if t, ok := traced[op]; ok {
			plainMS += ms
			tracedMS += t
		}
	}
	return (ratio(tracedMS, plainMS) - 1) * 100
}

// opCallMS is, per operation index, the mean over rounds of the CPU time
// the operation spent in overheadCalls.
func opCallMS(pr *probe) map[int]float64 {
	total := make(map[int]float64)
	rounds := make(map[int]map[int]bool)
	for _, name := range overheadCalls {
		for _, s := range pr.calls[name] {
			total[s.op] += s.cpuMS
			if rounds[s.op] == nil {
				rounds[s.op] = make(map[int]bool)
			}
			rounds[s.op][s.round] = true
		}
	}
	for op := range total {
		total[op] /= float64(len(rounds[op]))
	}
	return total
}

// warmOverCold is the untraced warm re-solve time over the set-up's cold
// solve time, summed over the operations that have a cold reference.
func warmOverCold(b *bench, light *probe) float64 {
	warm := make(map[int][]float64)
	for _, s := range light.calls["api.solve"] {
		if s.op < len(b.coldMS) && b.coldMS[s.op] > 0 {
			warm[s.op] = append(warm[s.op], s.ms)
		}
	}
	var warmMS, coldMS float64
	for op, ms := range warm {
		warmMS += sum(ms) / float64(len(ms))
		coldMS += b.coldMS[op]
	}
	return ratio(warmMS, coldMS)
}

// simAllocMB is the p50 over operations of what modelling and replaying
// allocated.
func simAllocMB(full *probe) float64 {
	type key struct{ round, op int }
	per := make(map[key]float64)
	for _, name := range []string{"sim.model", "sim.run"} {
		for _, s := range full.calls[name] {
			per[key{s.round, s.op}] += float64(s.allocB) / (1 << 20)
		}
	}
	xs := make([]float64, 0, len(per))
	for _, v := range per {
		xs = append(xs, v) //sslint:allow order-insensitive by contract: sole consumer is median
	}
	return median(xs)
}

// durMS is a span's duration (0 when it has no timing block).
func durMS(sp *obs.Span) float64 {
	if sp.Timing == nil {
		return 0
	}
	return sp.Timing.DurMS
}

// selfMS is a span's duration minus its children's.
func selfMS(sp *obs.Span) float64 {
	d := durMS(sp)
	for _, c := range sp.Children {
		d -= durMS(c)
	}
	return d
}

// attrInt reads an integer attribute, whether the span tree came from the
// library (int) or from a decoded served report (float64).
func attrInt(v any) int64 {
	switch x := v.(type) {
	case int:
		return int64(x)
	case float64:
		return int64(x)
	}
	return 0
}

// lastNonzeros reads the nonzero count of a phase's last tableau sample.
func lastNonzeros(v any) int64 {
	switch x := v.(type) {
	case []obs.TableauSample:
		if len(x) > 0 {
			return int64(x[len(x)-1].NonZeros)
		}
	case []any:
		if len(x) > 0 {
			if m, ok := x[len(x)-1].(map[string]any); ok {
				return attrInt(m["nonzeros"])
			}
		}
	}
	return 0
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
