package main

import (
	"fmt"
	"math/big"

	steadystate "repro"
)

// checkError marks an operation whose output failed a check, as opposed
// to a call that returned an error. Either fails the operation.
type checkError struct {
	msg string
	// periodFault marks the one failure the benchmark expects: a
	// warm-started or served solve that returns the reference throughput
	// with another period (see checkSamePeriod). It fails the operation
	// but, unlike every other failed check, leaves the run's "correct"
	// true.
	periodFault bool
}

func (e *checkError) Error() string { return "check failed: " + e.msg }

func checkFailed(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

// wrongAnswer reports whether err holds a failed check other than the
// period fault.
func wrongAnswer(err error) bool {
	switch e := err.(type) {
	case *checkError:
		return !e.periodFault
	case interface{ Unwrap() []error }:
		for _, x := range e.Unwrap() {
			if wrongAnswer(x) {
				return true
			}
		}
	case interface{ Unwrap() error }:
		return wrongAnswer(e.Unwrap())
	}
	return false
}

// checkVerify wraps a failed Solution.Verify.
func checkVerify(err error) error {
	if err != nil {
		return checkFailed("Verify: %v", err)
	}
	return nil
}

// checkPortBound rejects a throughput above the one-port bound.
func checkPortBound(tp, bound steadystate.Rat) error {
	if tp.Cmp(bound) > 0 {
		return checkFailed("throughput %s exceeds the one-port bound %s", tp.RatString(), bound.RatString())
	}
	return nil
}

// checkBaseline rejects a throughput below a heuristic's (nil: no
// baseline applies).
func checkBaseline(tp, floor steadystate.Rat) error {
	if floor != nil && tp.Cmp(floor) < 0 {
		return checkFailed("throughput %s is below the baseline heuristic's %s", tp.RatString(), floor.RatString())
	}
	return nil
}

// checkSameTP rejects a throughput that differs from a reference solve of
// the same scenario.
func checkSameTP(tp, want steadystate.Rat) error {
	if tp.Cmp(want) != 0 {
		return checkFailed("throughput %s differs from the reference %s", tp.RatString(), want.RatString())
	}
	return nil
}

// checkSamePeriod rejects a period that differs from a reference solve of
// the same scenario. The library documents that warm starts change no
// reported rational, yet a warm-started solve can end on another optimal
// vertex than the cold one: the same throughput with another period. That
// known fault fails the operation like any other check; it is marked so
// that it alone leaves the run's "correct" true (README, known faults).
func checkSamePeriod(period, want *big.Int) error {
	if period.Cmp(want) != 0 {
		return &checkError{msg: fmt.Sprintf("period %s differs from the reference period %s", period, want), periodFault: true}
	}
	return nil
}

// checkReplay applies the delivered-count window of a replay of periods
// periods: delivered must lie in [TP·T·(K − W), TP·T·K], where T is the
// model period and W the warm-up (the first full period), itself at most
// the schedule depth.
func checkReplay(label string, delivered *big.Int, tp steadystate.Rat, period *big.Int, periods, firstFull, depth int) error {
	perPeriod := new(big.Rat).Mul(tp, new(big.Rat).SetInt(period))
	if !perPeriod.IsInt() {
		return checkFailed("%s: TP·T = %s is not a whole number of operations", label, perPeriod.RatString())
	}
	ops := perPeriod.Num()
	if ops.Sign() == 0 {
		if delivered.Sign() != 0 {
			return checkFailed("%s: delivered %s at zero throughput", label, delivered)
		}
		return nil
	}
	if firstFull < 0 || firstFull > depth {
		return checkFailed("%s: warm-up of %d periods outside [0, %d]", label, firstFull, depth)
	}
	upper := new(big.Int).Mul(ops, big.NewInt(int64(periods)))
	lower := new(big.Int).Mul(ops, big.NewInt(int64(periods-firstFull)))
	if delivered.Cmp(upper) > 0 || delivered.Cmp(lower) < 0 {
		return checkFailed("%s: delivered %s outside [%s, %s]", label, delivered, lower, upper)
	}
	return nil
}

// scheduleDepth bounds the replay's warm-up in periods: one per transfer
// and rule, plus one.
func scheduleDepth(m *steadystate.SimModel) int {
	return len(m.Transfers) + len(m.Rules) + 1
}

// checkReplayResult checks a replay per sink set: per member for
// concurrent kinds, over every sink otherwise.
func checkReplayResult(sol steadystate.Solution, m *steadystate.SimModel, res *steadystate.SimResult, periods int) error {
	depth := scheduleDepth(m)
	if conc, ok := sol.(steadystate.Concurrent); ok {
		for i, member := range conc.Members() {
			delivered := res.MinDeliveredPrefix(steadystate.SimMemberPrefix(i))
			if err := checkReplay(fmt.Sprintf("member %d (%s)", i, member.Kind()), delivered, member.Throughput(), m.Period, periods, res.FirstFullPeriod, depth); err != nil {
				return err
			}
		}
		return nil
	}
	return checkReplay(string(sol.Kind()), res.MinDelivered(), sol.Throughput(), m.Period, periods, res.FirstFullPeriod, depth)
}

// portBound is an upper bound on the throughput of spec under the
// bidirectional one-port model, computed from the platform alone: every
// operation, each node must send at least out(v) and receive at least
// in(v) unit-size messages, each taking at least the node's cheapest
// outgoing (incoming) edge cost, so TP·out(v)·minOut(v) ≤ 1 and
// TP·in(v)·minIn(v) ≤ 1. The message counts follow from the kind's
// semantics, not from the solver's model.
func portBound(p *steadystate.Platform, spec steadystate.Spec) (steadystate.Rat, error) {
	out := make(map[steadystate.NodeID]int64)
	in := make(map[steadystate.NodeID]int64)
	others := func(ids []steadystate.NodeID, self steadystate.NodeID) int64 {
		n := int64(0)
		for _, id := range ids {
			if id != self {
				n++
			}
		}
		return n
	}
	switch spec.Kind {
	case steadystate.KindScatter:
		// One distinct message per target leaves the source.
		out[spec.Source] += others(spec.Targets, spec.Source)
		for _, t := range spec.Targets {
			if t != spec.Source {
				in[t]++
			}
		}
	case steadystate.KindBroadcast:
		// At least one copy leaves the source and reaches each target.
		if others(spec.Targets, spec.Source) > 0 {
			out[spec.Source]++
		}
		for _, t := range spec.Targets {
			if t != spec.Source {
				in[t]++
			}
		}
	case steadystate.KindGossip:
		for _, s := range spec.Sources {
			out[s] += others(spec.Targets, s)
		}
		for _, t := range spec.Targets {
			in[t] += others(spec.Sources, t)
		}
	case steadystate.KindReduce:
		// Every value held away from the target leaves its node at least
		// once, and the target receives at least one partial result.
		if others(spec.Order, spec.Target) > 0 {
			in[spec.Target]++
		}
		for _, v := range spec.Order {
			if v != spec.Target {
				out[v]++
			}
		}
	case steadystate.KindPrefix:
		// Rank i ≥ 1 needs v_0 (a receive); rank i < N holds a value a
		// later rank needs (a send).
		for i, v := range spec.Order {
			if i > 0 {
				in[v]++
			}
			if i < len(spec.Order)-1 {
				out[v]++
			}
		}
	case steadystate.KindAllreduce:
		// Every participant needs every other value and holds one every
		// other participant needs.
		if len(spec.Order) > 1 {
			for _, v := range spec.Order {
				in[v]++
				out[v]++
			}
		}
	default:
		return nil, fmt.Errorf("no port bound for kind %q", spec.Kind)
	}
	var bound steadystate.Rat
	tighten := func(count int64, edges []steadystate.Edge) error {
		if count == 0 {
			return nil
		}
		if len(edges) == 0 {
			return fmt.Errorf("a node that must communicate has no edge")
		}
		minCost := edges[0].Cost
		for _, e := range edges[1:] {
			if e.Cost.Cmp(minCost) < 0 {
				minCost = e.Cost
			}
		}
		b := new(big.Rat).Inv(new(big.Rat).Mul(minCost, big.NewRat(count, 1)))
		if bound == nil || b.Cmp(bound) < 0 {
			bound = b
		}
		return nil
	}
	for id := steadystate.NodeID(0); int(id) < p.NumNodes(); id++ {
		if err := tighten(out[id], p.OutEdges(id)); err != nil {
			return nil, err
		}
		if err := tighten(in[id], p.InEdges(id)); err != nil {
			return nil, err
		}
	}
	if bound == nil {
		return nil, fmt.Errorf("spec %s moves no message", spec.Kind)
	}
	return bound, nil
}

// baselineThroughput is the throughput of the internal/baseline heuristic
// for spec, or nil when no heuristic applies: single-path routing for
// scatter (and broadcast, which a scatter plan also serves), the better
// of the flat and binary fixed trees for reduce.
func baselineThroughput(p *steadystate.Platform, spec steadystate.Spec) (steadystate.Rat, error) {
	switch spec.Kind {
	case steadystate.KindScatter, steadystate.KindBroadcast:
		b, err := steadystate.SinglePathScatter(p, spec.Source, spec.Targets)
		if err != nil {
			return nil, fmt.Errorf("single-path scatter baseline: %w", err)
		}
		return b.Throughput, nil
	case steadystate.KindReduce:
		pr, err := steadystate.NewReduceProblem(p, spec.Order, spec.Target)
		if err != nil {
			return nil, fmt.Errorf("reduce baseline problem: %w", err)
		}
		flat, err := steadystate.FlatReduceTree(pr)
		if err != nil {
			return nil, fmt.Errorf("flat reduce tree baseline: %w", err)
		}
		binary, err := steadystate.BinaryReduceTree(pr)
		if err != nil {
			return nil, fmt.Errorf("binary reduce tree baseline: %w", err)
		}
		if binary.Throughput.Cmp(flat.Throughput) > 0 {
			return binary.Throughput, nil
		}
		return flat.Throughput, nil
	}
	return nil, nil
}
