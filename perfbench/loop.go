package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	steadystate "repro"
)

// op is one operation of a round.
type op struct {
	label string
	// run performs the operation through the public API and checks its
	// output. It returns the time spent in the program's calls; the
	// checks that follow them are not part of it. A *checkError means
	// the program answered wrongly, any other error that a call failed.
	run func(ctx context.Context, pr *probe) (opTime, error)
}

// opTime is the cost of a stretch of work in wall-clock time and in CPU
// time of the whole process (every thread, user and system). The
// end-to-end metrics use CPU time and say so in their names: on a virtual
// machine, wall-clock time also counts the time the host deschedules the
// vCPUs (steal), which swings from run to run by more than the
// benchmark's bounds. CPU time does not count waiting, and it sums work
// spread over both cores; the traced run reports the wall-clock figures.
type opTime struct{ wall, cpu time.Duration }

// stopwatch marks the start of a stretch of work on both clocks.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{wall: time.Now(), cpu: cpuNow()} }

// read returns the time since the stopwatch started, on both clocks.
func (s stopwatch) read() opTime {
	return opTime{wall: time.Since(s.wall), cpu: cpuNow() - s.cpu}
}

// cpuNow is the CPU time the process has used so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid pointer cannot fail.
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// bench is a set-up workload: one round of operations plus the state
// they share.
type bench struct {
	ops []op
	// warm is the untimed warm-up: a fixed slice of the workload's
	// scenarios, the same whatever the seed.
	warm []op
	// startRound, when set, runs before every round and before the
	// warm-up, outside the operations' timing (serve-mixed starts a fresh
	// server there).
	startRound func()
	// coldMS holds, per operation index, the set-up's cold solve time of
	// the operation's scenario when the operation is a warm re-solve
	// (warm-chains), else 0; nil when no operation is.
	coldMS []float64
	// close releases what the set-up started.
	close func()
	// reported counts the failed operations reported on standard error.
	reported int
}

// warmUp runs the bench's warm-up operations once, untimed, so code
// paths are faulted in and the heap has grown before timing starts.
func warmUp(ctx context.Context, b *bench) {
	if b.startRound != nil {
		b.startRound()
	}
	for _, o := range b.warm {
		// Failures surface again, counted, in the timed rounds.
		_, _ = o.run(ctx, nil)
	}
}

// loopRun is the outcome of one closed loop.
type loopRun struct {
	// latencies and wallLatencies are the CPU and wall-clock ms of every
	// completed operation.
	latencies, wallLatencies []float64
	// roundSeconds holds the wall-clock length of every round, checks
	// and round starts included.
	roundSeconds []float64
	attempted    int
	failed       int
	// wrong is set when an operation failed a check that is not the
	// known warm-start period fault (see checkError).
	wrong  bool
	rounds int
	// spent is the loop's own cost, checks and round starts included.
	spent opTime
}

// closedLoop runs whole rounds of the bench's operations, one at a time,
// until length has elapsed and at least minOps operations were attempted.
func closedLoop(ctx context.Context, b *bench, pr *probe, length time.Duration, minOps int) *loopRun {
	r := &loopRun{}
	start := startWatch()
	for r.rounds == 0 || time.Since(start.wall) < length || r.attempted < minOps {
		roundStart := time.Now()
		if b.startRound != nil {
			b.startRound()
		}
		pr.nextRound()
		for i, o := range b.ops {
			pr.at(i)
			lat, err := o.run(ctx, pr)
			r.attempted++
			if err != nil {
				r.failed++
				r.wrong = r.wrong || wrongAnswer(err)
				if b.reported < 5 {
					b.reported++
					fmt.Fprintf(os.Stderr, "perfbench: op %s: %v\n", o.label, err)
				}
				continue
			}
			r.latencies = append(r.latencies, ms(lat.cpu))
			r.wallLatencies = append(r.wallLatencies, ms(lat.wall))
		}
		r.roundSeconds = append(r.roundSeconds, time.Since(roundStart).Seconds())
		r.rounds++
	}
	r.spent = start.read()
	return r
}

// add merges another loop's outcome into r.
func (r *loopRun) add(o *loopRun) {
	r.latencies = append(r.latencies, o.latencies...)
	r.wallLatencies = append(r.wallLatencies, o.wallLatencies...)
	r.roundSeconds = append(r.roundSeconds, o.roundSeconds...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.wrong = r.wrong || o.wrong
	r.rounds += o.rounds
	r.spent.wall += o.spent.wall
	r.spent.cpu += o.spent.cpu
}

// result turns the loop's counts into the benchmark's final line, without
// metrics.
func (r *loopRun) result() *result {
	return &result{Correct: !r.wrong, Attempted: r.attempted, Failed: r.failed}
}

// opsPerCPUSecond is completed operations per CPU second of the loop.
func (r *loopRun) opsPerCPUSecond() float64 {
	return ratio(float64(r.attempted-r.failed), r.spent.cpu.Seconds())
}

// opsPerWallSecond is a round's completed operations over the median
// round's wall-clock length: a slow stretch of the host moves one round,
// not the figure.
func (r *loopRun) opsPerWallSecond() float64 {
	return ratio(float64(r.attempted-r.failed)/float64(r.rounds), median(r.roundSeconds))
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// rssPeakMB reads the process's resident high-water mark (VmHWM) in MB.
func rssPeakMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read resident peak: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("read resident peak: %w", err)
	}
	return 0, errors.New("read resident peak: no VmHWM line in /proc/self/status")
}

// probe records per-layer samples around the public calls of a traced
// run. A nil probe records nothing and costs one nil check per call; a
// light probe records call timers only; a full probe also records
// allocation deltas and asks Solve for its span tree.
type probe struct {
	full  bool
	round int
	op    int
	calls map[string][]callSample
	// solves holds every solve the program traced (full probes only).
	solves []solveSample
	// serves holds every served request (serve-mixed).
	serves []serveSample
}

// callSample is one timed public call: its wall-clock and process CPU
// ms, and on a full probe what it allocated.
type callSample struct {
	round, op int
	ms, cpuMS float64
	allocB    uint64
	mallocs   uint64
}

// solveSample is one solve's report, carrying its span tree.
type solveSample struct {
	round, op int
	report    *steadystate.Report
}

// serveSample is one request to the server.
type serveSample struct {
	round int
	hit   bool
	ms    float64
}

func newProbe(full bool) *probe {
	return &probe{full: full, round: -1, calls: make(map[string][]callSample)}
}

// nextRound marks the start of the probe's next round: its rounds are
// numbered from 0, whichever loops ran them.
func (pr *probe) nextRound() {
	if pr != nil {
		pr.round++
	}
}

// at marks the operation the next samples belong to.
func (pr *probe) at(op int) {
	if pr != nil {
		pr.op = op
	}
}

// call runs f, timing it (and, on a full probe, measuring what it
// allocated) under the given layer name.
func (pr *probe) call(name string, f func() error) error {
	if pr == nil {
		return f()
	}
	var before, after runtime.MemStats
	if pr.full {
		runtime.ReadMemStats(&before)
	}
	start := startWatch()
	err := f()
	t := start.read()
	s := callSample{round: pr.round, op: pr.op, ms: ms(t.wall), cpuMS: ms(t.cpu)}
	if pr.full {
		runtime.ReadMemStats(&after)
		s.allocB = after.TotalAlloc - before.TotalAlloc
		s.mallocs = after.Mallocs - before.Mallocs
	}
	pr.calls[name] = append(pr.calls[name], s)
	return err
}

// solveOptions asks for a span tree when the probe is full.
func (pr *probe) solveOptions() []steadystate.SolveOption {
	if pr != nil && pr.full {
		return []steadystate.SolveOption{steadystate.WithTrace()}
	}
	return nil
}

// traced reports whether solves and requests should carry span trees.
func (pr *probe) traced() bool { return pr != nil && pr.full }

// recordSolve keeps a traced solve's report.
func (pr *probe) recordSolve(rep *steadystate.Report) {
	if pr.traced() && rep != nil && rep.Trace != nil && !rep.Trace.Replayed {
		pr.solves = append(pr.solves, solveSample{round: pr.round, op: pr.op, report: rep})
	}
}

// recordServe keeps one request's outcome.
func (pr *probe) recordServe(hit bool, d time.Duration) {
	if pr != nil {
		pr.serves = append(pr.serves, serveSample{round: pr.round, hit: hit, ms: ms(d)})
	}
}
