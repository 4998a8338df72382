package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	steadystate "repro"
	"repro/internal/serve"
)

// setupFunc builds one workload's round of operations from the seed.
type setupFunc func(ctx context.Context, cfg config) (*bench, error)

// workloads maps each workload's name to its set-up.
var workloads = map[string]setupFunc{
	"scatter-cold": setupScatterCold,
	"reduce-fill":  setupReduceFill,
	"warm-chains":  setupWarmChains,
	"serve-mixed":  setupServeMixed,
}

// poolSeed seeds every workload's scenario pool: the platforms, roles and
// perturbations a round is made of. The pool is the same on every run, so
// every run measures the same work (a case's cost varies 3–5× from one
// Tiers platform to the next); --seed draws the order of the round. Under
// this pool seed, 5 of warm-chains' 64 operations hit the known
// warm-start period fault (checkSamePeriod), so every run shows it.
const poolSeed = 9

// Workload sizes. A round is the same operations in the same order on
// every run of a seed; the sizes keep a round at a few seconds, so a run
// holds several rounds.
const (
	// warmOps is how many scenarios of the pool the untimed warm-up runs.
	warmOps = 4
	// scatter-cold: scenarios per round, one in four a broadcast.
	scatterScenarios = 128
	// warm-chains: chains per round, perturbed variants per chain after
	// the base, and the basis cache's capacity.
	warmChains    = 16
	warmVariants  = 3
	warmCacheSize = 16
	// serve-mixed: distinct scenarios, requested in blocks of
	// serveBlock, each block serveRepeats times in a row, against a
	// report cache of serveCacheSize entries. serveBlock < serveCacheSize
	// makes every repeat a hit; serveDistinct > serveCacheSize makes the
	// first request of every block a miss, whatever came before.
	serveDistinct  = 64
	serveBlock     = 4
	serveRepeats   = 5
	serveCacheSize = 8
)

// fillMix is reduce-fill's round: each entry is solved on its own seeded
// platform and roles.
var fillMix = []struct {
	kind  steadystate.Kind
	ranks int
	count int
}{
	{steadystate.KindReduce, 3, 30},
	{steadystate.KindPrefix, 3, 28},
	{steadystate.KindGossip, 4, 6},
	{steadystate.KindReduce, 4, 6},
	{steadystate.KindPrefix, 4, 3},
	{steadystate.KindAllreduce, 3, 2},
}

// inOrder returns xs in an order drawn from seed.
func inOrder[T any](xs []T, seed int64) []T {
	out := append([]T(nil), xs...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// tiersPlatform is the seeded Tiers platform: 4 WAN and 2 MAN routers,
// 4 LANs of 2 computing nodes each.
func tiersPlatform(rng *rand.Rand) *steadystate.Platform {
	return steadystate.Tiers(steadystate.DefaultTiersConfig(rng.Int63()))
}

// pickRanks returns n distinct participants of p in a seeded order.
func pickRanks(rng *rand.Rand, p *steadystate.Platform, n int) []steadystate.NodeID {
	parts := p.Participants()
	out := make([]steadystate.NodeID, n)
	for i, j := range rng.Perm(len(parts))[:n] {
		out[i] = parts[j]
	}
	return out
}

// pickSpread returns n participants of p from n distinct LANs (Tiers
// names computing nodes lan<l>_n<i>), LANs and nodes in a seeded order.
func pickSpread(rng *rand.Rand, p *steadystate.Platform, n int) []steadystate.NodeID {
	var lans []string
	byLAN := make(map[string][]steadystate.NodeID)
	for _, id := range p.Participants() {
		name := p.Node(id).Name
		lan := name[:strings.IndexByte(name, '_')]
		if _, ok := byLAN[lan]; !ok {
			lans = append(lans, lan)
		}
		byLAN[lan] = append(byLAN[lan], id)
	}
	out := make([]steadystate.NodeID, n)
	for i, j := range rng.Perm(len(lans))[:n] {
		nodes := byLAN[lans[j]]
		out[i] = nodes[rng.Intn(len(nodes))]
	}
	return out
}

// specFor builds the spec of kind over ranks (the first rank is the
// source, or the reduce target).
func specFor(kind steadystate.Kind, ranks []steadystate.NodeID) steadystate.Spec {
	switch kind {
	case steadystate.KindScatter:
		return steadystate.ScatterSpec(ranks[0], ranks[1:]...)
	case steadystate.KindBroadcast:
		return steadystate.BroadcastSpec(ranks[0], ranks[1:]...)
	case steadystate.KindGossip:
		return steadystate.GossipSpec(ranks, ranks)
	case steadystate.KindReduce:
		return steadystate.ReduceSpec(ranks, ranks[0])
	case steadystate.KindPrefix:
		return steadystate.PrefixSpec(ranks...)
	default:
		return steadystate.AllreduceSpec(ranks...)
	}
}

// scatterCase draws scatter-cold's i-th scenario: a scatter from a
// seeded participant to all others, or (every fourth) a broadcast to
// three of them.
func scatterCase(rng *rand.Rand, i int) (*steadystate.Platform, steadystate.Spec) {
	p := tiersPlatform(rng)
	if i%4 == 3 {
		return p, specFor(steadystate.KindBroadcast, pickRanks(rng, p, 4))
	}
	return p, specFor(steadystate.KindScatter, pickRanks(rng, p, len(p.Participants())))
}

// libCase is one library scenario with the references its checks need.
type libCase struct {
	label string
	p     *steadystate.Platform
	spec  steadystate.Spec
	bound steadystate.Rat // one-port upper bound
	floor steadystate.Rat // baseline heuristic's throughput, or nil
}

func newLibCase(label string, p *steadystate.Platform, spec steadystate.Spec) (*libCase, error) {
	bound, err := portBound(p, spec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	floor, err := baselineThroughput(p, spec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	return &libCase{label: label, p: p, spec: spec, bound: bound, floor: floor}, nil
}

// op solves the case cold on a fresh session, verifies and reports it,
// builds its schedule (prefix has none), models and replays it for twice
// the model's schedule depth, then checks throughput against the port
// bound and the baseline and the replay against the delivered-count
// window.
func (c *libCase) op() op {
	return op{label: c.label, run: func(ctx context.Context, pr *probe) (opTime, error) {
		start := startWatch()
		var sol steadystate.Solution
		if err := pr.call("api.solve", func() (err error) {
			sol, err = steadystate.NewSolver(c.p).Solve(ctx, c.spec, pr.solveOptions()...)
			return err
		}); err != nil {
			return opTime{}, fmt.Errorf("solve: %w", err)
		}
		verr := pr.call("api.verify", sol.Verify)
		var rep *steadystate.Report
		if err := pr.call("api.report", func() (err error) {
			rep, err = sol.Report()
			return err
		}); err != nil {
			return opTime{}, fmt.Errorf("report: %w", err)
		}
		if c.spec.Kind != steadystate.KindPrefix {
			if err := pr.call("schedule.build", func() error {
				_, err := sol.Schedule()
				return err
			}); err != nil {
				return opTime{}, fmt.Errorf("schedule: %w", err)
			}
		}
		var m *steadystate.SimModel
		if err := pr.call("sim.model", func() (err error) {
			m, err = sol.SimModel()
			return err
		}); err != nil {
			return opTime{}, fmt.Errorf("sim model: %w", err)
		}
		periods := 2 * scheduleDepth(m)
		var res *steadystate.SimResult
		if err := pr.call("sim.run", func() (err error) {
			res, err = steadystate.Simulate(m, periods)
			return err
		}); err != nil {
			return opTime{}, fmt.Errorf("simulate: %w", err)
		}
		lat := start.read()
		pr.recordSolve(rep)
		if pr.traced() {
			if err := pr.call("sim.latency", func() error {
				_, err := steadystate.SimulateLatency(m, periods)
				return err
			}); err != nil {
				return opTime{}, fmt.Errorf("simulate latency: %w", err)
			}
		}
		tp := sol.Throughput()
		return lat, errors.Join(checkVerify(verr), checkPortBound(tp, c.bound),
			checkBaseline(tp, c.floor), checkReplayResult(sol, m, res, periods))
	}}
}

// libBench turns the pool's library cases into a bench: a round of all
// of them in the seed's order, warmed up on the pool's first few.
func libBench(cases []*libCase, seed int64) *bench {
	pool := make([]op, len(cases))
	for i, c := range cases {
		pool[i] = c.op()
	}
	return &bench{ops: inOrder(pool, seed), warm: pool[:min(warmOps, len(pool))], close: func() {}}
}

func setupScatterCold(_ context.Context, cfg config) (*bench, error) {
	rng := rand.New(rand.NewSource(poolSeed))
	n := scatterScenarios
	if cfg.smoke {
		n = 4
	}
	cases := make([]*libCase, n)
	for i := range cases {
		p, spec := scatterCase(rng, i)
		c, err := newLibCase(fmt.Sprintf("%s-%02d", spec.Kind, i), p, spec)
		if err != nil {
			return nil, err
		}
		cases[i] = c
	}
	return libBench(cases, cfg.seed), nil
}

func setupReduceFill(_ context.Context, cfg config) (*bench, error) {
	rng := rand.New(rand.NewSource(poolSeed))
	var cases []*libCase
	for _, m := range fillMix {
		count := m.count
		if cfg.smoke {
			if m.ranks > 3 {
				continue
			}
			count = 1
		}
		for j := 0; j < count; j++ {
			p := tiersPlatform(rng)
			spec := specFor(m.kind, pickSpread(rng, p, m.ranks))
			c, err := newLibCase(fmt.Sprintf("%s%d-%d", m.kind, m.ranks, j), p, spec)
			if err != nil {
				return nil, err
			}
			cases = append(cases, c)
		}
	}
	return libBench(cases, cfg.seed), nil
}

// chain is the state one warm-chains perturbation chain shares: its
// basis cache, replaced by an empty one at the start of every pass over
// the chain.
type chain struct {
	cache *steadystate.BasisCache
}

// chainOps is one chain's operations, base first, with the set-up's cold
// solve time of each (0 for the base, which runs cold in the loop too).
type chainOps struct {
	ops    []op
	coldMS []float64
}

func setupWarmChains(ctx context.Context, cfg config) (*bench, error) {
	rng := rand.New(rand.NewSource(poolSeed))
	chains, variants := warmChains, warmVariants
	if cfg.smoke {
		chains, variants = 1, 2
	}
	jitter := big.NewRat(1, 10)
	pool := make([]chainOps, chains)
	for ci := range pool {
		// A base platform and its cumulatively perturbed variants, sharing
		// one scatter spec.
		base := tiersPlatform(rng)
		spec := specFor(steadystate.KindScatter, pickRanks(rng, base, len(base.Participants())))
		chainRng := rand.New(rand.NewSource(rng.Int63()))
		members := []*steadystate.Platform{base}
		for v := 1; v <= variants; v++ {
			members = append(members, perturbed(members[v-1], chainRng, jitter))
		}
		ch, co := &chain{}, &pool[ci]
		for v, p := range members {
			c, err := newLibCase(fmt.Sprintf("chain%d-p%02d", ci, v), p, spec)
			if err != nil {
				return nil, err
			}
			// The reference: a cold solve of the same scenario, on its own
			// session and without a basis cache.
			start := time.Now()
			ref, err := steadystate.Solve(ctx, p, spec)
			if err != nil {
				return nil, fmt.Errorf("%s: cold reference: %w", c.label, err)
			}
			cold := ms(time.Since(start))
			if v == 0 {
				cold = 0 // the base solve runs cold in the loop too
			}
			co.coldMS = append(co.coldMS, cold)
			co.ops = append(co.ops, warmOp(ch, v, c, ref.Throughput(), ref.Period()))
		}
	}
	// Chains stay whole, in the seed's order; the warm-up is the pool's
	// first chain.
	b := &bench{warm: pool[0].ops, close: func() {}}
	for _, co := range inOrder(pool, cfg.seed) {
		b.ops = append(b.ops, co.ops...)
		b.coldMS = append(b.coldMS, co.coldMS...)
	}
	return b, nil
}

// warmOp re-solves member v of the chain through a session sharing the
// chain's basis cache, emptied before the base (v = 0) is solved, and
// checks that throughput and period are bit-identical to the cold
// reference.
func warmOp(ch *chain, v int, c *libCase, refTP steadystate.Rat, refPeriod *big.Int) op {
	return op{label: c.label, run: func(ctx context.Context, pr *probe) (opTime, error) {
		if v == 0 {
			ch.cache = steadystate.NewBasisCache(warmCacheSize)
		}
		start := startWatch()
		var sol steadystate.Solution
		if err := pr.call("api.solve", func() (err error) {
			sol, err = steadystate.NewSolver(c.p).UseBasisCache(ch.cache).Solve(ctx, c.spec, pr.solveOptions()...)
			return err
		}); err != nil {
			return opTime{}, fmt.Errorf("solve: %w", err)
		}
		verr := pr.call("api.verify", sol.Verify)
		var rep *steadystate.Report
		if err := pr.call("api.report", func() (err error) {
			rep, err = sol.Report()
			return err
		}); err != nil {
			return opTime{}, fmt.Errorf("report: %w", err)
		}
		lat := start.read()
		pr.recordSolve(rep)
		tp := sol.Throughput()
		return lat, errors.Join(checkVerify(verr), checkSameTP(tp, refTP), checkSamePeriod(sol.Period(), refPeriod),
			checkPortBound(tp, c.bound), checkBaseline(tp, c.floor))
	}}
}

// perturbed returns one seeded mutation of p in the manner of topogen
// -perturb: usually every edge cost scaled by its own factor, sometimes
// one computing node's speed scaled, occasionally one edge deleted (kept
// only when the platform stays mutually connected). Factors are exact:
// 1 + jitter·k/8 with k uniform in [−8, 8]. Node IDs never change, so
// the chain's spec stays valid.
func perturbed(p *steadystate.Platform, rng *rand.Rand, jitter *big.Rat) *steadystate.Platform {
	factor := func() *big.Rat {
		k := int64(rng.Intn(17) - 8)
		f := new(big.Rat).Mul(jitter, big.NewRat(k, 8))
		return f.Add(f, big.NewRat(1, 1))
	}
	jittered := func(edges []steadystate.Edge) []steadystate.Edge {
		out := append([]steadystate.Edge(nil), edges...)
		for i := range out {
			out[i].Cost = new(big.Rat).Mul(out[i].Cost, factor())
		}
		return out
	}
	nodes, edges := p.Nodes(), p.Edges()
	switch rng.Intn(8) {
	case 0:
		i := rng.Intn(len(edges))
		rest := append(append([]steadystate.Edge(nil), edges[:i]...), edges[i+1:]...)
		if q := rebuild(nodes, rest); q.Validate() == nil {
			return q
		}
		return rebuild(nodes, jittered(edges))
	case 1:
		var computing []int
		for i, n := range nodes {
			if !n.Router {
				computing = append(computing, i)
			}
		}
		scaled := append([]steadystate.Node(nil), nodes...)
		i := computing[rng.Intn(len(computing))]
		scaled[i].Speed = new(big.Rat).Mul(scaled[i].Speed, factor())
		return rebuild(scaled, edges)
	default:
		return rebuild(nodes, jittered(edges))
	}
}

// rebuild assembles a platform from node and edge lists, adding nodes in
// ID order so IDs are preserved.
func rebuild(nodes []steadystate.Node, edges []steadystate.Edge) *steadystate.Platform {
	q := steadystate.NewPlatform()
	for _, n := range nodes {
		if n.Router {
			q.AddRouter(n.Name)
		} else {
			q.AddNode(n.Name, n.Speed)
		}
	}
	for _, e := range edges {
		q.AddEdge(e.From, e.To, e.Cost)
	}
	return q
}

// serveBench is serve-mixed's state: the server of the current round.
type serveBench struct {
	cfg serve.Config
	srv *serve.Server
	h   http.Handler
}

// restart replaces the server with a fresh one, so every round starts
// from empty caches and sees the same hit/miss pattern.
func (s *serveBench) restart() {
	s.stop()
	s.srv = serve.New(s.cfg)
	s.h = s.srv.Handler()
}

// stop shuts the current server down, waiting for its worker.
func (s *serveBench) stop() {
	if s.srv != nil {
		s.srv.Close()
		s.srv = nil
	}
}

func setupServeMixed(ctx context.Context, cfg config) (*bench, error) {
	rng := rand.New(rand.NewSource(poolSeed))
	distinct, block, repeats := serveDistinct, serveBlock, serveRepeats
	if cfg.smoke {
		distinct, block, repeats = 2, 2, 2
	}
	type scenario struct {
		*libCase
		body   []byte
		tp     steadystate.Rat
		period *big.Int
	}
	scs := make([]scenario, distinct)
	for i := range scs {
		p, spec := scatterCase(rng, i)
		body, err := json.Marshal(&steadystate.Scenario{Platform: p, Spec: spec})
		if err != nil {
			return nil, fmt.Errorf("encode scenario %d: %w", i, err)
		}
		c, err := newLibCase(fmt.Sprintf("%s-%02d", spec.Kind, i), p, spec)
		if err != nil {
			return nil, err
		}
		// The reference: a direct library solve of the same scenario.
		ref, err := steadystate.Solve(ctx, p, spec)
		if err != nil {
			return nil, fmt.Errorf("%s: library reference: %w", c.label, err)
		}
		scs[i] = scenario{libCase: c, body: body, tp: ref.Throughput(), period: ref.Period()}
	}
	s := &serveBench{cfg: serve.Config{Workers: 1, CacheSize: serveCacheSize}}
	reqOp := func(sc scenario, wantHit bool) op {
		return op{label: sc.label, run: func(ctx context.Context, pr *probe) (opTime, error) {
			return s.request(ctx, pr, sc.body, wantHit, func(rep *steadystate.Report) error {
				tp, err := steadystate.ParseRat(rep.Throughput)
				if err != nil {
					return checkFailed("served throughput %q: %v", rep.Throughput, err)
				}
				period, ok := new(big.Int).SetString(rep.Period, 10)
				if !ok {
					return checkFailed("served period %q is not an integer", rep.Period)
				}
				return errors.Join(checkSameTP(tp, sc.tp), checkSamePeriod(period, sc.period),
					checkPortBound(tp, sc.bound), checkBaseline(tp, sc.floor))
			})
		}}
	}
	// The warm-up requests the pool's first few scenarios from a fresh
	// server; the round sends the scenarios in the seed's order.
	b := &bench{startRound: s.restart, close: s.stop}
	for _, sc := range scs[:min(warmOps, distinct)] {
		b.warm = append(b.warm, reqOp(sc, false))
	}
	scs = inOrder(scs, cfg.seed)
	for first := 0; first < distinct; first += block {
		for r := 0; r < repeats; r++ {
			for i := first; i < first+block && i < distinct; i++ {
				b.ops = append(b.ops, reqOp(scs[i], r > 0))
			}
		}
	}
	return b, nil
}

// request posts one scenario to /solve through the handler, in memory,
// and checks the served report and the cache outcome.
func (s *serveBench) request(ctx context.Context, pr *probe, body []byte, wantHit bool, check func(*steadystate.Report) error) (opTime, error) {
	target := "/solve"
	if pr.traced() {
		target += "?trace=1"
		// The serving layer's own steps on the same bytes, timed apart:
		// scenario decoding, the platform hash and the cache key.
		var sc steadystate.Scenario
		if err := pr.call("serve.decode", func() error { return json.Unmarshal(body, &sc) }); err != nil {
			return opTime{}, fmt.Errorf("decode scenario: %w", err)
		}
		if err := pr.call("graph.content_hash", func() error {
			_, err := sc.Platform.ContentHash()
			return err
		}); err != nil {
			return opTime{}, fmt.Errorf("content hash: %w", err)
		}
		if err := pr.call("serve.cache_key", func() error {
			_, err := serve.CacheKey(&sc)
			return err
		}); err != nil {
			return opTime{}, fmt.Errorf("cache key: %w", err)
		}
	}
	var waitBefore serve.HistogramSnapshot
	if pr != nil {
		waitBefore = s.srv.Metrics().Snapshot().QueueWaitMS
	}
	req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	var lat opTime
	_ = pr.call("serve.request", func() error {
		start := startWatch()
		s.h.ServeHTTP(rec, req)
		lat = start.read()
		return nil
	})
	if rec.Code != http.StatusOK {
		return opTime{}, fmt.Errorf("/solve answered %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	hit := rec.Header().Get("X-Cache") == "hit"
	pr.recordServe(hit, lat.wall)
	if pr != nil && !hit {
		wait := s.srv.Metrics().Snapshot().QueueWaitMS
		pr.calls["serve.queue_wait"] = append(pr.calls["serve.queue_wait"],
			callSample{round: pr.round, op: pr.op, ms: wait.SumMS - waitBefore.SumMS})
	}
	var rep steadystate.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		return opTime{}, fmt.Errorf("decode served report: %w", err)
	}
	pr.recordSolve(&rep)
	if hit != wantHit {
		return lat, checkFailed("cache outcome hit=%t, want hit=%t", hit, wantHit)
	}
	return lat, check(&rep)
}
