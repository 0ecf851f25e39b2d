package main

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/defaults"
	"repro/internal/inject"
	"repro/internal/registry"
	"repro/internal/sparse"
)

// solveSpec is one direct-solve workload: clean solves alternate with
// solves under a seeded DUE plan over the same right-hand side.
type solveSpec struct {
	name   string
	nx, ny int // grid of the parabolic_fem analogue
	method core.Method
	// ranks > 0 solves on the rank-sharded substrate through a cached
	// OperatorContext; 0 builds each solve with registry.New.
	ranks int
	// meanIters is the DUE plan's mean gap in iterations between errors.
	meanIters float64
	// slack is how many iterations a solve under DUEs may take beyond its
	// clean twin; exact recovery should need none, but one extra
	// iteration has been seen on 2-rank FEIR.
	slack int
	// restartVectors are the vectors whose lost pages the solver rebuilds
	// by restarting the search direction (a forced β=0 step) rather than
	// exactly: the distributed CG does so for d and q (DESIGN.md,
	// "Per-method recovery on the substrate"). Each DUE fired on one
	// widens the slack by one iteration.
	restartVectors []string
	// minPairs is the fewest clean/DUE pairs a run measures, even when
	// the window closes first.
	minPairs int
	// nrhs is how many distinct right-hand sides the pairs cycle through.
	nrhs int
}

var solveLarge = solveSpec{
	name: "solve-large", nx: 2000, ny: 2000, method: core.MethodAFEIR,
	meanIters: 4, slack: 2, minPairs: 1, nrhs: 2,
}

var solveDist = solveSpec{
	name: "solve-dist", nx: 256, ny: 256, method: core.MethodFEIR, ranks: 2,
	meanIters: 4, slack: 2, minPairs: 10, nrhs: 16,
	restartVectors: []string{"d", "q"},
}

const solveTol = 1e-8

// solveRecord is one timed solve.
type solveRecord struct {
	due, traced bool
	// start, ready, ran and done bound the construction or checkout
	// (start→ready) and Instance.Run (ran→done); ticks are the
	// OnIteration callbacks of a traced solve.
	start, ready, ran, done time.Time
	ticks                   []time.Time
	res                     core.Result
	rankFaultsMax           int
	fired                   int
	// restartHits counts the fired DUEs that landed on restartVectors.
	restartHits    int
	cleanTwinIters int
}

func (r *solveRecord) checkout() time.Duration { return r.ready.Sub(r.start) }
func (r *solveRecord) run() time.Duration      { return r.done.Sub(r.ran) }

// instance builds one solver: registry.New for single-node workloads, a
// Checkout of the cached context for the distributed one.
func (s solveSpec) instance(a *sparse.CSR, octx *registry.OperatorContext, b []float64, onIter func(int, float64)) (*registry.Instance, func(), error) {
	cfg := registry.Config{Ranks: s.ranks, SharedPool: true}
	cfg.Method, cfg.Tol, cfg.OnIteration = s.method, solveTol, onIter
	if octx == nil {
		inst, err := registry.New("cg", a, b, cfg)
		return inst, func() {}, err
	}
	co, err := octx.Checkout("cg", b, cfg)
	if err != nil {
		return nil, nil, err
	}
	return co.Instance, co.Release, nil
}

// setup makes the operator ready as a caller would: builds the kernel
// shadows of a fresh CSR over the generated arrays, then the first solver
// (registry.New, or NewOperatorContext + Checkout, whose eager block
// factorization dominates).
func (s solveSpec) setup(base *sparse.CSR, b []float64) (*sparse.CSR, *registry.OperatorContext, time.Duration, error) {
	t := time.Now()
	a := fresh(base)
	a.BuildIndex32()
	var octx *registry.OperatorContext
	if s.ranks > 0 {
		octx = registry.NewOperatorContext("bench", a, 0)
	}
	_, release, err := s.instance(a, octx, b, nil)
	if err != nil {
		return nil, nil, 0, err
	}
	d := time.Since(t)
	release()
	return a, octx, d, nil
}

// solve runs one solve, under the DUE plan seeded by planSeed when due.
func (s solveSpec) solve(a *sparse.CSR, octx *registry.OperatorContext, b []float64, due bool, planSeed int64, traced bool) (*solveRecord, []float64, error) {
	rec := &solveRecord{due: due, traced: traced}
	var plan *inject.Plan
	onIter := func(it int, _ float64) {
		if plan != nil {
			plan.Tick(it)
		}
		if traced {
			rec.ticks = append(rec.ticks, time.Now())
		}
	}
	rec.start = time.Now()
	inst, release, err := s.instance(a, octx, b, onIter)
	if err != nil {
		return nil, nil, err
	}
	defer release()
	rec.ready = time.Now()
	if due {
		plan = inject.Schedule{
			Phases:  []inject.RatePhase{{MeanIters: s.meanIters}},
			Seed:    planSeed,
			Targets: inst.Dynamic,
		}.Compile(1000)
		plan.Start()
		defer plan.Stop()
	}
	rec.ran = time.Now()
	rec.res, err = inst.Run()
	rec.done = time.Now()
	if err != nil {
		return nil, nil, err
	}
	if plan != nil {
		rec.fired = plan.Fired()
		for _, e := range plan.Errors[:rec.fired] {
			if slices.Contains(s.restartVectors, e.Vector.Name()) {
				rec.restartHits++
			}
		}
	}
	if inst.RankStats != nil {
		for _, st := range inst.RankStats() {
			rec.rankFaultsMax = max(rec.rankFaultsMax, st.FaultsSeen)
		}
	}
	return rec, append([]float64(nil), inst.Solution()...), nil
}

func (s solveSpec) run(env *runEnv) (*result, error) {
	res := &result{fig: figures{}}
	base := femMatrix(s.nx, s.ny, env.seed)
	res.notef("operator: parabolic_fem analogue n=%d nnz=%d, %d CSR bytes, %.0f bytes per SpMV (computed)",
		base.N, len(base.Vals), csrBytes(base), spmvBytes(base, 1))
	rhs := make([][]float64, s.nrhs)
	for i := range rhs {
		rhs[i] = rhsVector(base.N, env.seed, env.part*s.nrhs+i)
	}

	a, octx, d, err := s.setup(base, rhs[0])
	if err != nil {
		return nil, err
	}
	res.Samples.Setup = []float64{d.Seconds()}

	c0 := readCounters()
	var recs []*solveRecord
	var busy time.Duration
	fallbacks := 0
	start := time.Now()
	for k := 0; k < s.minPairs || time.Since(start) < env.window; k++ {
		b := rhs[k%len(rhs)]
		traced := env.traced && k%2 == 0
		cleanIters := -1
		for _, due := range []bool{false, true} {
			// Collecting before each timed solve keeps the previous one's
			// garbage from being marked (on a core the solve needs) or
			// counted in the peak resident set at a moment that varies
			// from run to run.
			runtime.GC()
			rec, x, err := s.solve(a, octx, b, due, planSeed(env.seed, env.part<<16+k), traced)
			if err != nil {
				return nil, fmt.Errorf("pair %d (due=%v): %w", k, due, err)
			}
			busy += rec.checkout() + rec.run()
			if fellBack(rec.res.Stats) {
				fallbacks++
			}
			res.Tally.record(checkSolve(a, solveTol, rec.res, x, b, cleanIters, s.slack+rec.restartHits))
			rec.cleanTwinIters = cleanIters
			if !due {
				cleanIters = rec.res.Iterations
			}
			recs = append(recs, rec)
			if traced {
				s.trace(env.tr, len(recs), rec)
			}
		}
	}
	c1 := readCounters()

	var cleanRun, dueRun, dueLat, dueLatTraced, checkouts, gaps []float64
	var faults, fwd, inv, lost, unrec, rankMax, fired, iters []float64
	excess, restartHits := 0, 0
	for _, r := range recs {
		checkouts = append(checkouts, ms(r.checkout()))
		if !r.due {
			cleanRun = append(cleanRun, r.run().Seconds())
			prev := r.ran
			for _, tk := range r.ticks {
				gaps = append(gaps, ms(tk.Sub(prev)))
				prev = tk
			}
			continue
		}
		dueRun = append(dueRun, r.run().Seconds())
		l := ms(r.checkout() + r.run())
		res.Samples.Latency = append(res.Samples.Latency, l)
		if r.traced {
			dueLatTraced = append(dueLatTraced, l)
		} else {
			dueLat = append(dueLat, l)
		}
		st := r.res.Stats
		faults = append(faults, float64(st.FaultsSeen))
		fwd = append(fwd, float64(st.RecoveredForward))
		inv = append(inv, float64(st.RecoveredInverse))
		lost = append(lost, float64(st.ContributionsLost))
		unrec = append(unrec, float64(st.Unrecovered))
		rankMax = append(rankMax, float64(r.rankFaultsMax))
		fired = append(fired, float64(r.fired))
		iters = append(iters, float64(r.res.Iterations))
		excess = max(excess, r.res.Iterations-r.cleanTwinIters)
		restartHits += r.restartHits
	}
	res.Samples.Busy = busy.Seconds()
	res.Samples.Solve = dueRun
	res.Samples.Clean = cleanRun
	slack := fmt.Sprintf("slack %d", s.slack)
	if len(s.restartVectors) > 0 {
		slack += fmt.Sprintf(", plus 1 for each DUE on %s, %d in all", strings.Join(s.restartVectors, "/"), restartHits)
	}
	res.notef("%d clean/DUE pairs, one DUE per %.0f iterations on average; most iterations beyond the clean twin: %d (%s); %d solves fell back from exact recovery",
		len(recs)/2, s.meanIters, excess, slack, fallbacks)

	if !env.traced {
		return res, nil
	}
	f := res.fig
	f["trace.overhead_pct"] = overheadPct(dueLatTraced, dueLat)
	c1.deltas(c0, f)
	f["registry.checkout_ms_p50"] = median(checkouts)
	f["core.iterations"] = median(iters)
	f["core.iter_ms_p50"] = median(gaps)
	f["core.faults_seen"] = mean(faults)
	f["core.recovered_forward"] = mean(fwd)
	f["core.recovered_inverse"] = mean(inv)
	f["core.contributions_lost"] = mean(lost)
	f["core.unrecovered"] = mean(unrec)
	if m := mean(faults); m > 0 {
		f["core.recovery_ms_per_due"] = 1e3 * (median(dueRun) - median(cleanRun)) / m
	}
	f["dist.rank_faults_max"] = mean(rankMax)
	f["inject.fired"] = mean(fired)
	if s.ranks > 0 {
		probe := registry.NewOperatorContext("probe", a, 0)
		t := time.Now()
		probe.Blocks(true)
		f["registry.factor_s"] = time.Since(t).Seconds()
	}
	pd := defaults.PageDoublesOr(0)
	if octx != nil {
		pd = octx.PageDoubles
	}
	return res, kernelLayers(a, pd, false, env.seed, f)
}

// trace records one solve's spans: the construction or checkout, the
// run, and one child of the run per iteration, each iteration ending at
// its OnIteration callback.
func (s solveSpec) trace(tr *tracer, id int, r *solveRecord) {
	name := "registry.new"
	if s.ranks > 0 {
		name = "registry.checkout"
	}
	root := tr.add(0, "solve", id, r.start, r.done)
	tr.add(root, name, id, r.start, r.ready)
	run := tr.add(root, "core.run", id, r.ran, r.done)
	at := r.ran
	for _, tk := range r.ticks {
		tr.add(run, "core.iteration", id, at, tk)
		at = tk
	}
}
