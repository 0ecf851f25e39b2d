package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/defaults"
	"repro/internal/registry"
	"repro/internal/serve"
)

// serveSpec is one serving workload: the matrix it registers, the request
// shape every request has, and the load that sends them.
type serveSpec struct {
	name        string
	cube        int // the qa8fm analogue's grid side (n = cube³)
	pageDoubles int // posted page_doubles; 0 = the server's default
	shape       serve.Request
	// clients > 0 is a closed loop of that many callers; otherwise rate
	// is an open loop's Poisson arrival rate per second.
	clients int
	rate    float64
	// Every wantEvery-th request asks for its solution, which the
	// benchmark checks against its own copy of A.
	wantEvery int
}

var servePCG = serveSpec{
	name: "serve-pcg", cube: 16, pageDoubles: 1024,
	shape:   serve.Request{Solver: "cg", Precond: true, Tol: 1e-8},
	clients: 2, wantEvery: 8,
}

var serveBatch = serveSpec{
	name: "serve-batch", cube: 16,
	shape: serve.Request{Method: "feir", Tol: 1e-8, Batch: true},
	rate:  60, wantEvery: 32,
}

const matrixKey = "bench"

// exchange is one HTTP request through the handler and its reply.
type exchange struct {
	body     int       // index into the pre-encoded bodies
	due      time.Time // open loop: scheduled send; closed loop: actual send
	sent     time.Time
	done     time.Time
	code     int
	reply    []byte
	traced   bool
	received *serve.Response
}

func post(h http.Handler, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

func stats(h http.Handler) (serve.Stats, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st serve.Stats
	if rec.Code != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d", rec.Code)
	}
	return st, json.Unmarshal(rec.Body.Bytes(), &st)
}

// prewarmShapes are the request shapes a workload sends: a batch-opted
// request that finds no companion solves solo, so its solo twin is
// warmed too.
func (s serveSpec) prewarmShapes() []serve.Request {
	shapes := []serve.Request{s.shape}
	if s.shape.Batch {
		solo := s.shape
		solo.Batch = false
		shapes = append(shapes, solo)
	}
	for i := range shapes {
		shapes[i].Matrix = matrixKey
	}
	return shapes
}

// setup registers the matrix through POST /v1/matrices and prewarms every
// request shape on a fresh server, returning the server and the time it
// took.
func (s serveSpec) setup(matBody []byte) (*serve.Server, time.Duration, error) {
	srv := serve.New(serve.Options{})
	t := time.Now()
	if code, reply := post(srv.Handler(), "/v1/matrices", matBody); code != http.StatusOK {
		srv.Drain()
		return nil, 0, fmt.Errorf("POST /v1/matrices: status %d: %s", code, reply)
	}
	for _, shape := range s.prewarmShapes() {
		if err := srv.Prewarm(&shape, defaults.ServeConcurrentOr(0)); err != nil {
			srv.Drain()
			return nil, 0, fmt.Errorf("prewarm: %w", err)
		}
	}
	return srv, time.Since(t), nil
}

func (s serveSpec) run(env *runEnv) (*result, error) {
	res := &result{fig: figures{}}
	a := massMatrix(s.cube, env.seed)
	res.notef("operator: qa8fm analogue n=%d nnz=%d, %d CSR bytes, %.0f bytes per SpMV (computed), posted as raw CSR with page_doubles %d",
		a.N, len(a.Vals), csrBytes(a), spmvBytes(a, 1), s.pageDoubles)
	matBody, err := json.Marshal(serve.MatrixSubmission{
		Key: matrixKey, N: a.N, RowPtr: a.RowPtr, Cols: a.Cols, Vals: a.Vals, PageDoubles: s.pageDoubles,
	})
	if err != nil {
		return nil, err
	}

	// Request bodies, each with its own right-hand side, are encoded
	// before anything is timed. An open loop's part sends the slice of the
	// run's arrival schedule that falls in its share of the window.
	var due []time.Duration
	first, nbodies := 256*env.part, 256
	if s.clients == 0 {
		all := arrivals(s.rate, env.total, env.seed)
		for i, at := range all {
			if at >= env.offset && at < env.offset+env.window {
				if due == nil {
					first = i
				}
				due = append(due, at-env.offset)
			}
		}
		nbodies = len(due)
	}
	rhs := make([][]float64, nbodies)
	bodies := make([][]byte, nbodies)
	for i := range bodies {
		rhs[i] = rhsVector(a.N, env.seed, first+i)
		req := s.shape
		req.Matrix = matrixKey
		req.B = rhs[i]
		req.WantSolution = (first+i)%s.wantEvery == 0
		if bodies[i], err = json.Marshal(&req); err != nil {
			return nil, err
		}
	}

	srv, d, err := s.setup(matBody)
	if err != nil {
		return nil, err
	}
	defer srv.Drain()
	res.Samples.Setup = []float64{d.Seconds()}
	h := srv.Handler()

	before, err := stats(h)
	if err != nil {
		return nil, err
	}
	c0 := readCounters()
	var xs []*exchange
	start := time.Now()
	if s.clients > 0 {
		xs = closedLoop(h, bodies, s.clients, start, env)
	} else {
		xs = openLoop(h, bodies, due, start, env)
	}
	c1 := readCounters()
	after, err := stats(h)
	if err != nil {
		return nil, err
	}

	tol := s.shape.Tol
	var lat, latTraced, late, ingress, queue, solve []float64
	last := start
	for _, x := range xs {
		if x.code == http.StatusOK {
			var r serve.Response
			if json.Unmarshal(x.reply, &r) == nil {
				x.received = &r
			}
		}
		reason, v := checkServe(a, tol, x.code, x.received, rhs[x.body], (first+x.body)%s.wantEvery == 0)
		res.Tally.record(reason, v)
		if x.done.After(last) {
			last = x.done
		}
		if v != pass {
			continue
		}
		l := ms(x.done.Sub(x.due))
		res.Samples.Latency = append(res.Samples.Latency, l)
		if x.traced {
			latTraced = append(latTraced, l)
		} else {
			lat = append(lat, l)
		}
		late = append(late, ms(x.sent.Sub(x.due)))
		r := x.received
		wall := x.done.Sub(x.sent)
		in := wall - r.Queued - r.Elapsed
		ingress = append(ingress, ms(in))
		queue = append(queue, ms(r.Queued))
		solve = append(solve, r.Elapsed.Seconds())
		if x.traced {
			// Ingress (decode, admission, encode) is drawn first; by
			// construction the three children add up to the wall time.
			root := env.tr.add(0, "serve.request", first+x.body, x.sent, x.done)
			t1 := x.sent.Add(in)
			t2 := t1.Add(r.Queued)
			env.tr.add(root, "serve.ingress", first+x.body, x.sent, t1)
			env.tr.add(root, "serve.queue", first+x.body, t1, t2)
			env.tr.add(root, "serve.solve", first+x.body, t2, x.done)
		}
	}
	res.Samples.Busy = last.Sub(start).Seconds()
	res.Samples.Solve = solve
	// No DUEs are injected while serving: every solve is a clean one.
	res.Samples.Clean = solve
	res.notef("%d requests, %s", len(xs), s.load())

	if !env.traced {
		return res, nil
	}
	f := res.fig
	f["trace.overhead_pct"] = overheadPct(latTraced, lat)
	f["serve.ingress_ms_p50"] = median(ingress)
	f["serve.queue_ms_p50"] = median(queue)
	f["serve.queue_ms_p90"] = quantile(queue, 0.9)
	f["serve.solve_ms_p50"] = 1e3 * median(solve)
	if db := after.BatchesDispatched - before.BatchesDispatched; db > 0 {
		f["serve.batch_width_mean"] = float64(after.RequestsCoalesced-before.RequestsCoalesced) / float64(db)
	}
	f["serve.rejected"] = float64(after.Rejected - before.Rejected)
	f["serve.failed"] = float64(after.Failed - before.Failed)
	f["serve.cache_bytes"] = float64(after.CacheBytes)
	if s.clients == 0 {
		f["loadgen.late_ms_p99"] = quantile(late, 0.99)
	}
	c1.deltas(c0, f)
	var iters []float64
	for _, x := range xs {
		if x.received != nil {
			iters = append(iters, float64(x.received.Iterations))
		}
	}
	f["core.iterations"] = median(iters)

	octx, ok := srv.Cache().Get(matrixKey)
	if !ok {
		return nil, fmt.Errorf("matrix %q left the cache", matrixKey)
	}
	checkout, err := s.checkoutMs(octx, rhs)
	if err != nil {
		return nil, err
	}
	f["registry.checkout_ms_p50"] = checkout
	probe := registry.NewOperatorContext("probe", octx.A, octx.PageDoubles)
	t := time.Now()
	probe.Blocks(true)
	f["registry.factor_s"] = time.Since(t).Seconds()
	return res, kernelLayers(octx.A, octx.PageDoubles, true, env.seed, f)
}

func (s serveSpec) load() string {
	if s.clients > 0 {
		return fmt.Sprintf("closed loop, %d clients", s.clients)
	}
	return fmt.Sprintf("open loop, Poisson %.0f/s", s.rate)
}

// checkoutMs times Checkout (or CheckoutBatch) → Release on the warm
// context with the workload's configuration.
func (s serveSpec) checkoutMs(octx *registry.OperatorContext, rhs [][]float64) (float64, error) {
	method, err := serve.ParseMethod(s.shape.Method)
	if err != nil {
		return 0, err
	}
	cfg := registry.Config{}
	cfg.Method, cfg.PageDoubles, cfg.Tol, cfg.UsePrecond = method, octx.PageDoubles, s.shape.Tol, s.shape.Precond
	width := defaults.ServeBatchWidthOr(0)
	var samples []float64
	for i := 0; i < 50; i++ {
		t := time.Now()
		if s.shape.Batch {
			co, err := octx.CheckoutBatch("cg", rhs[:width], width, cfg)
			if err != nil {
				return 0, err
			}
			co.Release()
		} else {
			co, err := octx.Checkout("cg", rhs[0], cfg)
			if err != nil {
				return 0, err
			}
			co.Release()
		}
		samples = append(samples, ms(time.Since(t)))
	}
	return median(samples), nil
}

// closedLoop runs clients callers, each sending its next request when the
// previous one returned, until the window closes. Latency is timed from
// the actual send.
func closedLoop(h http.Handler, bodies [][]byte, clients int, start time.Time, env *runEnv) []*exchange {
	var mu sync.Mutex
	var xs []*exchange
	next := 0
	deadline := start.Add(env.window)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				x := &exchange{body: i % len(bodies), traced: env.traced && i%2 == 0}
				req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(bodies[x.body]))
				rec := httptest.NewRecorder()
				x.sent = time.Now()
				x.due = x.sent
				h.ServeHTTP(rec, req)
				x.done = time.Now()
				x.code, x.reply = rec.Code, rec.Body.Bytes()
				mu.Lock()
				xs = append(xs, x)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return xs
}

// openLoop sends request i at start+due[i] whether or not earlier ones
// returned. Latency is timed from the scheduled send, so a stall also
// charges the requests queued behind it.
func openLoop(h http.Handler, bodies [][]byte, due []time.Duration, start time.Time, env *runEnv) []*exchange {
	xs := make([]*exchange, len(due))
	var wg sync.WaitGroup
	for i, at := range due {
		x := &exchange{body: i, due: start.Add(at), traced: env.traced && i%2 == 0}
		xs[i] = x
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(bodies[i]))
		if d := time.Until(x.due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			x.sent = time.Now()
			h.ServeHTTP(rec, req)
			x.done = time.Now()
			x.code, x.reply = rec.Code, rec.Body.Bytes()
		}()
	}
	wg.Wait()
	return xs
}
