package main

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// The answer check is the benchmark's own: it trusts no number the
// program reports about itself beyond what it can recompute. A solve
// fails when the program says it did not converge or reports a residual
// above the tolerance, and also when the benchmark, from its own copy of
// A, finds the returned solution's true residual above trueResFactor·tol.

// trueResFactor is the slack between the requested tolerance and the
// recomputed true residual: the solvers stop on the recurrence residual,
// which drifts from the true one by rounding.
const trueResFactor = 10

// verdict classifies one checked operation.
type verdict int

const (
	pass verdict = iota
	// refused: the program declined the work (HTTP 429 or 503).
	refused
	// wrong: the answer is wrong or missing.
	wrong
	// deviant: the answer is right, but a solve under DUEs took more
	// iterations beyond its clean twin than the recorded slack allows —
	// the exact-recovery contract was broken.
	deviant
)

// tally counts attempted and failed operations. Every verdict but pass is
// a failure; only wrong answers make a run incorrect.
type tally struct {
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Refused   int            `json:"refused"`
	Wrong     int            `json:"wrong"`
	Reasons   map[string]int `json:"reasons,omitempty"`
}

func (t *tally) record(reason string, v verdict) {
	t.Attempted++
	if v == pass {
		return
	}
	t.Failed++
	switch v {
	case refused:
		t.Refused++
	case wrong:
		t.Wrong++
	}
	if t.Reasons == nil {
		t.Reasons = make(map[string]int)
	}
	t.Reasons[reason]++
}

func (t *tally) merge(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.Refused += o.Refused
	t.Wrong += o.Wrong
	for k, v := range o.Reasons {
		if t.Reasons == nil {
			t.Reasons = make(map[string]int)
		}
		t.Reasons[k] += v
	}
}

// answered counts operations that returned a correct answer.
func (t *tally) answered() int { return t.Attempted - t.Refused - t.Wrong }

func (t *tally) failedFrac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}

func (t *tally) String() string {
	keys := make([]string, 0, len(t.Reasons))
	for k := range t.Reasons {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, t.Reasons[k])
	}
	return fmt.Sprintf("attempted=%d failed=%d (refused=%d wrong=%d) [%s]", t.Attempted, t.Failed, t.Refused, t.Wrong, strings.Join(parts, " "))
}

// relResidual is ‖b − A x‖ / ‖b‖, computed by the benchmark's own loop
// over the CSR arrays so that the check does not rest on the kernels it
// checks. A solution of the wrong length has an infinite residual.
func relResidual(a *sparse.CSR, x, b []float64) float64 {
	if len(x) != a.N || len(b) != a.N {
		return math.Inf(1)
	}
	var rr, bb float64
	for i := 0; i < a.N; i++ {
		s := b[i]
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			s -= a.Vals[p] * x[a.Cols[p]]
		}
		rr += s * s
		bb += b[i] * b[i]
	}
	if bb == 0 {
		return math.Sqrt(rr)
	}
	return math.Sqrt(rr / bb)
}

// checkServe judges one HTTP exchange. resp is the decoded body of a 200
// reply (nil otherwise); b is the request's right-hand side, and when
// wantX is set the reply must carry a solution whose true residual the
// benchmark recomputes. It returns the verdict and, for a failure, its
// reason.
func checkServe(a *sparse.CSR, tol float64, code int, resp *serve.Response, b []float64, wantX bool) (string, verdict) {
	switch {
	case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
		return fmt.Sprintf("refused_%d", code), refused
	case code != http.StatusOK:
		return fmt.Sprintf("status_%d", code), wrong
	case resp == nil:
		return "undecodable", wrong
	case !resp.Converged:
		return "not_converged", wrong
	case !(resp.RelResidual <= tol):
		return "rel_residual_above_tol", wrong
	case wantX && !(relResidual(a, resp.X, b) <= trueResFactor*tol):
		return "true_residual_above_10tol", wrong
	}
	return "", pass
}

// checkSolve judges one direct solve. cleanIters < 0 marks the solve as
// the clean twin itself; otherwise the solve ran under DUEs and must not
// take more than slack iterations beyond its clean twin — exact forward
// recovery rebuilds lost data, so the iterates should not change. A solve
// whose own counters report that it fell back from exact recovery (see
// fellBack) made no such claim, and only its answer is checked.
func checkSolve(a *sparse.CSR, tol float64, r core.Result, x, b []float64, cleanIters, slack int) (string, verdict) {
	switch {
	case !r.Converged:
		return "not_converged", wrong
	case !(relResidual(a, x, b) <= trueResFactor*tol):
		return "true_residual_above_10tol", wrong
	case cleanIters >= 0 && !fellBack(r.Stats) && r.Iterations > cleanIters+slack:
		return "iterations_over_clean_twin", deviant
	}
	return "", pass
}

// fellBack reports whether a solve left exact recovery for its fallback:
// pages abandoned or a restart from the iterate, as when one DUE takes
// both x and g of a page, which neither relation can rebuild alone.
func fellBack(st core.Stats) bool {
	return st.Unrecovered > 0 || st.Restarts > 0 || st.LossyInterpolations > 0 || st.Rollbacks > 0
}

// selfTest shows the checker counting wrong answers as failures: it
// builds a small system with a known solution, confirms the exact answer
// passes, then corrupts it in each way the checker must catch.
func selfTest() error {
	a := massMatrix(5, 1)
	x := make([]float64, a.N)
	for i := range x {
		x[i] = 1 + float64(i%7)
	}
	b := make([]float64, a.N)
	for i := 0; i < a.N; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			b[i] += a.Vals[p] * x[a.Cols[p]]
		}
	}
	const tol = 1e-8
	bad := append([]float64(nil), x...)
	bad[a.N/2] *= 1 + 1e-4

	ok := &serve.Response{Converged: true, RelResidual: tol / 2, X: x}
	corrupt := &serve.Response{Converged: true, RelResidual: tol / 2, X: bad}
	unconverged := &serve.Response{Converged: false, RelResidual: tol / 2}
	loose := &serve.Response{Converged: true, RelResidual: 2 * tol}
	solved := func(iters int) core.Result { return core.Result{Converged: true, Iterations: iters} }
	restarted := solved(13)
	restarted.Stats.Restarts = 1

	steps := []struct {
		name  string
		check func() (string, verdict)
		want  verdict
	}{
		{"exact serve answer", func() (string, verdict) { return checkServe(a, tol, 200, ok, b, true) }, pass},
		{"corrupted serve solution", func() (string, verdict) { return checkServe(a, tol, 200, corrupt, b, true) }, wrong},
		{"serve not converged", func() (string, verdict) { return checkServe(a, tol, 200, unconverged, b, false) }, wrong},
		{"serve residual above tol", func() (string, verdict) { return checkServe(a, tol, 200, loose, b, false) }, wrong},
		{"serve status 500", func() (string, verdict) { return checkServe(a, tol, 500, nil, b, false) }, wrong},
		{"serve refused", func() (string, verdict) { return checkServe(a, tol, 429, nil, b, false) }, refused},
		{"exact solve", func() (string, verdict) { return checkSolve(a, tol, solved(10), x, b, 10, 2) }, pass},
		{"corrupted solve solution", func() (string, verdict) { return checkSolve(a, tol, solved(10), bad, b, -1, 0) }, wrong},
		{"solve not converged", func() (string, verdict) { return checkSolve(a, tol, core.Result{Iterations: 10}, x, b, -1, 0) }, wrong},
		{"iterations beyond slack", func() (string, verdict) { return checkSolve(a, tol, solved(13), x, b, 10, 2) }, deviant},
		{"restart beyond slack", func() (string, verdict) { return checkSolve(a, tol, restarted, x, b, 10, 2) }, pass},
		{"corrupted restarted solution", func() (string, verdict) { return checkSolve(a, tol, restarted, bad, b, 10, 2) }, wrong},
	}
	var t tally
	for _, s := range steps {
		reason, got := s.check()
		if got != s.want {
			return fmt.Errorf("checker self-test %q: verdict %d (%q), want %d", s.name, got, reason, s.want)
		}
		t.record(reason, got)
	}
	if t.Failed != len(steps)-3 || t.Wrong != 7 {
		return fmt.Errorf("checker self-test: counted %s", t.String())
	}
	return nil
}
