package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/taskrt"
)

// counters snapshots the program's process-wide counters; the traced run
// reports their change over the measured window.
type counters struct {
	factorizations, graphPreps int64
	rt                         taskrt.StateTimes
}

func readCounters() counters {
	return counters{
		factorizations: sparse.FactorizationCount(),
		graphPreps:     engine.GraphPrepCount(),
		rt:             taskrt.Shared(0).TotalTimes(),
	}
}

// deltas stores the window's counter changes and the task pool's useful
// and idle shares of its worker time.
func (c counters) deltas(since counters, f figures) {
	f["sparse.factorizations_after_warmup"] = float64(c.factorizations - since.factorizations)
	f["engine.graph_preps_after_warmup"] = float64(c.graphPreps - since.graphPreps)
	useful := c.rt.Useful - since.rt.Useful
	idle := c.rt.Idle - since.rt.Idle
	total := useful + idle + (c.rt.Runtime - since.rt.Runtime)
	if total > 0 {
		f["taskrt.useful_frac"] = float64(useful) / float64(total)
		f["taskrt.idle_frac"] = float64(idle) / float64(total)
	}
}

// timeMs runs fn at least minReps times and for at least minTotal, and
// returns the median time of one call in milliseconds.
func timeMs(minReps int, minTotal time.Duration, fn func()) float64 {
	fn() // warm caches and lazily built state
	var samples []float64
	start := time.Now()
	for len(samples) < minReps || time.Since(start) < minTotal {
		t := time.Now()
		fn()
		samples = append(samples, ms(time.Since(t)))
	}
	return median(samples)
}

// kernelLayers times the single-thread kernels on the workload's operator
// (a, with its kernel shadows built): SpMV and width-4 SpMM always, the
// diagonal-block factorization at the workload's page size, and the
// block-Jacobi apply at 1024-row blocks when withPrecond is set. Bytes
// per second are computed from spmvBytes, not measured.
func kernelLayers(a *sparse.CSR, pageDoubles int, withPrecond bool, seed int64, f figures) error {
	x := rhsVector(a.N, seed, 1<<19)
	y := make([]float64, a.N)
	spmv := timeMs(5, 300*time.Millisecond, func() { a.MulVecRange(x, y, 0, a.N) })
	f["sparse.spmv_ms"] = spmv
	f["sparse.spmv_gbs"] = spmvBytes(a, 1) / spmv / 1e6

	const width = 4
	x4 := make([]float64, width*a.N)
	for i := range x4 {
		x4[i] = x[i/width]
	}
	y4 := make([]float64, width*a.N)
	spmm := timeMs(5, 300*time.Millisecond, func() { a.MulMatRange(x4, y4, width, 0, a.N) })
	f["sparse.spmm4_gbs"] = spmvBytes(a, width) / spmm / 1e6

	if withPrecond {
		pj, err := precond.NewBlockJacobi(a, 1024)
		if err != nil {
			return fmt.Errorf("precond.NewBlockJacobi: %w", err)
		}
		apply := timeMs(5, 300*time.Millisecond, func() { pj.Apply(x, y) })
		f["precond.apply_ms"] = apply
		f["precond.apply_over_spmv"] = apply / spmv
	}

	block := a.DiagBlock(0, min(pageDoubles, a.N))
	var ferr error
	f["sparse.factor_block_ms"] = timeMs(3, 0, func() {
		if _, err := sparse.FactorizeBlock(block, true); err != nil {
			ferr = err
		}
	})
	return ferr
}

// triad is a STREAM triad a[i] = b[i] + s·c[i] over three arrays of
// elems float64 each. It returns the best of five passes in GB/s on every
// core (GOMAXPROCS goroutines) and on one, counting 24 computed bytes per
// element.
func triad(elems int) (all, one float64) {
	a := make([]float64, elems)
	b := make([]float64, elems)
	c := make([]float64, elems)
	par := func(threads int, fn func(lo, hi int)) {
		chunk := (elems + threads - 1) / threads
		var wg sync.WaitGroup
		for t := 0; t < threads; t++ {
			lo, hi := t*chunk, min((t+1)*chunk, elems)
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn(lo, hi)
			}()
		}
		wg.Wait()
	}
	threads := runtime.GOMAXPROCS(0)
	// First touch from the goroutines that will stream each chunk.
	par(threads, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i], b[i], c[i] = 0, 1, 2
		}
	})
	best := func(threads int) float64 {
		gbs := 0.0
		for pass := 0; pass < 5; pass++ {
			t := time.Now()
			par(threads, func(lo, hi int) {
				aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range aa {
					aa[i] = bb[i] + 3*cc[i]
				}
			})
			gbs = max(gbs, 24*float64(elems)/time.Since(t).Seconds()/1e9)
		}
		return gbs
	}
	return best(threads), best(1)
}

// streamLayer measures the bandwidth ceiling with arrays of at least four
// times the L3 each, then hands the memory back before the workload's own
// inputs are made. It returns a note with both sizes.
func streamLayer(f figures) string {
	l3 := l3Bytes()
	if l3 == 0 {
		l3 = 128 << 20
	}
	elems := int(4 * l3 / 8)
	all, one := triad(elems)
	f["stream.triad_gbs"] = all
	debug.FreeOSMemory()
	return fmt.Sprintf("stream triad: L3 %d MiB, 3 arrays of %d MiB each; %.2f GB/s on %d threads, %.2f GB/s on 1 (bytes computed: 24 per element)",
		l3>>20, int64(elems)*8>>20, all, runtime.GOMAXPROCS(0), one)
}
