package main

import (
	"math/rand/v2"
	"time"

	"repro/internal/sparse"
)

// Every input of a run derives from the one --seed argument: each use
// (matrix coefficients, one right-hand side, the arrival schedule, one DUE
// plan) takes its own stream, keyed by a fixed tag, so changing how many
// of one kind a run draws never shifts another kind.
const (
	tagMatrix   = 1
	tagArrivals = 2
	tagRHS      = 1 << 20
	tagPlan     = 2 << 20
)

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subSeed derives the seed of one input stream.
func subSeed(seed int64, tag uint64) int64 {
	return int64(mix(uint64(seed)^mix(tag)) >> 1)
}

// unit maps (seed, key) to [0, 1) without any state, so coefficients can
// be computed in any order and the two halves of a symmetric pair agree.
func unit(seed int64, key uint64) float64 {
	return float64(mix(uint64(seed)^mix(key))>>11) / (1 << 53)
}

// femMatrix is the parabolic_fem analogue: a 5-point stencil for
// -div(k grad u) + 0.3 u on an nx×ny grid, with the conductivity of each
// cell drawn from the seed within 2% of the field 0.5 + x (small enough
// that every seed needs the same work). Edge weights are
// harmonic means, so the matrix is symmetric and, with the shift, strictly
// diagonally dominant (SPD). Rows are cells in i*ny+j order.
func femMatrix(nx, ny int, seed int64) *sparse.CSR {
	s := subSeed(seed, tagMatrix)
	n := nx * ny
	k := make([]float64, n)
	for i := 0; i < nx; i++ {
		x := float64(i+1) / float64(nx+1)
		for j := 0; j < ny; j++ {
			c := i*ny + j
			k[c] = (0.5 + x) * (0.98 + 0.04*unit(s, uint64(c)))
		}
	}
	edge := func(a, b int) float64 { return 2 * k[a] * k[b] / (k[a] + k[b]) }
	a := &sparse.CSR{N: n, M: n, RowPtr: make([]int, n+1)}
	a.Cols = make([]int, 0, 5*n)
	a.Vals = make([]float64, 0, 5*n)
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			r := i*ny + j
			// A boundary face couples to the fixed exterior with the cell's
			// own conductivity: it adds to the diagonal only.
			var w [4]float64 // up, left, right, down
			nb := [4]int{r - ny, r - 1, r + 1, r + ny}
			in := [4]bool{i > 0, j > 0, j < ny-1, i < nx-1}
			diag := 0.3
			for d := range nb {
				if in[d] {
					w[d] = edge(r, nb[d])
				} else {
					w[d] = k[r]
				}
				diag += w[d]
			}
			for d := 0; d < 2; d++ {
				if in[d] {
					a.Cols = append(a.Cols, nb[d])
					a.Vals = append(a.Vals, -w[d])
				}
			}
			a.Cols = append(a.Cols, r)
			a.Vals = append(a.Vals, diag)
			for d := 2; d < 4; d++ {
				if in[d] {
					a.Cols = append(a.Cols, nb[d])
					a.Vals = append(a.Vals, -w[d])
				}
			}
			a.RowPtr[r+1] = len(a.Cols)
		}
	}
	return a
}

// massMatrix is the qa8fm analogue: 27-point couplings on a c×c×c grid
// with a heavy diagonal (an acoustic mass matrix, κ = O(10)). Each
// coupling weight is drawn from the seed in [1, 1.04) per unordered pair,
// so the matrix is symmetric; the diagonal is the row's weight sum plus 40.
func massMatrix(c int, seed int64) *sparse.CSR {
	s := subSeed(seed, tagMatrix)
	n := c * c * c
	weight := func(r, q int) float64 {
		lo, hi := uint64(min(r, q)), uint64(max(r, q))
		return 1 + 0.04*unit(s, lo*uint64(n)+hi)
	}
	a := &sparse.CSR{N: n, M: n, RowPtr: make([]int, n+1)}
	a.Cols = make([]int, 0, 27*n)
	a.Vals = make([]float64, 0, 27*n)
	for i := 0; i < c; i++ {
		for j := 0; j < c; j++ {
			for l := 0; l < c; l++ {
				r := (i*c+j)*c + l
				diagAt := -1
				sum := 0.0
				for di := -1; di <= 1; di++ {
					for dj := -1; dj <= 1; dj++ {
						for dl := -1; dl <= 1; dl++ {
							ii, jj, ll := i+di, j+dj, l+dl
							if ii < 0 || ii >= c || jj < 0 || jj >= c || ll < 0 || ll >= c {
								continue
							}
							q := (ii*c+jj)*c + ll
							if q == r {
								diagAt = len(a.Vals)
								a.Cols = append(a.Cols, r)
								a.Vals = append(a.Vals, 0)
								continue
							}
							w := weight(r, q)
							sum += w
							a.Cols = append(a.Cols, q)
							a.Vals = append(a.Vals, -w)
						}
					}
				}
				a.Vals[diagAt] = sum + 40
				a.RowPtr[r+1] = len(a.Cols)
			}
		}
	}
	return a
}

// fresh returns a new CSR over the same arrays as a, with its kernel
// shadows not yet built: building them (CSR.BuildIndex32) is part of the
// set-up a caller pays.
func fresh(a *sparse.CSR) *sparse.CSR {
	return &sparse.CSR{N: a.N, M: a.M, RowPtr: a.RowPtr, Cols: a.Cols, Vals: a.Vals}
}

// rhsVector is right-hand side number k of the run: standard normal
// entries.
func rhsVector(n int, seed int64, k int) []float64 {
	s := uint64(subSeed(seed, tagRHS+uint64(k)))
	rng := rand.New(rand.NewPCG(s, s^0x5851f42d4c957f2d))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

// arrivals is a Poisson arrival schedule at rate per second over the
// window, conditioned on holding exactly rate × window requests: the
// offsets from the window start at which requests are due. Fixing the
// count keeps the offered load, and so solves_per_s, the same from seed
// to seed; the gaps stay independent exponentials scaled to the window.
func arrivals(rate float64, window time.Duration, seed int64) []time.Duration {
	s := uint64(subSeed(seed, tagArrivals))
	rng := rand.New(rand.NewPCG(s, s^0x5851f42d4c957f2d))
	n := int(rate*window.Seconds() + 0.5)
	cum := make([]float64, n+1)
	t := 0.0
	for i := range cum {
		t += rng.ExpFloat64()
		cum[i] = t
	}
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(cum[i] / t * float64(window))
	}
	return out
}

// planSeed is the seed of the DUE plan of solve pair k.
func planSeed(seed int64, k int) int64 { return subSeed(seed, tagPlan+uint64(k)) }

// csrBytes is the footprint of the CSR arrays a caller hands over:
// values, column indices and row pointers at 8 bytes each.
func csrBytes(a *sparse.CSR) int64 {
	return int64(len(a.Vals))*16 + int64(a.N+1)*8
}

// spmvBytes is the computed (not measured) memory traffic of one SpMV
// with b right-hand sides: 8-byte values and 4-byte column indices per
// nonzero, plus a row pointer and b reads of x and writes of y per row.
func spmvBytes(a *sparse.CSR, b int) float64 {
	return float64(len(a.Vals))*12 + float64(a.N)*float64(8+16*b)
}
