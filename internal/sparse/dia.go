package sparse

// Diagonal (DIA) kernel shadow: stencil and banded matrices — the
// paper's whole workload family — concentrate their nonzeros on a
// handful of diagonals. Storing those diagonals as dense padded arrays
// lets the SpMV kernels stream values in long contiguous loops with NO
// index loads and NO gather indirection, which on memory-bound
// iterations is worth 30-50% of the whole SpMV. The shadow is built by
// BuildIndex32 when the matrix is square and its distinct offsets are
// few enough that the padding wastes at most half the storage
// (maxDiaOffsets / diaWasteFactor); every other matrix keeps the CSR
// kernels. Rows are processed in blocks so the y window stays
// cache-resident across the per-diagonal streams.
//
// Exactness: diagonals are processed in ascending offset order, which is
// exactly the ascending column order of the CSR rows, so the per-row
// accumulation order is identical and results match the CSR kernels
// bitwise (padded zero entries contribute +0.0 to the running sum).
// Caveat inherited from the padding: a padded slot multiplies 0 by an
// x element the CSR row never reads, so a non-finite value THERE would
// produce NaN. The solvers never feed non-finite data to an SpMV —
// faults are repaired or blanked at the phase boundary before any
// matvec — and the engine's reductions guard with HasNonFinite anyway.

const (
	maxDiaOffsets  = 32
	diaWasteFactor = 2
	diaBlock       = 1024 // rows per block: keeps the y window L1-hot
)

// buildDIA populates the diagonal shadow, or clears it when the matrix
// does not qualify.
func (a *CSR) buildDIA() {
	a.diaOffs, a.diaVals = nil, nil
	if a.N != a.M || a.N == 0 || len(a.Vals) == 0 {
		return
	}
	seen := make(map[int]struct{}, maxDiaOffsets+1)
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			o := a.Cols[k] - i
			if _, ok := seen[o]; !ok {
				seen[o] = struct{}{}
				if len(seen) > maxDiaOffsets {
					return
				}
			}
		}
	}
	if len(seen)*a.N > diaWasteFactor*len(a.Vals) {
		return
	}
	offs := make([]int, 0, len(seen))
	for o := range seen {
		offs = append(offs, o)
	}
	// Ascending offsets == ascending in-row column order: bitwise parity
	// with the CSR accumulation.
	for i := 1; i < len(offs); i++ {
		for j := i; j > 0 && offs[j] < offs[j-1]; j-- {
			offs[j], offs[j-1] = offs[j-1], offs[j]
		}
	}
	idx := make(map[int]int, len(offs))
	for d, o := range offs {
		idx[o] = d
	}
	vals := make([][]float64, len(offs))
	for d := range vals {
		vals[d] = make([]float64, a.N)
	}
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			vals[idx[a.Cols[k]-i]][i] = a.Vals[k]
		}
	}
	a.diaOffs, a.diaVals = offs, vals
}

// diaBlockMul computes y[b0:b1] = (A*x)[b0:b1] by streaming each
// diagonal across the block. y stays cache-hot, and each inner loop is
// a contiguous stream, unrolled by four: a one-element body is 33 bytes
// of code and runs about 35% slower when the linker places it across two
// 64-byte lines, which any size change earlier in the package can cause,
// while the unrolled body runs at the well-placed speed either way. Each
// y element still adds its diagonals in ascending offset order.
//
//due:hotpath
func (a *CSR) diaBlockMul(x, y []float64, b0, b1, n int) {
	yb := y[b0:b1]
	for i := range yb {
		yb[i] = 0
	}
	for d, o := range a.diaOffs {
		i0, i1 := b0, b1
		if o < 0 && -o > i0 {
			i0 = -o
		}
		if o > 0 && n-o < i1 {
			i1 = n - o
		}
		if i0 >= i1 {
			continue
		}
		vv := a.diaVals[d][i0:i1:i1]
		xx := x[i0+o : i1+o : i1+o]
		yy := y[i0:i1:i1]
		k := 0
		for ; k+4 <= len(vv); k += 4 {
			v, xs, ys := vv[k:k+4:k+4], xx[k:k+4:k+4], yy[k:k+4:k+4]
			ys[0] += v[0] * xs[0]
			ys[1] += v[1] * xs[1]
			ys[2] += v[2] * xs[2]
			ys[3] += v[3] * xs[3]
		}
		for ; k < len(vv); k++ {
			yy[k] += vv[k] * xx[k]
		}
	}
}

// mulVecRangeDIA computes y[lo:hi] = (A*x)[lo:hi] from the diagonal
// shadow.
//
//due:hotpath
func (a *CSR) mulVecRangeDIA(x, y []float64, lo, hi int) {
	n := a.N
	for b0 := lo; b0 < hi; b0 += diaBlock {
		b1 := b0 + diaBlock
		if b1 > hi {
			b1 = hi
		}
		a.diaBlockMul(x, y, b0, b1, n)
	}
}

// mulVecDotRangeDIA is the fused variant: the dot partials are taken in
// a short second pass over each block while it is still L1-hot, in the
// same ascending-row order as the CSR fused kernel.
//
//due:hotpath
func (a *CSR) mulVecDotRangeDIA(x, y []float64, lo, hi int) (xy, yy float64) {
	n := a.N
	for b0 := lo; b0 < hi; b0 += diaBlock {
		b1 := b0 + diaBlock
		if b1 > hi {
			b1 = hi
		}
		a.diaBlockMul(x, y, b0, b1, n)
		xb := x[b0:b1]
		yb := y[b0:b1:b1]
		for i, v := range xb {
			u := yb[i]
			xy += v * u
			yy += u * u
		}
	}
	return xy, yy
}

// mulVecDotVecRangeDIA fuses the <y, w> partial instead.
//
//due:hotpath
func (a *CSR) mulVecDotVecRangeDIA(x, y, w []float64, lo, hi int) (wy float64) {
	n := a.N
	for b0 := lo; b0 < hi; b0 += diaBlock {
		b1 := b0 + diaBlock
		if b1 > hi {
			b1 = hi
		}
		a.diaBlockMul(x, y, b0, b1, n)
		wb := w[b0:b1]
		yb := y[b0:b1:b1]
		for i, v := range wb {
			wy += yb[i] * v
		}
	}
	return wy
}
