package sparse

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// ErrSingular is returned when a factorization meets an (effectively)
// singular pivot and the direct solve cannot proceed.
var ErrSingular = errors.New("sparse: matrix is singular to working precision")

// Dense is a row-major dense matrix. It carries page-sized diagonal
// blocks extracted from the sparse operator to their factorizations
// (Cholesky keeps only the block's envelope; LU and QR stay dense), and
// holds the small Hessenberg and Gram systems of GMRES and CA-CG.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewDense allocates a zeroed rows×cols dense matrix.
func NewDense(rows, cols int) *Dense {
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (d *Dense) At(i, j int) float64 { return d.Data[i*d.Cols+j] }

// Set assigns element (i, j).
func (d *Dense) Set(i, j int, v float64) { d.Data[i*d.Cols+j] = v }

// Add accumulates v into element (i, j).
func (d *Dense) Add(i, j int, v float64) { d.Data[i*d.Cols+j] += v }

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	c := NewDense(d.Rows, d.Cols)
	copy(c.Data, d.Data)
	return c
}

// MulVec computes y = D*x for the dense matrix.
func (d *Dense) MulVec(x, y []float64) {
	if len(x) != d.Cols || len(y) != d.Rows {
		panic(fmt.Sprintf("sparse: Dense.MulVec dims x=%d y=%d for %dx%d", len(x), len(y), d.Rows, d.Cols))
	}
	for i := 0; i < d.Rows; i++ {
		row := d.Data[i*d.Cols : (i+1)*d.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
}

// ----------------------------------------------------------------------
// Cholesky factorization: for SPD diagonal blocks (the paper's common case,
// §2.3 — "if we know that a diagonal block is non-singular, e.g. when A is
// SPD, we solve the inverse block relations with a direct solver").
// ----------------------------------------------------------------------

// Cholesky holds the lower-triangular factor L with A = L*Lᵀ in envelope
// (skyline) form. Row i of L is stored from first[i], the column of the
// first nonzero in row i of A's lower triangle, up to the diagonal:
// Cholesky creates no fill to the left of that column. A column-envelope
// copy of the strict lower triangle (column j from row j+1 down to the
// last row whose envelope reaches j, holes stored as zeros) lets the
// back substitution read contiguous memory instead of striding by n.
//
// Factor and solve run the dense algorithm's loops in the dense order
// (every sum over k ascending) and skip only terms whose L entry lies
// outside the envelope. Those terms are exact zeros and form a prefix
// (factor, forward substitution) or a suffix (back substitution) of each
// sum, so while the arithmetic stays finite every stored factor entry and
// every Solve result is bit-identical to a dense n×n factor's, up to the
// sign of zeros. The factor and the forward substitution interleave the
// sums of four independent rows, which hides the latency of each sum's
// dependent subtractions without reordering any of them.
type Cholesky struct {
	n     int
	first []int     // first[i]: first column of row i's envelope
	rowAt []int     // row i is rows[rowAt[i]:rowAt[i+1]], columns first[i]..i
	rows  []float64 // row envelopes of L, diagonal last in each
	colAt []int     // column j is cols[colAt[j]:colAt[j+1]], rows j+1..
	cols  []float64 // strict column envelopes of L
}

// NewCholesky factorizes the SPD matrix a, reading its lower triangle. It
// returns ErrSingular when a pivot is non-positive (a is not positive
// definite to working precision).
func NewCholesky(a *Dense) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: Cholesky of non-square %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	c := &Cholesky{n: n, first: make([]int, n), rowAt: make([]int, n+1), colAt: make([]int, n+1)}
	// last[j] is the last row whose envelope reaches column j.
	last := make([]int, n)
	for i := 0; i < n; i++ {
		row := a.Data[i*n : i*n+i]
		f := i
		for j, v := range row {
			if v != 0 {
				f = j
				break
			}
		}
		c.first[i] = f
		c.rowAt[i+1] = c.rowAt[i] + i - f + 1
		last[i] = i
		for j := f; j < i; j++ {
			last[j] = i
		}
	}
	c.rows = make([]float64, c.rowAt[n])
	for i := 0; i < n; i++ {
		copy(c.row(i), a.Data[i*n+c.first[i]:])
	}
	var grp [4]int
	for j := 0; j < n; j++ {
		fj := c.first[j]
		rj := c.row(j)
		d := subDot(rj[j-fj], rj[:j-fj], rj)
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrSingular
		}
		d = math.Sqrt(d)
		rj[j-fj] = d
		g := 0
		for i := j + 1; i <= last[j]; i++ {
			if c.first[i] > j {
				continue
			}
			grp[g] = i
			if g++; g == len(grp) {
				c.eliminate4(grp, j, rj, d)
				g = 0
			}
		}
		for _, i := range grp[:g] {
			fi := c.first[i]
			ri := c.row(i)
			lo := max(fi, fj)
			ri[j-fi] = subDot(ri[j-fi], ri[lo-fi:j-fi], rj[lo-fj:]) / d
		}
	}
	for j := 0; j < n; j++ {
		c.colAt[j+1] = c.colAt[j] + last[j] - j
	}
	c.cols = make([]float64, c.colAt[n])
	for i := 0; i < n; i++ {
		fi := c.first[i]
		for k, v := range c.row(i)[:i-fi] {
			j := fi + k
			c.cols[c.colAt[j]+i-j-1] = v
		}
	}
	return c, nil
}

// N returns the block dimension.
func (c *Cholesky) N() int { return c.n }

// Solve solves A*x = b in place: b is overwritten with x.
func (c *Cholesky) Solve(b []float64) {
	n := c.n
	if len(b) != n {
		panic(fmt.Sprintf("sparse: Cholesky.Solve dim %d want %d", len(b), n))
	}
	// Forward substitution L*y = b, four rows at a time where all four
	// envelopes start at or before the group's first row (see forward4).
	i := 0
	for ; i+4 <= n; i += 4 {
		if max(c.first[i+1], c.first[i+2], c.first[i+3]) > i {
			for r := i; r < i+4; r++ {
				c.forward1(b, r)
			}
			continue
		}
		c.forward4(b, i)
	}
	for ; i < n; i++ {
		c.forward1(b, i)
	}
	// Back substitution Lᵀ*x = y, one row at a time: each row's sum
	// starts with the x value the previous row produced, so the dense
	// order leaves no independent sums to interleave.
	for i := n - 1; i >= 0; i-- {
		b[i] = subDot(b[i], c.cols[c.colAt[i]:c.colAt[i+1]], b[i+1:]) / c.rows[c.rowAt[i+1]-1]
	}
}

// row returns row i's envelope, columns first[i]..i.
func (c *Cholesky) row(i int) []float64 { return c.rows[c.rowAt[i]:c.rowAt[i+1]] }

// subDot returns s - a[0]*b[0] - a[1]*b[1] - ..., over len(a) terms in
// that order.
func subDot(s float64, a, b []float64) float64 {
	b = b[:len(a)]
	for k, v := range a {
		s -= v * b[k]
	}
	return s
}

// eliminate4 computes L[i][j] for the four rows in is, all of whose
// envelopes reach column j, given row j and its pivot d. Each row's sum
// runs over k ascending exactly as alone: the part before the latest
// envelope start lo alone, the rest interleaved with the other three
// rows, which only hides the latency of the dependent subtractions.
func (c *Cholesky) eliminate4(is [4]int, j int, rj []float64, d float64) {
	fj := c.first[j]
	f0, f1, f2, f3 := c.first[is[0]], c.first[is[1]], c.first[is[2]], c.first[is[3]]
	r0, r1, r2, r3 := c.row(is[0]), c.row(is[1]), c.row(is[2]), c.row(is[3])
	lo := max(fj, f0, f1, f2, f3)
	head := func(r []float64, f int) float64 {
		from := max(f, fj)
		return subDot(r[j-f], r[from-f:lo-f], rj[from-fj:])
	}
	s0, s1, s2, s3 := head(r0, f0), head(r1, f1), head(r2, f2), head(r3, f3)
	lj := rj[lo-fj : j-fj]
	a0, a1, a2, a3 := r0[lo-f0:][:len(lj)], r1[lo-f1:][:len(lj)], r2[lo-f2:][:len(lj)], r3[lo-f3:][:len(lj)]
	for k, v := range lj {
		s0 -= a0[k] * v
		s1 -= a1[k] * v
		s2 -= a2[k] * v
		s3 -= a3[k] * v
	}
	r0[j-f0], r1[j-f1], r2[j-f2], r3[j-f3] = s0/d, s1/d, s2/d, s3/d
}

// forward1 solves row i of L*y = b.
func (c *Cholesky) forward1(b []float64, i int) {
	ri := c.row(i)
	b[i] = subDot(b[i], ri[:len(ri)-1], b[c.first[i]:]) / ri[len(ri)-1]
}

// forward4 solves rows i..i+3 of L*y = b, whose envelopes all start at
// or before column i. As in eliminate4, each row's sum keeps its own
// k-ascending order: alone up to the latest envelope start lo, then
// interleaved with the others up to column i, then finished in row order
// as each y value of the group becomes known.
func (c *Cholesky) forward4(b []float64, i int) {
	f0, f1, f2, f3 := c.first[i], c.first[i+1], c.first[i+2], c.first[i+3]
	r0, r1, r2, r3 := c.row(i), c.row(i+1), c.row(i+2), c.row(i+3)
	lo := max(f0, f1, f2, f3)
	s0 := subDot(b[i], r0[:lo-f0], b[f0:])
	s1 := subDot(b[i+1], r1[:lo-f1], b[f1:])
	s2 := subDot(b[i+2], r2[:lo-f2], b[f2:])
	s3 := subDot(b[i+3], r3[:lo-f3], b[f3:])
	y := b[lo:i]
	a0, a1, a2, a3 := r0[lo-f0:][:len(y)], r1[lo-f1:][:len(y)], r2[lo-f2:][:len(y)], r3[lo-f3:][:len(y)]
	for k, v := range y {
		s0 -= a0[k] * v
		s1 -= a1[k] * v
		s2 -= a2[k] * v
		s3 -= a3[k] * v
	}
	b[i] = s0 / r0[i-f0]
	s1 -= r1[i-f1] * b[i]
	b[i+1] = s1 / r1[i+1-f1]
	s2 -= r2[i-f2] * b[i]
	s2 -= r2[i+1-f2] * b[i+1]
	b[i+2] = s2 / r2[i+2-f2]
	s3 -= r3[i-f3] * b[i]
	s3 -= r3[i+1-f3] * b[i+1]
	s3 -= r3[i+2-f3] * b[i+2]
	b[i+3] = s3 / r3[i+3-f3]
}

// ----------------------------------------------------------------------
// LU with partial pivoting: for non-symmetric diagonal blocks (BiCGStab /
// GMRES operate on general matrices).
// ----------------------------------------------------------------------

// LU holds a PA = LU factorization with partial pivoting.
type LU struct {
	n    int
	lu   []float64
	piv  []int
	sign int
}

// NewLU factorizes a general square matrix with partial pivoting.
func NewLU(a *Dense) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: LU of non-square %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	lu := make([]float64, n*n)
	copy(lu, a.Data)
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for k := 0; k < n; k++ {
		// Pivot search.
		p, maxAbs := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu[i*n+k]); a > maxAbs {
				p, maxAbs = i, a
			}
		}
		if maxAbs == 0 || math.IsNaN(maxAbs) {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu[k*n+j], lu[p*n+j] = lu[p*n+j], lu[k*n+j]
			}
			piv[k], piv[p] = piv[p], piv[k]
			sign = -sign
		}
		d := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / d
			lu[i*n+k] = m
			for j := k + 1; j < n; j++ {
				lu[i*n+j] -= m * lu[k*n+j]
			}
		}
	}
	return &LU{n: n, lu: lu, piv: piv, sign: sign}, nil
}

// Solve solves A*x = b; x is returned in a new slice, b is untouched.
func (f *LU) Solve(b []float64) []float64 {
	n := f.n
	if len(b) != n {
		panic(fmt.Sprintf("sparse: LU.Solve dim %d want %d", len(b), n))
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	lu := f.lu
	for i := 0; i < n; i++ {
		s := x[i]
		for k := 0; k < i; k++ {
			s -= lu[i*n+k] * x[k]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= lu[i*n+k] * x[k]
		}
		x[i] = s / lu[i*n+i]
	}
	return x
}

// Det returns the determinant of the factorized matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.n; i++ {
		d *= f.lu[i*f.n+i]
	}
	return d
}

// ----------------------------------------------------------------------
// Householder QR: least-squares solves for (possibly) singular diagonal
// blocks, as Agullo et al. propose for recover-restart interpolation and as
// the paper adopts for non-SPD blocks (§2.3).
// ----------------------------------------------------------------------

// QR holds a Householder QR factorization of an m×n matrix with m >= n.
type QR struct {
	m, n int
	qr   []float64 // packed factors: R in upper triangle, v's below
	tau  []float64
}

// NewQR factorizes a (m >= n required).
func NewQR(a *Dense) (*QR, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, fmt.Errorf("sparse: QR needs rows >= cols, got %dx%d", m, n)
	}
	qr := make([]float64, m*n)
	copy(qr, a.Data)
	tau := make([]float64, n)
	for k := 0; k < n; k++ {
		// Householder vector for column k below the diagonal.
		var norm float64
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, qr[i*n+k])
		}
		if norm == 0 {
			tau[k] = 0
			continue
		}
		if qr[k*n+k] < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			qr[i*n+k] /= norm
		}
		qr[k*n+k] += 1
		// Apply transform to remaining columns.
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += qr[i*n+k] * qr[i*n+j]
			}
			s = -s / qr[k*n+k]
			for i := k; i < m; i++ {
				qr[i*n+j] += s * qr[i*n+k]
			}
		}
		// Layout: the Householder vector v (with v1 on the diagonal) stays
		// in column k at and below the diagonal; R's diagonal entry -norm
		// is stashed in tau[k] (the strict upper triangle already holds R).
		tau[k] = -norm
	}
	return &QR{m: m, n: n, qr: qr, tau: tau}, nil
}

// SolveLeastSquares returns argmin_x ||A x - b||₂. When a diagonal entry of
// R is (near) zero the corresponding component is set to zero (minimum-norm
// flavoured fallback) and no error is raised unless the whole system is
// degenerate.
func (q *QR) SolveLeastSquares(b []float64) ([]float64, error) {
	m, n := q.m, q.n
	if len(b) != m {
		return nil, fmt.Errorf("sparse: QR.Solve dim %d want %d", len(b), m)
	}
	y := append([]float64(nil), b...)
	// Apply Qᵀ to b. For each Householder reflector k with v stored in
	// column k (v1 on the diagonal):
	for k := 0; k < n; k++ {
		v1 := q.qr[k*n+k]
		if v1 == 0 {
			continue
		}
		var s float64
		s += v1 * y[k]
		for i := k + 1; i < m; i++ {
			s += q.qr[i*n+k] * y[i]
		}
		s = -s / v1
		y[k] += s * v1
		for i := k + 1; i < m; i++ {
			y[i] += s * q.qr[i*n+k]
		}
	}
	// Back-substitute R x = y[:n]. R's strict upper part lives above the
	// diagonal of qr; the diagonal is in tau.
	x := make([]float64, n)
	allZero := true
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= q.qr[i*n+j] * x[j]
		}
		d := q.tau[i]
		if math.Abs(d) < 1e-300 {
			x[i] = 0
			continue
		}
		allZero = false
		x[i] = s / d
	}
	if allZero && n > 0 {
		return nil, ErrSingular
	}
	return x, nil
}

// BlockSolver abstracts a factorized diagonal block used by recoveries:
// Cholesky for SPD blocks, LU otherwise, QR least-squares as the fallback.
type BlockSolver interface {
	// SolveInPlace solves Block*x = rhs, overwriting rhs with x.
	SolveInPlace(rhs []float64) error
	// Bytes returns the memory the factorization holds.
	Bytes() int64
}

type cholSolver struct{ c *Cholesky }

func (s cholSolver) SolveInPlace(rhs []float64) error { s.c.Solve(rhs); return nil }

func (s cholSolver) Bytes() int64 {
	c := s.c
	return int64(len(c.rows)+len(c.cols)+len(c.first)+len(c.rowAt)+len(c.colAt)) * 8
}

type luSolver struct{ f *LU }

func (s luSolver) Bytes() int64 { return int64(len(s.f.lu)+len(s.f.piv)) * 8 }

func (s luSolver) SolveInPlace(rhs []float64) error {
	x := s.f.Solve(rhs)
	copy(rhs, x)
	return nil
}

type qrSolver struct{ q *QR }

func (s qrSolver) Bytes() int64 { return int64(len(s.q.qr)+len(s.q.tau)) * 8 }

func (s qrSolver) SolveInPlace(rhs []float64) error {
	x, err := s.q.SolveLeastSquares(rhs)
	if err != nil {
		return err
	}
	copy(rhs, x)
	return nil
}

// factorizations counts every diagonal-block factorization performed by
// the process — the setup cost the operator-context cache exists to
// amortise. Tests pin "zero factorizations after warmup" against it.
var factorizations atomic.Int64

// FactorizationCount returns the number of diagonal-block factorizations
// performed by this process so far.
func FactorizationCount() int64 { return factorizations.Load() }

// FactorizeBlock builds a BlockSolver for a dense diagonal block, trying
// Cholesky when spd is claimed, then LU, then QR least squares, mirroring
// the paper's §2.3 strategy.
func FactorizeBlock(block *Dense, spd bool) (BlockSolver, error) {
	factorizations.Add(1)
	if spd {
		if c, err := NewCholesky(block); err == nil {
			return cholSolver{c}, nil
		}
	}
	if f, err := NewLU(block); err == nil {
		return luSolver{f}, nil
	}
	q, err := NewQR(block)
	if err != nil {
		return nil, err
	}
	return qrSolver{q}, nil
}
