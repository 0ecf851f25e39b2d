package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// oracleCholesky is the dense n×n Cholesky that NewCholesky replaced: the
// reference the envelope factor must reproduce bit for bit. It returns the
// row-major factor L (strict upper triangle zeroed) with A = L*Lᵀ.
func oracleCholesky(a *Dense) ([]float64, error) {
	n := a.Rows
	l := make([]float64, n*n)
	copy(l, a.Data)
	for j := 0; j < n; j++ {
		d := l[j*n+j]
		for k := 0; k < j; k++ {
			d -= l[j*n+k] * l[j*n+k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrSingular
		}
		d = math.Sqrt(d)
		l[j*n+j] = d
		for i := j + 1; i < n; i++ {
			s := l[i*n+j]
			for k := 0; k < j; k++ {
				s -= l[i*n+k] * l[j*n+k]
			}
			l[i*n+j] = s / d
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l[i*n+j] = 0
		}
	}
	return l, nil
}

// oracleSolve solves L*Lᵀ*x = b in place with the dense factor l.
func oracleSolve(l []float64, n int, b []float64) {
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l[i*n+k] * b[k]
		}
		b[i] = s / l[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*n+i] * b[k]
		}
		b[i] = s / l[i*n+i]
	}
}

// sameBits reports whether a and b have the same bits, counting +0 and -0
// as equal: skipping an exact-zero term may flip the sign of a zero sum.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

// checkCholeskyMatchesOracle factorizes a with NewCholesky and with the
// dense oracle and fails unless both reject it with ErrSingular, or both
// accept it and every factor entry (the envelope expanded to n×n, both
// column copies) and the solve of b agree bit for bit.
func checkCholeskyMatchesOracle(t testing.TB, a *Dense, b []float64) {
	t.Helper()
	n := a.Rows
	want, werr := oracleCholesky(a)
	c, err := NewCholesky(a)
	if (werr == nil) != (err == nil) {
		t.Fatalf("n=%d: envelope err=%v, dense err=%v", n, err, werr)
	}
	if err != nil {
		if !errors.Is(err, ErrSingular) {
			t.Fatalf("n=%d: envelope err=%v, want ErrSingular", n, err)
		}
		return
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if got := c.at(i, j); !sameBits(got, want[i*n+j]) {
				t.Fatalf("n=%d: L[%d][%d] = %v (%#x), dense %v (%#x)", n, i, j, got, math.Float64bits(got), want[i*n+j], math.Float64bits(want[i*n+j]))
			}
			if j < i {
				if got := c.colAtEntry(i, j); !sameBits(got, want[i*n+j]) {
					t.Fatalf("n=%d: column copy L[%d][%d] = %v, dense %v", n, i, j, got, want[i*n+j])
				}
			}
		}
	}
	x := append([]float64(nil), b...)
	c.Solve(x)
	oracleSolve(want, n, b)
	for i := range x {
		if !sameBits(x[i], b[i]) {
			t.Fatalf("n=%d: x[%d] = %v (%#x), dense %v (%#x)", n, i, x[i], math.Float64bits(x[i]), b[i], math.Float64bits(b[i]))
		}
	}
}

// at returns L[i][j] from the row envelopes (0 outside them).
func (c *Cholesky) at(i, j int) float64 {
	if j < c.first[i] || j > i {
		return 0
	}
	return c.rows[c.rowAt[i]+j-c.first[i]]
}

// colAtEntry returns L[i][j], i > j, from the column copy (0 outside it).
func (c *Cholesky) colAtEntry(i, j int) float64 {
	k := c.colAt[j] + i - j - 1
	if k >= c.colAt[j+1] {
		return 0
	}
	return c.cols[k]
}

// profileSPD builds an n×n symmetric block whose lower triangle has the
// given envelope shape: banded (every row reaches back band columns),
// profile (each row reaches back a random 0..band columns, with random
// zeros inside the envelope) or scattered (random isolated entries). The
// diagonal is the absolute row sum scaled by dom plus shift, so dom < 1 or
// a negative shift makes indefinite blocks that must fail.
func profileSPD(rng *rand.Rand, n, band int, shape uint8, dom, shift float64) *Dense {
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		lo := max(0, i-band)
		if shape%3 == 1 && band > 0 {
			lo = max(0, i-rng.Intn(band+1))
		}
		for j := lo; j < i; j++ {
			if shape%3 != 0 && rng.Intn(3) == 0 {
				continue
			}
			if shape%3 == 2 && rng.Intn(2) == 0 {
				continue
			}
			v := rng.Float64()*2 - 1
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += math.Abs(a.At(i, j))
		}
		a.Set(i, i, dom*s+shift)
	}
	return a
}

// FuzzCholeskyEnvelope checks the envelope factor against the dense
// oracle on random banded and profile blocks, SPD or not: the same bits
// when both factorize, and ErrSingular in the same cases (so FactorizeBlock
// falls back to LU exactly when the dense factor would have).
func FuzzCholeskyEnvelope(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, n, band, shape uint8, dom, shift float64) {
		if math.IsNaN(dom) || math.IsInf(dom, 0) || math.IsNaN(shift) || math.IsInf(shift, 0) {
			t.Skip("non-finite diagonal")
		}
		dom = math.Mod(dom, 4)
		shift = math.Mod(shift, 1e3)
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + int(n)%96
		a := profileSPD(rng, dim, int(band)%dim, shape, dom, shift)
		b := make([]float64, dim)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		checkCholeskyMatchesOracle(t, a, b)
	})
}
