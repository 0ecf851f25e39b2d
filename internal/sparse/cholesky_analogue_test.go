package sparse_test

import (
	"math/rand"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// analogueBlock returns the second diagonal block of size bs of a
// 4096-row paper analogue: qa8fm (27-point, half-bandwidth 273) or
// parabolic_fem (5-point, half-bandwidth 64). The second block is
// interior, so its envelope is the operator's full band.
func analogueBlock(t testing.TB, name string, bs int) *sparse.Dense {
	t.Helper()
	a, err := matgen.PaperMatrix(name, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return a.DiagBlock(bs, 2*bs)
}

// TestCholeskyMatchesDenseOracle pins the envelope factor to the dense
// factor it replaced, bit for bit, on the blocks the paper's block-Jacobi
// preconditioner and recovery solvers factorize.
func TestCholeskyMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	one := sparse.NewDense(1, 1)
	one.Set(0, 0, 0.75)
	for _, tc := range []struct {
		name string
		a    func() *sparse.Dense
	}{
		{"qa8fm/512", func() *sparse.Dense { return analogueBlock(t, "qa8fm", 512) }},
		{"qa8fm/1024", func() *sparse.Dense { return analogueBlock(t, "qa8fm", 1024) }},
		{"parabolic_fem/512", func() *sparse.Dense { return analogueBlock(t, "parabolic_fem", 512) }},
		{"dense random/96", func() *sparse.Dense { return sparse.RandomSPDDense(96, rng) }},
		{"1x1", func() *sparse.Dense { return one }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.a()
			b := make([]float64, a.Rows)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			sparse.CheckCholeskyMatchesOracle(t, a, b)
		})
	}
}

var benchBlocks = []struct {
	name   string
	matrix string
	bs     int
}{
	{"qa8fm/512", "qa8fm", 512},
	{"qa8fm/1024", "qa8fm", 1024},
	{"parabolic_fem/512", "parabolic_fem", 512},
}

var sinkChol *sparse.Cholesky

func BenchmarkCholeskyFactor(b *testing.B) {
	for _, bb := range benchBlocks {
		b.Run(bb.name, func(b *testing.B) {
			a := analogueBlock(b, bb.matrix, bb.bs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := sparse.NewCholesky(a)
				if err != nil {
					b.Fatal(err)
				}
				sinkChol = c
			}
		})
	}
}

func BenchmarkCholeskySolve(b *testing.B) {
	for _, bb := range benchBlocks {
		b.Run(bb.name, func(b *testing.B) {
			a := analogueBlock(b, bb.matrix, bb.bs)
			c, err := sparse.NewCholesky(a)
			if err != nil {
				b.Fatal(err)
			}
			rhs := matgen.RandomVector(bb.bs, 1)
			x := make([]float64, bb.bs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Fresh RHS each time: re-solving in place would shrink x
				// into subnormals.
				copy(x, rhs)
				c.Solve(x)
			}
		})
	}
}
