package sparse

import (
	"fmt"
	"sort"
)

// BlockLayout describes the partition of an n-vector into contiguous blocks
// of a fixed size (the memory-page granularity of the fault model: 512
// float64 per 4 KiB page). The last block may be shorter.
type BlockLayout struct {
	N         int // vector length
	BlockSize int // elements per block
}

// NumBlocks returns the number of blocks covering the vector.
func (b BlockLayout) NumBlocks() int {
	if b.N == 0 {
		return 0
	}
	return (b.N + b.BlockSize - 1) / b.BlockSize
}

// Range returns the half-open element range [lo, hi) of block i.
func (b BlockLayout) Range(i int) (lo, hi int) {
	lo = i * b.BlockSize
	hi = lo + b.BlockSize
	if hi > b.N {
		hi = b.N
	}
	if lo > b.N {
		lo = b.N
	}
	return lo, hi
}

// BlockOf returns the block index containing element e.
func (b BlockLayout) BlockOf(e int) int { return e / b.BlockSize }

// BlockSolverCache lazily factorizes and caches diagonal-block solvers for
// a fixed matrix and block layout. The paper notes that with a block-Jacobi
// preconditioner whose block size coincides with the page size, these
// factorizations are already available for free (§5.1); this cache plays
// that role for the unpreconditioned solver too.
type BlockSolverCache struct {
	A      *CSR
	Layout BlockLayout
	SPD    bool
	cache  map[int]BlockSolver
}

// NewBlockSolverCache creates an empty cache for the given operator.
func NewBlockSolverCache(a *CSR, layout BlockLayout, spd bool) *BlockSolverCache {
	return &BlockSolverCache{A: a, Layout: layout, SPD: spd, cache: make(map[int]BlockSolver)}
}

// Solver returns the factorized solver for diagonal block i, computing and
// caching it on first use.
func (c *BlockSolverCache) Solver(i int) (BlockSolver, error) {
	if s, ok := c.cache[i]; ok {
		if s == nil {
			return nil, fmt.Errorf("sparse: diagonal block %d is not factorizable", i)
		}
		return s, nil
	}
	lo, hi := c.Layout.Range(i)
	if lo >= hi {
		return nil, fmt.Errorf("sparse: empty block %d", i)
	}
	s, err := FactorizeBlock(c.A.DiagBlock(lo, hi), c.SPD)
	if err != nil {
		return nil, fmt.Errorf("sparse: factorizing diagonal block %d: %w", i, err)
	}
	c.cache[i] = s
	return s, nil
}

// Prefactorize eagerly factorizes all diagonal blocks (what a block-Jacobi
// preconditioner setup would have done anyway).
func (c *BlockSolverCache) Prefactorize() error {
	for i := 0; i < c.Layout.NumBlocks(); i++ {
		if _, err := c.Solver(i); err != nil {
			return err
		}
	}
	return nil
}

// PrefactorizeLenient factorizes every diagonal block up front, caching
// successes and remembering failures, so all later Solver lookups are
// read-only (safe for concurrent recovery tasks). Unlike Prefactorize it
// never fails: a block that cannot be factorized keeps returning its
// error from SolveDiagBlock, and callers fall back to restart-style
// recovery exactly as with lazy factorization.
func (c *BlockSolverCache) PrefactorizeLenient() {
	for i := 0; i < c.Layout.NumBlocks(); i++ {
		if _, err := c.Solver(i); err != nil {
			c.cache[i] = nil // remembered failure keeps lookups read-only
		}
	}
}

// Bytes returns the memory held by the cached factorizations. It reads
// the cache, so it must not race a factorization: call it on a
// prefactorized cache, whose lookups are read-only.
func (c *BlockSolverCache) Bytes() int64 {
	var b int64
	for _, s := range c.cache {
		if s != nil {
			b += s.Bytes()
		}
	}
	return b
}

// SolveDiagBlock solves A_ii * x_i = rhs for block i in place.
func (c *BlockSolverCache) SolveDiagBlock(i int, rhs []float64) error {
	s, err := c.Solver(i)
	if err != nil {
		return err
	}
	return s.SolveInPlace(rhs)
}

// SolveCoupledBlocks solves the combined system of §2.4 for several failed
// blocks of the same vector simultaneously:
//
//	[ A_ii A_ij ] [x_i]   [rhs_i]
//	[ A_ji A_jj ] [x_j] = [rhs_j]
//
// generalized to any number of blocks. blocks must be distinct; rhs is the
// concatenation of the per-block right-hand sides in the order of blocks
// (after sorting ascending). On return rhs holds the concatenated solution,
// in sorted block order; the returned permutation maps position -> block id.
func (c *BlockSolverCache) SolveCoupledBlocks(blocks []int, rhs []float64) ([]int, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("sparse: SolveCoupledBlocks with no blocks")
	}
	sorted := append([]int(nil), blocks...)
	sort.Ints(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("sparse: duplicate block %d", sorted[i])
		}
	}
	// Total dimension and offsets.
	offs := make([]int, len(sorted)+1)
	for k, b := range sorted {
		lo, hi := c.Layout.Range(b)
		offs[k+1] = offs[k] + (hi - lo)
	}
	dim := offs[len(sorted)]
	if len(rhs) != dim {
		return nil, fmt.Errorf("sparse: coupled rhs dim %d want %d", len(rhs), dim)
	}
	// Assemble the dense coupled operator.
	m := NewDense(dim, dim)
	for ki, bi := range sorted {
		rlo, rhi := c.Layout.Range(bi)
		for kj, bj := range sorted {
			clo, chi := c.Layout.Range(bj)
			sub := c.A.Block(rlo, rhi, clo, chi)
			for r := 0; r < sub.Rows; r++ {
				for cc := 0; cc < sub.Cols; cc++ {
					v := sub.At(r, cc)
					if v != 0 {
						m.Set(offs[ki]+r, offs[kj]+cc, v)
					}
				}
			}
		}
	}
	solver, err := FactorizeBlock(m, c.SPD)
	if err != nil {
		return nil, fmt.Errorf("sparse: coupled factorization of %d blocks: %w", len(sorted), err)
	}
	if err := solver.SolveInPlace(rhs); err != nil {
		return nil, err
	}
	return sorted, nil
}
