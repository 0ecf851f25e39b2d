package registry

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

func testCtxCfg() Config {
	return Config{
		Config: core.Config{
			Method:      core.MethodIdeal,
			PageDoubles: 64,
			Tol:         1e-10,
			UsePrecond:  true,
		},
	}
}

// TestCheckoutWarmZeroRebuilds pins the acceptance claim of the serving
// layer: after warmup, repeated solves against a cached operator perform
// zero diagonal-block factorizations and zero task-graph preparations —
// a warm checkout rebinds the RHS and replays prepared graphs, nothing
// else.
func TestCheckoutWarmZeroRebuilds(t *testing.T) {
	a, b := testSystem(t)
	octx := NewOperatorContext("m", a, 64)

	// Warmup: first checkout pays factorization + graph preparation.
	co, err := octx.Checkout("cg", b, testCtxCfg())
	if err != nil {
		t.Fatal(err)
	}
	if co.Warm {
		t.Fatal("first checkout claims to be warm")
	}
	if res, err := co.Instance.Run(); err != nil || !res.Converged {
		t.Fatalf("warmup solve: converged=%v err=%v", res.Converged, err)
	}
	co.Release()

	fac0, prep0 := sparse.FactorizationCount(), engine.GraphPrepCount()
	for i := 0; i < 3; i++ {
		co, err := octx.Checkout("cg", b, testCtxCfg())
		if err != nil {
			t.Fatal(err)
		}
		if !co.Warm {
			t.Fatalf("checkout %d after warmup is not warm", i)
		}
		res, err := co.Instance.Run()
		if err != nil || !res.Converged {
			t.Fatalf("warm solve %d: converged=%v err=%v", i, res.Converged, err)
		}
		co.Release()
	}
	if d := sparse.FactorizationCount() - fac0; d != 0 {
		t.Fatalf("warm solves performed %d factorizations, want 0", d)
	}
	if d := engine.GraphPrepCount() - prep0; d != 0 {
		t.Fatalf("warm solves performed %d graph preparations, want 0", d)
	}
}

// TestConcurrentCheckoutsDistinctRHS runs two goroutines solving
// different right-hand sides against one shared operator context — the
// serving layer's steady state. Run under -race this doubles as the
// data-race gate for the shared block caches and the process-wide pool.
func TestConcurrentCheckoutsDistinctRHS(t *testing.T) {
	a, _ := testSystem(t)
	octx := NewOperatorContext("m", a, 64)

	rhs := func(scale float64) []float64 {
		b := make([]float64, a.N)
		for i := range b {
			b[i] = scale * float64(1+i%7)
		}
		return b
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b := rhs(float64(g + 1))
			for i := 0; i < 3; i++ {
				co, err := octx.Checkout("cg", b, testCtxCfg())
				if err != nil {
					errs <- err
					return
				}
				res, err := co.Instance.Run()
				if err != nil {
					errs <- err
					return
				}
				if !res.Converged {
					t.Errorf("goroutine %d solve %d not converged: %+v", g, i, res)
				}
				co.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSharedBlocksBitwiseIdentical checks that the prefactorized block
// cache a context hands to solvers is bitwise-identical to one built
// fresh: solving the same per-block RHS through both must give the
// exact same floats, because both factorize the same diagonal blocks
// with the same sequential algorithm. Any divergence means the cached
// path factorized something else.
func TestSharedBlocksBitwiseIdentical(t *testing.T) {
	a, _ := testSystem(t)
	octx := NewOperatorContext("m", a, 64)
	shared := octx.Blocks(true)

	fresh := sparse.NewBlockSolverCache(a, sparse.BlockLayout{N: a.N, BlockSize: 64}, true)
	fresh.PrefactorizeLenient()

	for blk := 0; blk < shared.Layout.NumBlocks(); blk++ {
		lo, hi := shared.Layout.Range(blk)
		x1 := make([]float64, hi-lo)
		x2 := make([]float64, hi-lo)
		for i := range x1 {
			x1[i] = float64(1+i) / 3
			x2[i] = x1[i]
		}
		err1 := shared.SolveDiagBlock(blk, x1)
		err2 := fresh.SolveDiagBlock(blk, x2)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("block %d: cached err=%v fresh err=%v", blk, err1, err2)
		}
		for i := range x1 {
			if x1[i] != x2[i] {
				t.Fatalf("block %d element %d: cached %v != fresh %v (not bitwise identical)", blk, i, x1[i], x2[i])
			}
		}
	}
}

// TestContextCacheEviction pins the LRU-under-cap behaviour of the
// matrix-handle store: inserting past the cap evicts the least recently
// used context while the newest insert always survives, and the hit /
// miss counters track lookups.
func TestContextCacheEviction(t *testing.T) {
	a, _ := testSystem(t)
	one := NewOperatorContext("probe", a, 64).SizeBytes()
	cc := NewContextCache(one + one/2) // room for one context, not two

	cc.Put("a", a, 64)
	if _, ok := cc.Get("a"); !ok {
		t.Fatal("a missing right after Put")
	}
	cc.Put("b", a, 64)
	if _, ok := cc.Get("b"); !ok {
		t.Fatal("newest insert b was evicted")
	}
	if _, ok := cc.Get("a"); ok {
		t.Fatal("a survived past the cap (no eviction)")
	}
	if n := cc.Len(); n != 1 {
		t.Fatalf("cache holds %d contexts, want 1", n)
	}
	hits, misses := cc.Counters()
	if hits != 2 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", hits, misses)
	}

	// Recency matters: touch the older entry, insert a third; the
	// untouched one goes.
	cc2 := NewContextCache(2*one + one/2) // room for two
	cc2.Put("a", a, 64)
	cc2.Put("b", a, 64)
	if _, ok := cc2.Get("a"); !ok {
		t.Fatal("a evicted while under cap")
	}
	cc2.Put("c", a, 64) // over cap: evict LRU = b (a was just touched)
	if _, ok := cc2.Get("b"); ok {
		t.Fatal("b survived eviction despite being LRU")
	}
	if _, ok := cc2.Get("a"); !ok {
		t.Fatal("recently used a was evicted instead of LRU b")
	}
}

// TestSizeBytesChargesHeldFactors pins the cache charge to the bytes the
// block solvers hold. A 2×2 matrix is charged a few hundred bytes for its
// Cholesky factor, not a page-sized dense factor; dense LU still counts
// n²; and the envelope factors of qa8fm at page 1024 are charged well
// under the 32 MB their dense form would take.
func TestSizeBytesChargesHeldFactors(t *testing.T) {
	tiny := sparse.NewCSRFromTriplets(2, 2, []sparse.Triplet{
		{Row: 0, Col: 0, Val: 4}, {Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 3},
	})
	octx := NewOperatorContext("tiny", tiny, 0)
	csr := octx.SizeBytes()
	octx.Blocks(true)
	chol := octx.SizeBytes() - csr
	if chol <= 0 || chol > 256 {
		t.Fatalf("2x2 Cholesky charged %d bytes, want a few hundred at most", chol)
	}
	octx.Blocks(false)
	if lu := octx.SizeBytes() - csr - chol; lu != (2*2+2)*8 {
		t.Fatalf("2x2 LU charged %d bytes, want n²+n words = %d", lu, (2*2+2)*8)
	}

	q := NewOperatorContext("qa8fm", matgen.QA8FMAnalogue(4096), 1024)
	csr = q.SizeBytes()
	q.Blocks(true)
	factors := q.SizeBytes() - csr
	const dense = 4 * 1024 * 1024 * 8
	if factors <= 0 || factors > dense/2 {
		t.Fatalf("qa8fm page-1024 factors charged %d bytes, want (0, %d]: half the dense %d", factors, dense/2, dense)
	}
}

// TestCheckoutRejectsMismatchedPageSize: the page layout belongs to the
// context; a request asking for a different granularity must be refused
// loudly, not silently re-blocked.
func TestCheckoutRejectsMismatchedPageSize(t *testing.T) {
	a, b := testSystem(t)
	octx := NewOperatorContext("m", a, 64)
	cfg := testCtxCfg()
	cfg.PageDoubles = 128
	if _, err := octx.Checkout("cg", b, cfg); err == nil {
		t.Fatal("checkout with mismatched page size succeeded")
	}
}
