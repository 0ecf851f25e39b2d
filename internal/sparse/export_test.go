package sparse

// Hooks for the tests in package sparse_test, which build their blocks
// from the matgen analogues (matgen imports this package).
var (
	RandomSPDDense             = randomSPDDense
	CheckCholeskyMatchesOracle = checkCholeskyMatchesOracle
)
