package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/sparse"
)

// TestBenchmarkJSONMatchesDefinitions keeps ../BENCHMARK.json and the
// metric and workload tables of this program in step.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if w := want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, m, w)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestCheckerCountsWrongAnswers is the checker's self-test: a corrupted
// solution, an unconverged solve and a solve over the iteration slack
// are all counted as failures.
func TestCheckerCountsWrongAnswers(t *testing.T) {
	if err := selfTest(); err != nil {
		t.Fatal(err)
	}
}

// TestInputsAreSeeded: the same seed gives the same inputs, another seed
// other inputs, and the generated matrices are symmetric.
func TestInputsAreSeeded(t *testing.T) {
	a1, a2, b := femMatrix(30, 20, 7), femMatrix(30, 20, 7), femMatrix(30, 20, 8)
	same, differ := true, false
	for k := range a1.Vals {
		same = same && a1.Vals[k] == a2.Vals[k]
		differ = differ || a1.Vals[k] != b.Vals[k]
	}
	if !same || !differ {
		t.Fatalf("femMatrix: same seed equal %v, other seed differs %v", same, differ)
	}
	for name, a := range map[string]*sparse.CSR{"fem": femMatrix(12, 9, 3), "mass": massMatrix(5, 3)} {
		for i := 0; i < a.N; i++ {
			for j := 0; j < a.N; j++ {
				if a.At(i, j) != a.At(j, i) {
					t.Fatalf("%s: A[%d,%d] != A[%d,%d]", name, i, j, j, i)
				}
			}
		}
	}
	if x, y := rhsVector(50, 1, 3), rhsVector(50, 1, 3); x[7] != y[7] {
		t.Fatal("rhsVector is not deterministic")
	}
	if len(arrivals(100, 1e9, 5)) == 0 {
		t.Fatal("no arrivals in one second at 100/s")
	}
}
