// Command due-perf is the repository's benchmark: it generates every input
// from one seed, drives the solvers only through their public entry points
// (the serve HTTP handler and the registry), checks every answer, and
// prints the end-to-end metrics of one workload — or, with --trace 1, the
// per-layer metrics of a separate traced run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// runEnv is what one measuring process is given: its share of the window
// (parts split one run's window between fresh processes, see runParts).
type runEnv struct {
	seed   int64
	part   int
	offset time.Duration // where this part's window starts within the run's
	window time.Duration // this part's window
	total  time.Duration // the run's whole window
	traced bool
	tr     *tracer
}

// samples are one part's raw end-to-end observations. A run pools them
// across its parts before taking any statistic.
type samples struct {
	Setup   []float64 `json:"setup_s"`    // one per set-up
	Latency []float64 `json:"latency_ms"` // one per answered operation
	Solve   []float64 `json:"solve_s"`
	Clean   []float64 `json:"clean_solve_s"`
	Busy    float64   `json:"busy_s"` // time over which the answered operations ran
	RSS     []float64 `json:"peak_rss_mb"`
}

func (s *samples) merge(o samples) {
	s.Setup = append(s.Setup, o.Setup...)
	s.Latency = append(s.Latency, o.Latency...)
	s.Solve = append(s.Solve, o.Solve...)
	s.Clean = append(s.Clean, o.Clean...)
	s.Busy += o.Busy
	s.RSS = append(s.RSS, o.RSS...)
}

// pooled computes the end-to-end figures of the pooled samples.
func (s *samples) pooled(answered int) figures {
	f := figures{
		"setup_s":        median(s.Setup),
		"latency_p50_ms": quantile(s.Latency, 0.5),
		"solve_s":        median(s.Solve),
		"clean_solve_s":  median(s.Clean),
		"peak_rss_mb":    median(s.RSS),
	}
	if s.Busy > 0 {
		f["solves_per_s"] = float64(answered) / s.Busy
	}
	return f
}

// result is what one measuring process produces.
type result struct {
	Tally   tally    `json:"tally"`
	Samples samples  `json:"samples"`
	Notes   []string `json:"notes"`
	fig     figures  // per-layer figures of a traced run
}

func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

type workload struct {
	name string
	run  func(*runEnv) (*result, error)
}

var workloads = []workload{
	{servePCG.name, servePCG.run},
	{serveBatch.name, serveBatch.run},
	{solveLarge.name, solveLarge.run},
	{solveDist.name, solveDist.run},
}

// parts is how many fresh processes an untraced run spreads its window
// over. On a small shared host speed drifts by 10–20% from one process to
// the next and from minute to minute; pooling the samples of several
// short processes keeps one slow or fast stretch from setting a run's
// figures.
const parts = 4

// outDir holds trace output, relative to the checkout root the benchmark
// runs from.
const outDir = ".bench_build/trace"

func main() {
	name := flag.String("workload", "", "workload to run, or \"all\"")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	part := flag.Int("part", -1, "internal: measure part `i` of an untraced run and print its samples")
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || *part >= parts {
		fmt.Fprintln(os.Stderr, "due-perf: --seconds must be >= 1, --trace 0 or 1")
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *traceFlag))
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(os.Stderr, "due-perf: unknown workload %q (have %s, all)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	window := time.Duration(*seconds) * time.Second
	var err error
	switch {
	case *part >= 0:
		err = runPart(w, *seed, *part, window)
	case *traceFlag == 1:
		err = runTraced(w, *seed, window)
	default:
		err = runParts(w, *seed, window)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "due-perf: %s: %v\n", w.name, err)
		os.Exit(1)
	}
}

func header(w *workload, seed int64, window time.Duration, traced bool) error {
	fmt.Printf("# workload %s seed=%d seconds=%.0f trace=%v\n", w.name, seed, window.Seconds(), traced)
	fmt.Printf("# provenance: %s\n", provenance())
	if err := selfTest(); err != nil {
		return err
	}
	fmt.Println("# checker self-test: ok (corrupted solutions, unconverged and over-slack solves counted as failed)")
	return nil
}

// runPart measures one part of an untraced run and prints its result as
// one JSON line.
func runPart(w *workload, seed int64, part int, window time.Duration) error {
	share := window / parts
	res, err := w.run(&runEnv{seed: seed, part: part, offset: time.Duration(part) * share, window: share, total: window})
	if err != nil {
		return err
	}
	res.Samples.RSS = []float64{peakRSSMB()}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// runParts runs the parts of an untraced run one after another, each in
// a fresh process, and prints the end-to-end metrics of the pooled
// samples.
func runParts(w *workload, seed int64, window time.Duration) error {
	if err := header(w, seed, window, false); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var all result
	for p := 0; p < parts; p++ {
		cmd := exec.Command(exe, "--workload", w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(int(window.Seconds())), "--part", fmt.Sprint(p))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("part %d: %w", p, err)
		}
		var r result
		if err := json.Unmarshal(out, &r); err != nil {
			return fmt.Errorf("part %d: bad output: %w", p, err)
		}
		for _, n := range r.Notes {
			fmt.Printf("# part %d: %s\n", p, n)
		}
		all.Tally.merge(r.Tally)
		all.Samples.merge(r.Samples)
	}
	fmt.Printf("# pooled over %d processes: %d set-ups, %d latency samples\n", parts, len(all.Samples.Setup), len(all.Samples.Latency))
	// Tail percentiles are printed where at least ten samples lie beyond
	// them. They are not end-to-end metrics: see endToEnd.
	n := len(all.Samples.Latency)
	for _, p := range []struct {
		name string
		q    float64
		min  int
	}{{"latency_p90_ms", 0.9, 100}, {"latency_p99_ms", 0.99, 1000}} {
		if n >= p.min {
			fmt.Printf("%s %v ms (%d samples)\n", p.name, quantile(all.Samples.Latency, p.q), n)
		} else {
			fmt.Printf("# %s not reported: %d samples, fewer than %d\n", p.name, n, p.min)
		}
	}
	return report(&all.Tally, all.Samples.pooled(all.Tally.answered()), endToEnd)
}

// runTraced is the separate traced run: one process, spans kept in
// memory and written out at the end, per-layer metrics printed.
func runTraced(w *workload, seed int64, window time.Duration) error {
	if err := header(w, seed, window, true); err != nil {
		return err
	}
	f := figures{}
	// The bandwidth probe runs first so its arrays are gone before the
	// workload's inputs exist.
	fmt.Println("# " + streamLayer(f))
	env := &runEnv{seed: seed, window: window, total: window, traced: true, tr: newTracer()}
	res, err := w.run(env)
	if err != nil {
		return err
	}
	for _, n := range res.Notes {
		fmt.Println("# " + n)
	}
	for k, v := range res.fig {
		f[k] = v
	}
	// A layer the workload does not run reads 0.
	for _, d := range perLayer {
		if _, ok := f[d.name]; !ok {
			f[d.name] = 0
		}
	}
	f["sparse.spmv_frac_of_stream"] = f["sparse.spmv_gbs"] / f["stream.triad_gbs"]
	layers, coverage := env.tr.summary()
	f["trace.coverage"] = coverage
	out, _ := f.selectDefs(perLayer)
	base, err := env.tr.write(outDir, w.name, seed, layers, out)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("# trace: %s-spans.jsonl, %s-summary.json\n", base, base)
	for _, l := range layers {
		fmt.Printf("# layer %-20s count=%-6d total=%10.3f ms self=%10.3f ms\n", l.Name, l.Count, l.TotalMs, l.SelfMs)
	}
	return report(&res.Tally, f, perLayer)
}

// line is the result line the benchmark ends with.
type line struct {
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Metrics   map[string]json.RawMessage `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the answer tally, each metric of defs with its unit, and
// the result line.
func report(t *tally, f figures, defs []metricDef) error {
	fmt.Printf("# answers: %s\n", t)
	fmt.Printf("failed_frac %v ratio\n", t.failedFrac())
	out, missing := f.selectDefs(defs)
	if len(missing) > 0 {
		return fmt.Errorf("metrics not produced: %s", strings.Join(missing, ", "))
	}
	if t.Attempted == 0 {
		return fmt.Errorf("no operation attempted")
	}
	l := line{Correct: t.Wrong == 0, Attempted: t.Attempted, Failed: t.Failed, Metrics: map[string]json.RawMessage{}}
	for _, m := range out {
		fmt.Printf("%s %v %s\n", m.Name, m.Value, m.Unit)
		raw, err := json.Marshal(value{m.Value, m.Unit})
		if err != nil {
			return fmt.Errorf("metric %s: %w", m.Name, err)
		}
		l.Metrics[m.Name] = raw
	}
	data, err := json.Marshal(l)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// runAll runs every workload in turn, each as its own run, then prints
// one combined result line whose metric names are prefixed with the
// workload.
func runAll(seed int64, seconds, traceFlag int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "due-perf:", err)
		return 1
	}
	total := line{Correct: true, Metrics: map[string]json.RawMessage{}}
	for _, w := range workloads {
		cmd := exec.Command(exe, "--workload", w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traceFlag))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		os.Stdout.Write(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "due-perf: %s: %v\n", w.name, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var l line
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l); err != nil {
			fmt.Fprintf(os.Stderr, "due-perf: %s: bad result line: %v\n", w.name, err)
			return 1
		}
		total.Correct = total.Correct && l.Correct
		total.Attempted += l.Attempted
		total.Failed += l.Failed
		for k, v := range l.Metrics {
			total.Metrics[w.name+"/"+k] = v
		}
	}
	data, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "due-perf:", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}
