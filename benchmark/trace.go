package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public entry points it drives. Spans of one request or solve share
// Req; Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span and returns its id (ids start at 1).
func (t *tracer) add(parent int, name string, req int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
	})
	return id
}

// layerTime is one span name's share of the traced time.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	// SelfMs is the span time not covered by the span's children.
	SelfMs float64 `json:"self_ms"`
}

type interval struct{ lo, hi int64 }

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv []interval, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total int64
	cur := lo
	for _, v := range iv {
		a, b := max(v.lo, cur), min(v.hi, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// summary computes per-layer self times and the coverage: the share of
// the root spans' time that their leaf spans account for.
func (t *tracer) summary() (layers []layerTime, coverage float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	byName := make(map[string]*layerTime)
	var rootTime, leafTime int64
	for _, s := range t.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		var kids []interval
		for _, c := range children[s.ID] {
			cs := t.spans[c-1]
			kids = append(kids, interval{cs.Start, cs.End})
		}
		dur := s.End - s.Start
		lt.Count++
		lt.TotalMs += float64(dur) / 1e6
		lt.SelfMs += float64(dur-covered(kids, s.Start, s.End)) / 1e6
		if s.Parent == 0 {
			rootTime += dur
			var leaves []interval
			var walk func(id int)
			walk = func(id int) {
				if len(children[id]) == 0 && id != s.ID {
					ls := t.spans[id-1]
					leaves = append(leaves, interval{ls.Start, ls.End})
				}
				for _, c := range children[id] {
					walk(c)
				}
			}
			walk(s.ID)
			leafTime += covered(leaves, s.Start, s.End)
		}
	}
	for _, lt := range byName {
		layers = append(layers, *lt)
	}
	sort.Slice(layers, func(i, j int) bool { return layers[i].SelfMs > layers[j].SelfMs })
	if rootTime > 0 {
		coverage = float64(leafTime) / float64(rootTime)
	}
	return layers, coverage
}

// write stores the spans (one JSON object per line) and the summary,
// with the per-layer metrics beside it, under dir.
func (t *tracer) write(dir, workload string, seed int64, layers []layerTime, metrics []metric) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	f, err := os.Create(base + "-spans.jsonl")
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	sum := struct {
		Workload string      `json:"workload"`
		Seed     int64       `json:"seed"`
		Layers   []layerTime `json:"layers"`
		Metrics  []metric    `json:"metrics"`
	}{workload, seed, layers, metrics}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return "", err
	}
	return base, os.WriteFile(base+"-summary.json", data, 0o644)
}

// overheadPct compares the median latency of traced operations with that
// of untraced ones measured alongside them, in percent.
func overheadPct(traced, untraced []float64) float64 {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	return 100 * (median(traced)/median(untraced) - 1)
}
