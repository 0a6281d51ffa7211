package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the id of
// the span that caused it (0 for a root); the spans of one traced solve
// share that solve's root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps the benchmark's spans in memory until the workload
// ends. It is the benchmark's own tracer: spans are recorded around the
// calls into each layer, not inside the program.
type recorder struct {
	base   time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string]int64 // work counted at the same boundaries
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), counts: make(map[string]int64)}
}

func (r *recorder) count(name string, delta int64) {
	r.mu.Lock()
	r.counts[name] += delta
	r.mu.Unlock()
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// add records a finished span and returns its id.
func (r *recorder) add(parent int, name, layer string, startNs, endNs int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, StartNs: startNs, EndNs: endNs})
	return id
}

// begin opens a span whose end is set later by end.
func (r *recorder) begin(parent int, name, layer string) int {
	return r.add(parent, name, layer, r.now(), 0)
}

// startOf returns when span id began.
func (r *recorder) startOf(id int) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1].StartNs
}

func (r *recorder) end(id int) {
	now := r.now()
	r.mu.Lock()
	r.spans[id-1].EndNs = now
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as trace-<workload>.json under dir.
func (r *recorder) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(r.snapshot())
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part of that interval its children cover.
// Children may overlap each other and may stick out of the parent; both
// are handled by clipping to the parent and taking the union.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		self[s.Layer] += s.EndNs - s.StartNs - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals inside
// parent's interval.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, reach int64
	reach = parent.StartNs
	for _, v := range ivs {
		if v.hi <= reach {
			continue
		}
		total += v.hi - max(v.lo, reach)
		reach = v.hi
	}
	return total
}
