package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	// 11 samples 0..10: the 80th percentile sits exactly on the 9th.
	var ramp []float64
	for i := 0; i <= 10; i++ {
		ramp = append(ramp, float64(i))
	}
	if got := percentile(ramp, 80); got != 8 {
		t.Errorf("p80 of 0..10 = %v, want 8", got)
	}
	if got := percentile(ramp, 100); got != 10 {
		t.Errorf("p100 = %v, want the maximum", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{5, 0}, {10, 0}, {20, 50}, {49, 79}, {50, 80}, {60, 83}, {99, 89}, {100, 90}, {1000, 99},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
		// The rule itself: at least ten samples lie beyond the percentile.
		if got := highestPercentile(c.n); got > 0 && float64(c.n)*(1-float64(got)/100) < minTailSamples-1e-9 {
			t.Errorf("highestPercentile(%d) = %d leaves fewer than %d samples beyond it", c.n, got, minTailSamples)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "solve", Layer: "bench", StartNs: 0, EndNs: 100},
		// Nested: 2 is inside 1, 3 is inside 2.
		{ID: 2, Parent: 1, Name: "elapsed", Layer: "workload", StartNs: 10, EndNs: 70},
		{ID: 3, Parent: 2, Name: "put", Layer: "fabric", StartNs: 20, EndNs: 30},
		// Overlapping siblings under 2: 30..50 and 40..60 cover 30..60 once.
		{ID: 4, Parent: 2, Name: "put", Layer: "fabric", StartNs: 30, EndNs: 50},
		{ID: 5, Parent: 2, Name: "put", Layer: "fabric", StartNs: 40, EndNs: 60},
		// A child sticking out of its parent is clipped to it: 90..100.
		{ID: 6, Parent: 1, Name: "late", Layer: "fabric", StartNs: 90, EndNs: 130},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"bench":    100 - 60 - 10,     // minus span 2 and the clipped part of span 6
		"workload": 60 - 40,           // minus 20..60, the union of spans 3, 4, 5
		"fabric":   10 + 20 + 20 + 40, // leaves count in full
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// TestSmoke solves every workload twice at a tiny size; every solve must
// pass its oracle, and every end-to-end metric must come out a positive
// number.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			inst, err := w.setup(19, true)
			if err != nil {
				t.Fatal(err)
			}
			p := timedPass(inst, 0, 2)
			if p.failed != 0 || len(p.solveMs) != 2 {
				t.Fatalf("%d of %d solves failed: %v", p.failed, len(p.solveMs), p.firstErr)
			}
			vals := endToEndValues(inst, p, 1)
			for _, m := range endToEnd {
				if v, ok := vals[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v (present %v)", m.Name, v, ok)
				}
			}
			if vals["work_per_s"] <= 0 || vals["solve_p80_ms"] <= 0 {
				t.Errorf("work_per_s %v, solve_p80_ms %v", vals["work_per_s"], vals["solve_p80_ms"])
			}
		})
	}
}

// TestTracedPass runs the traced pass on the two workloads with
// something of their own to observe: Graph500's injected transport and
// the supervised run's recovery report.
func TestTracedPass(t *testing.T) {
	for _, name := range []string{"graph500", "isx-supervised"} {
		inst, err := workloadByName(name).setup(19, true)
		if err != nil {
			t.Fatal(err)
		}
		tr := tracedPass(inst, 0)
		if tr.failed != 0 {
			t.Fatalf("%s: %d traced solves failed: %v", name, tr.failed, tr.firstErr)
		}
		vals := map[string]float64{}
		tracedValues(tr, nil, vals)
		for _, m := range perLayer {
			if v := vals[m.Name]; math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", name, m.Name, v)
			}
		}
		switch name {
		case "graph500":
			if vals["fabric.puts_per_solve"] <= 0 || vals["fabric.put_delivery_us"] <= 0 || vals["hipershmem.calls_per_solve"] <= 0 {
				t.Errorf("graph500 traced transport saw nothing: %v", vals)
			}
		case "isx-supervised":
			if vals["job.attempts"] < 3 || vals["hiperckpt.calls_per_solve"] <= 0 {
				t.Errorf("supervised run reported nothing: %v", vals)
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program from drifting:
// the workloads and metrics the driver is told about are exactly the
// ones -list prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", decl.Paths)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q / %q", i, decl.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json    %+v\n program %+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json    %+v\n program %+v", decl.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
}
