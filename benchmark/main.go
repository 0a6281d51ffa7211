// Command benchmark is the repository's one repeatable benchmark: five
// long-solve workloads, the end-to-end metrics a user of the runtime
// sees, and a per-layer cost ladder measured from outside by timing calls
// into each layer's public functions. See README.md in this directory.
//
// The driver runs it once per workload and mode:
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the JSON object on the last line of standard output. Without
// --workload it runs every workload in both modes, one OS process each.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

// setupRepeats is how many times an end-to-end run sets the workload up:
// setup_s is the median, and the timed pass uses the last instance.
const setupRepeats = 3

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newResult pairs the measured values with the declared metrics and
// prints each by name with its unit.
func newResult(w *workload, defs []metricDef, vals map[string]float64, attempted, failed int) result {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		res.Metrics[m.Name] = metricValue{Value: vals[m.Name], Unit: m.Unit}
		fmt.Printf("%-15s %-38s %18.4f %s\n", w.name, m.Name, vals[m.Name], m.Unit)
	}
	return res
}

type options struct {
	seed     int64
	seconds  int
	traceOut string
}

func (o options) budget() time.Duration { return time.Duration(o.seconds) * time.Second }

// child re-executes this binary for one workload and mode. One OS
// process per run keeps a workload's retained heap out of the next
// one's measurements.
func (o options) child(w *workload, trace int) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(trace), "-trace-out", o.traceOut)
	cmd.Stderr = os.Stderr
	return cmd, nil
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (default: every workload, one process each)")
		seed     = flag.Int64("seed", 19, "seed the workload's inputs are generated from")
		seconds  = flag.Int("seconds", 18, "how long one run measures")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
		traceOut = flag.String("trace-out", ".bench_build/traces", "directory a traced run writes trace-<workload>.json to")
		list     = flag.Bool("list", false, "print the workloads and metrics as JSON and exit")
		check    = flag.Bool("check", false, "A/A test: measure twice and fail if an end-to-end metric differs by more than its bound")
	)
	flag.Parse()
	if *list {
		printList()
		return
	}
	opt := options{seed: *seed, seconds: *seconds, traceOut: *traceOut}
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{*w}
	}
	var err error
	switch {
	case *check:
		err = forEach(selected, func(w *workload) error { return runCheck(w, opt) })
	case *name == "":
		err = forEach(selected, func(w *workload) error { return runBothModes(w, opt) })
	default:
		err = runOne(&selected[0], opt, *traced == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// forEach applies run to every workload and returns the joined errors.
func forEach(ws []workload, run func(*workload) error) error {
	var errs []error
	for i := range ws {
		errs = append(errs, run(&ws[i]))
	}
	return errors.Join(errs...)
}

// runBothModes runs the workload's end-to-end and traced runs, each in a
// process of its own, passing their output through.
func runBothModes(w *workload, opt options) error {
	for trace := 0; trace <= 1; trace++ {
		cmd, err := opt.child(w, trace)
		if err != nil {
			return err
		}
		cmd.Stdout = os.Stdout
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s --trace %d: %w", w.name, trace, err)
		}
	}
	return nil
}

// runOne is a single-workload run in this process: it prints every
// metric and, last, the result line the driver reads.
func runOne(w *workload, opt options, traced bool) error {
	fmt.Printf("# %s: seed %d, %d s, GOMAXPROCS %d, NumCPU %d, %s, commit %s\n",
		w.name, opt.seed, opt.seconds, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit())
	run := runEndToEnd
	if traced {
		run = runTraced
	}
	res, err := run(w, opt)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d solves failed", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// commit is the revision the binary was built from, when the build was
// made inside a git checkout.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				return kv.Value
			}
		}
	}
	return "unknown"
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printList prints what BENCHMARK.json must declare, in its own shape.
func printList() {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	out := struct {
		Workloads []wl        `json:"workloads"`
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}{EndToEnd: endToEnd, PerLayer: perLayer}
	for _, w := range workloads {
		out.Workloads = append(out.Workloads, wl{w.name, w.why})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}

// runEndToEnd sets the workload up setupRepeats times, makes one timed
// pass and reports the end-to-end metrics.
func runEndToEnd(w *workload, opt options) (result, error) {
	var inst *instance
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		var took time.Duration
		var err error
		if inst, took, err = setUp(w, opt.seed); err != nil {
			return result{}, err
		}
		setups = append(setups, took.Seconds())
	}
	fmt.Printf("# %s: %s; work unit: %s\n", w.name, inst.info, w.unit)
	p := timedPass(inst, opt.budget(), minSolves)
	fmt.Printf("# %s: %d solves, p10 %.3f p25 %.3f median %.3f p80 %.3f ms; highest percentile with %d samples beyond it: p%d\n",
		w.name, len(p.solveMs), percentile(p.solveMs, 10), percentile(p.solveMs, 25), median(p.solveMs), percentile(p.solveMs, 80),
		minTailSamples, highestPercentile(len(p.solveMs)))
	if p.firstErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d solves failed, first: %v\n", w.name, p.failed, len(p.solveMs), p.firstErr)
	}
	setup := time.Duration(median(setups) * float64(time.Second))
	return newResult(w, endToEnd, endToEndValues(inst, p, setup), len(p.solveMs), p.failed), nil
}

// runCheck is the A/A test: two end-to-end runs of the same binary, each
// in a process of its own like every other run, must agree within every
// end-to-end metric's bound.
func runCheck(w *workload, opt options) error {
	var runs [2]result
	for i := range runs {
		cmd, err := opt.child(w, 0)
		if err != nil {
			return err
		}
		out, err := cmd.Output()
		os.Stdout.Write(out)
		if err != nil {
			return fmt.Errorf("%s: run %d of the A/A pair: %w", w.name, i+1, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		if err := json.Unmarshal(lines[len(lines)-1], &runs[i]); err != nil {
			return fmt.Errorf("%s: result line of run %d: %w", w.name, i+1, err)
		}
	}
	bad := 0
	for _, m := range endToEnd {
		a, b := runs[0].Metrics[m.Name].Value, runs[1].Metrics[m.Name].Value
		diff := math.Abs(b-a) / math.Abs(a)
		verdict := "ok"
		if diff > m.Bound {
			verdict = "DIFFERS"
			bad++
		}
		fmt.Printf("%-15s %-28s %16.4f %16.4f %s  %6.2f%% apart (bound %.0f%%) %s\n",
			w.name, m.Name, a, b, m.Unit, 100*diff, 100*m.Bound, verdict)
	}
	if bad > 0 {
		return fmt.Errorf("%s: %d end-to-end metrics differ between two runs of the same binary by more than their bound", w.name, bad)
	}
	return nil
}

// runTraced makes the traced pass, the baseline pass and the layer
// probes, writes the spans, and reports every per-layer metric.
func runTraced(w *workload, opt options) (result, error) {
	inst, _, err := setUp(w, opt.seed)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("# %s: %s; work unit: %s\n", w.name, inst.info, w.unit)
	t := tracedPass(inst, opt.budget()/3)
	refMs, err := refPass(inst, opt.budget()/6)
	if err != nil {
		return result{}, fmt.Errorf("%s: baseline solve: %w", w.name, err)
	}
	vals, err := runProbes()
	if err != nil {
		return result{}, fmt.Errorf("layer probe: %w", err)
	}
	tracedValues(t, refMs, vals)

	path, err := t.rec.write(opt.traceOut, w.name)
	if err != nil {
		return result{}, err
	}
	spans := t.rec.snapshot()
	fmt.Printf("# %s: %d traced solves, %d spans in %s\n", w.name, len(t.tracedMs), len(spans), path)
	self := selfTimes(spans)
	for _, layer := range sortedKeys(self) {
		fmt.Printf("# %s: self time per traced solve, layer %-10s %10.3f ms\n", w.name, layer, float64(self[layer])/1e6/float64(len(t.tracedMs)))
	}
	if t.firstErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d solves failed, first: %v\n", w.name, t.failed, t.firstErr)
	}
	return newResult(w, perLayer, vals, len(t.plainMs)+len(t.tracedMs), t.failed), nil
}
