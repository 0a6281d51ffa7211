package main

import (
	"time"

	"repro/internal/stats"
)

// Stats module names of the four HiPER modules, keyed by the layer name
// the metrics use.
var moduleLayers = []struct{ layer, statsName string }{
	{"hipershmem", "shmem"},
	{"hipermpi", "mpi"},
	{"hiperupcxx", "upcxx"},
	{"hiperckpt", "ckpt"},
}

// minTracedPairs is the fewest plain/traced solve pairs a traced pass
// makes however short its budget.
const minTracedPairs = 3

// tracedRun is the raw record of one traced pass.
type tracedRun struct {
	rec      *recorder
	plainMs  []float64 // solves with the recorder off, interleaved
	tracedMs []float64
	outcomes []outcome
	calls    map[string]int64         // per stats module, summed over traced solves
	busy     map[string]time.Duration // per stats module
	failed   int
	firstErr error
}

func (t *tracedRun) note(err error) {
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// tracedPass alternates plain and traced solves until budget has
// elapsed. A traced solve is a root span; its children are the solve's
// timed region, the transport calls of an injected traced transport, and
// one aggregate span per HiPER module built from the stats delta.
func tracedPass(inst *instance, budget time.Duration) *tracedRun {
	t := &tracedRun{rec: newRecorder(), calls: map[string]int64{}, busy: map[string]time.Duration{}}
	start := time.Now()
	for pair := 0; pair < minTracedPairs || time.Since(start) < budget; pair++ {
		out, err := inst.solve(nil, 0)
		t.note(err)
		t.plainMs = append(t.plainMs, ms(out.elapsed))

		stats.Reset()
		root := t.rec.begin(0, "solve", "bench")
		out, err = inst.solve(t.rec, root)
		t.rec.end(root)
		t.note(err)
		t.tracedMs = append(t.tracedMs, ms(out.elapsed))
		t.outcomes = append(t.outcomes, out)

		// Result.Elapsed is a duration without timestamps, and a module's
		// busy time is summed over its ranks: both spans are anchored at
		// the root's start, so only their lengths carry meaning.
		rootStart := t.rec.startOf(root)
		t.rec.add(root, "elapsed", "workload", rootStart, rootStart+int64(out.elapsed))
		perModule := map[string]time.Duration{}
		for _, e := range stats.Snapshot() {
			t.calls[e.Module] += e.Calls
			t.busy[e.Module] += e.Time
			perModule[e.Module] += e.Time
		}
		for _, ml := range moduleLayers {
			if d := perModule[ml.statsName]; d > 0 {
				t.rec.add(root, "api-busy", ml.layer, rootStart, rootStart+int64(d))
			}
		}
	}
	return t
}

// refPass runs the paper's plain baseline until budget has elapsed and
// returns the solve times; nil when the workload has no baseline.
func refPass(inst *instance, budget time.Duration) ([]float64, error) {
	if inst.ref == nil {
		return nil, nil
	}
	var times []float64
	start := time.Now()
	for n := 0; n < minTracedPairs || time.Since(start) < budget; n++ {
		d, err := inst.ref()
		if err != nil {
			return nil, err
		}
		times = append(times, ms(d))
	}
	return times, nil
}

// spanDurations returns the durations, in nanoseconds, of the spans
// called name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs))
		}
	}
	return out
}

// tracedValues turns a traced pass into the per-layer metrics it
// observes. A metric the workload cannot show from outside — transport
// calls without an injectable transport, recovery counts without a
// supervisor, a baseline that does not exist — stays 0.
func tracedValues(t *tracedRun, refMs []float64, out map[string]float64) {
	solves := float64(len(t.tracedMs))
	for _, ml := range moduleLayers {
		out[ml.layer+".calls_per_solve"] = float64(t.calls[ml.statsName]) / solves
		out[ml.layer+".api_ms_per_solve"] = ms(t.busy[ml.statsName]) / solves
	}
	out["bench.trace_overhead_frac"] = median(t.tracedMs)/median(t.plainMs) - 1
	if len(refMs) > 0 {
		out["workloads.ref_ms"] = median(refMs)
		out["workloads.hiper_vs_ref"] = median(t.plainMs) / median(refMs)
	}

	spans := t.rec.snapshot()
	for _, name := range []string{"puts", "put_bytes", "gets", "sends"} {
		out["fabric."+name+"_per_solve"] = float64(t.rec.counts[name]) / solves
	}
	out["fabric.put_issue_ns"] = median(spanDurations(spans, "put-issue"))
	delivery := spanDurations(spans, "put-delivery")
	out["fabric.put_delivery_us"] = median(delivery) / 1000
	out["fabric.put_delivery_p90_us"] = percentile(delivery, 90) / 1000
	out["fabric.recv_wait_us"] = median(spanDurations(spans, "recv-wait")) / 1000

	var sup supervision
	for _, o := range t.outcomes {
		if o.sup != nil {
			sup.add(o)
		}
	}
	sup.values(out)
}

// supervision accumulates what job.Supervise reported over the traced
// supervised solves.
type supervision struct {
	runs                                 float64
	attempts, retries, remaps, evictions float64
	phases                               float64
	recoveries, detections               float64
	downtime, phaseTime, detectTime      time.Duration
	phaseTimes, detectRounds             float64
}

func (s *supervision) add(o outcome) {
	rep := o.sup.Report
	s.runs++
	s.attempts += float64(rep.Attempts)
	s.retries += float64(rep.Retries)
	s.remaps += float64(rep.Remaps)
	s.evictions += float64(rep.Evictions)
	s.phases += float64(rep.Phases)
	for _, r := range rep.Recoveries {
		s.recoveries++
		s.downtime += r.Downtime
	}
	for _, d := range rep.Detections {
		s.detections++
		s.detectRounds += float64(d.Rounds)
		s.detectTime += d.Latency
	}
	for _, d := range o.sup.PhaseTimes {
		s.phaseTimes++
		s.phaseTime += d
	}
}

// values reports per-solve means of the counts and per-event means of
// the latencies.
func (s *supervision) values(out map[string]float64) {
	if s.runs == 0 {
		return
	}
	out["job.attempts"] = s.attempts / s.runs
	out["job.retries"] = s.retries / s.runs
	out["job.remaps"] = s.remaps / s.runs
	out["job.evictions"] = s.evictions / s.runs
	out["job.completed_work_ratio"] = s.phases / s.attempts
	if s.recoveries > 0 {
		out["job.mttr_ms"] = ms(s.downtime) / s.recoveries
	}
	if s.phaseTimes > 0 {
		out["job.phase_ms"] = ms(s.phaseTime) / s.phaseTimes
	}
	if s.detections > 0 {
		out["fabric.detector.detect_rounds"] = s.detectRounds / s.detections
		out["fabric.detector.detect_ms"] = ms(s.detectTime) / s.detections
	}
}
