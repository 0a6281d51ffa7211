package main

// metricDef declares one metric the benchmark prints. BENCHMARK.json at
// the repository root repeats these declarations for the driver; a test
// keeps the two from drifting.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off and reported on every workload.
var endToEnd = []metricDef{
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "solve_p80_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_solve", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_solve", Unit: "count", Better: "lower", Bound: 0.20},
	{Name: "alloc_mb_per_solve", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "heap_retained_mb_per_solve", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of single layers, from the traced run and the
// layer probes. They carry no bound: they say where an end-to-end change
// came from. README.md lists, for each, the end-to-end metric and
// workload it is expected to move.
var perLayer = []metricDef{
	// deque / core / policy / trace — expected to move uts.
	{Name: "deque.push_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "deque.steal_ns", Unit: "ns", Better: "lower"},
	{Name: "core.spawn_ns", Unit: "ns", Better: "lower"},
	{Name: "core.spawn_allocs", Unit: "count", Better: "lower"},
	{Name: "core.future_roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "core.forasync_ns", Unit: "ns", Better: "lower"},
	{Name: "core.blocked_get_ns", Unit: "ns", Better: "lower"},
	{Name: "core.steals_per_ktask", Unit: "count", Better: "lower"},
	{Name: "core.parks_per_ktask", Unit: "count", Better: "lower"},
	{Name: "core.substitutions_per_kwait", Unit: "count", Better: "lower"},
	{Name: "policy.seam_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.spawn_on_ratio", Unit: "ratio", Better: "lower"},
	// Sim bandwidth path and shmem — expected to move isx.
	{Name: "fabric.sim.bulk_put_us", Unit: "us", Better: "lower"},
	{Name: "fabric.sim.bulk_model_ratio", Unit: "ratio", Better: "lower"},
	{Name: "shmem.putmem_ns_per_kb", Unit: "ns", Better: "lower"},
	{Name: "shmem.barrier_us", Unit: "us", Better: "lower"},
	// Direct call vs taskified — expected to move hpgmg.
	{Name: "upcxx.rput_ns", Unit: "ns", Better: "lower"},
	{Name: "hiperupcxx.rput_taskify_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.sendrecv_ns", Unit: "ns", Better: "lower"},
	{Name: "hipermpi.isend_irecv_taskify_ns", Unit: "ns", Better: "lower"},
	{Name: "hipermpi.allreduce_us", Unit: "us", Better: "lower"},
	// Transport calls seen by the traced transport, and the async-when
	// path — expected to move graph500.
	{Name: "fabric.puts_per_solve", Unit: "count", Better: "lower"},
	{Name: "fabric.put_bytes_per_solve", Unit: "count", Better: "lower"},
	{Name: "fabric.gets_per_solve", Unit: "count", Better: "lower"},
	{Name: "fabric.sends_per_solve", Unit: "count", Better: "lower"},
	{Name: "fabric.put_issue_ns", Unit: "ns", Better: "lower"},
	{Name: "fabric.put_delivery_us", Unit: "us", Better: "lower"},
	{Name: "fabric.put_delivery_p90_us", Unit: "us", Better: "lower"},
	{Name: "fabric.recv_wait_us", Unit: "us", Better: "lower"},
	{Name: "shmem.put_ns", Unit: "ns", Better: "lower"},
	{Name: "hipershmem.put_taskify_ns", Unit: "ns", Better: "lower"},
	{Name: "hipershmem.async_when_us", Unit: "us", Better: "lower"},
	// The transport wrapper ladder, checkpoints, job boot and what the
	// supervisor reported — expected to move isx-supervised.
	{Name: "fabric.inline.pingpong_ns", Unit: "ns", Better: "lower"},
	{Name: "fabric.inline.pingpong_allocs", Unit: "count", Better: "lower"},
	{Name: "fabric.sim0.pingpong_ns", Unit: "ns", Better: "lower"},
	{Name: "fabric.sim0.pingpong_allocs", Unit: "count", Better: "lower"},
	{Name: "fabric.chaos0.pingpong_ns", Unit: "ns", Better: "lower"},
	{Name: "fabric.chaos0.pingpong_allocs", Unit: "count", Better: "lower"},
	{Name: "fabric.reliable.pingpong_ns", Unit: "ns", Better: "lower"},
	{Name: "fabric.reliable.pingpong_allocs", Unit: "count", Better: "lower"},
	{Name: "fabric.virtual.pingpong_ns", Unit: "ns", Better: "lower"},
	{Name: "fabric.virtual.pingpong_allocs", Unit: "count", Better: "lower"},
	{Name: "fabric.reliable.lossy_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "fabric.reliable.retransmits_per_kmsg", Unit: "count", Better: "lower"},
	{Name: "fabric.chaos.drops_per_kmsg", Unit: "count", Better: "lower"},
	{Name: "hiperckpt.checkpoint_us", Unit: "us", Better: "lower"},
	{Name: "hiperckpt.restore_us", Unit: "us", Better: "lower"},
	{Name: "job.boot_ms", Unit: "ms", Better: "lower"},
	{Name: "job.attempts", Unit: "count", Better: "lower"},
	{Name: "job.retries", Unit: "count", Better: "lower"},
	{Name: "job.remaps", Unit: "count", Better: "lower"},
	{Name: "job.evictions", Unit: "count", Better: "lower"},
	{Name: "job.completed_work_ratio", Unit: "ratio", Better: "higher"},
	{Name: "job.mttr_ms", Unit: "ms", Better: "lower"},
	{Name: "job.phase_ms", Unit: "ms", Better: "lower"},
	{Name: "fabric.detector.detect_rounds", Unit: "count", Better: "lower"},
	{Name: "fabric.detector.detect_ms", Unit: "ms", Better: "lower"},
	// On every workload: work and time busy per HiPER module, the paper's
	// baseline, and what the benchmark's own tracing costs.
	{Name: "hipershmem.calls_per_solve", Unit: "count", Better: "lower"},
	{Name: "hipershmem.api_ms_per_solve", Unit: "ms", Better: "lower"},
	{Name: "hipermpi.calls_per_solve", Unit: "count", Better: "lower"},
	{Name: "hipermpi.api_ms_per_solve", Unit: "ms", Better: "lower"},
	{Name: "hiperupcxx.calls_per_solve", Unit: "count", Better: "lower"},
	{Name: "hiperupcxx.api_ms_per_solve", Unit: "ms", Better: "lower"},
	{Name: "hiperckpt.calls_per_solve", Unit: "count", Better: "lower"},
	{Name: "hiperckpt.api_ms_per_solve", Unit: "ms", Better: "lower"},
	{Name: "workloads.ref_ms", Unit: "ms", Better: "lower"},
	{Name: "workloads.hiper_vs_ref", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
}
