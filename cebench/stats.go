package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run. Every one is defined, and nonzero, on every workload:
// slo_pct counts an app or request that is refused as missing its SLO,
// and the saving/latency pair compares each workload against its own
// Latency-aware twin. The epoch latency percentiles are per-layer
// (sim.step_p50_ms, sim.step_p99_ms): they are the wall-clock tails of
// single epochs, which a scaling by the machine's speed over a whole
// episode does not steady.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_hours_per_s", "h/s"},
	{"allocs_per_hour", "1/h"},
	{"heap_live_mb", "MB"},
	{"carbon_kg", "kg"},
	{"carbon_saving_pct", "%"},
	{"latency_increase_ms", "ms"},
	{"slo_pct", "%"},
}

// perLayer are the single-layer metrics printed by every traced run. A
// layer a workload does not exercise reports 0. The sim.* step metrics
// count a workload's epochs: engine steps, coordinator rounds (whose busy
// time is counted in worker-seconds, round time times workers), or the
// live client's emulated hours (whose phases are the orchestrator's).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"carbon.trace_synth_s", "s"},
		{"carbon.trace_regen_ratio", "x"},
		{"carbon.zones", "count"},
		{"setup.world_other_s", "s"},
		{"setup.build_s", "s"},
		{"setup.coverage_pct", "%"},
		{"sim.steps", "count"},
		{"sim.step_busy_s", "s"},
		{"sim.step_p50_ms", "ms"},
		{"sim.step_p99_ms", "ms"},
		{"sim.dispatch_self_s", "s"},
		{"sim.phase_coverage_pct", "%"},
	}
	for _, p := range simPhases {
		defs = append(defs, metricDef{"sim.phase." + p + "_s", "s"}, metricDef{"sim.phase." + p + "_calls", "count"})
	}
	defs = append(defs,
		metricDef{"traffic.slice_ns", "ns"},
		metricDef{"traffic.requests", "count"},
		metricDef{"traffic.replay_coverage_pct", "%"},
		metricDef{"router.route_at_ns", "ns"},
		metricDef{"router.spilled", "count"},
		metricDef{"router.dropped", "count"},
		metricDef{"router.served_ratio", "ratio"},
		metricDef{"metrics.sketch_addn_ns", "ns"},
		metricDef{"placement.batch_p50_ms", "ms"},
		metricDef{"placement.batch_p99_ms", "ms"},
		metricDef{"placement.solve_s", "s"},
		metricDef{"placement.batches", "count"},
		metricDef{"placement.migrations", "count"},
		metricDef{"placement.placed_ratio", "ratio"},
		metricDef{"sweep.parallel_eff", "ratio"},
		metricDef{"shard.round_busy_s", "s"},
		metricDef{"shard.messages", "count"},
		metricDef{"shard.spill_requests", "count"},
		metricDef{"shard.parallel_eff", "ratio"},
		metricDef{"shard.request_inflation_pct", "%"},
		metricDef{"shard.carbon_delta_pct", "%"},
		metricDef{"checkpoint.snapshot_ms", "ms"},
		metricDef{"checkpoint.encode_ms", "ms"},
		metricDef{"checkpoint.decode_ms", "ms"},
		metricDef{"checkpoint.restore_ms", "ms"},
		metricDef{"checkpoint.bytes", "B"},
		metricDef{"checkpoint.share_pct", "%"},
		metricDef{"orchestrator.place_p50_ms", "ms"},
		metricDef{"orchestrator.place_p99_ms", "ms"},
		metricDef{"orchestrator.submit_ms", "ms"},
		metricDef{"orchestrator.tick_ms", "ms"},
		metricDef{"orchestrator.state_get_ms", "ms"},
	)
	for _, p := range orchPhases {
		defs = append(defs, metricDef{"orchestrator.phase." + p + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"orchestrator.placed", "count"},
		metricDef{"orchestrator.rejected", "count"},
		metricDef{"orchestrator.exact_drift_ratio", "ratio"},
		metricDef{"proc.cpu_util", "ratio"},
		metricDef{"runtime.alloc_bytes_per_hour", "B/h"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_s", "s"},
		metricDef{"trace.overhead_pct", "%"},
	)
	return defs
}()

// simPhases and orchPhases are the timeline phase names the engine's and
// the orchestrator's tracers report (sim.PhaseNames and
// Orchestrator.PhaseReport); a name the program adds or drops fails the
// phase check rather than vanishing from the report.
var (
	simPhases  = []string{"faults", "carbon-tick", "departures", "redeploy", "arrivals", "placement", "traffic", "accrual"}
	orchPhases = []string{"faults", "traffic", "telemetry", "placement"}
)

// checker counts operations attempted and failed. Every program call the
// benchmark makes and every output check is one attempt.
type checker struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	notes     []string
}

// add folds a batch of attempts, none failed.
func (c *checker) add(n int64) {
	c.mu.Lock()
	c.attempted += n
	c.mu.Unlock()
}

// check records one attempt, failed unless ok.
func (c *checker) check(ok bool, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.notes) < 20 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// near reports whether a and b agree to a relative 1e-9 (float sums
// folded in different orders).
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle of xs (mean of the two middles when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// digestJSON fingerprints values by their JSON encoding.
func digestJSON(vs ...any) (string, error) {
	h := sha256.New()
	for _, v := range vs {
		b, err := json.Marshal(v)
		if err != nil {
			return "", fmt.Errorf("digest: %w", err)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// procSample is a point-in-time reading of the process counters an
// episode is charged with, and of the live heap: the bytes still
// reachable after a forced collection.
type procSample struct {
	mem  runtime.MemStats
	cpu  time.Duration
	live uint64
}

// startProc reads the counters at the start of a timed part. It collects
// first, so the part starts on a clean heap and is not charged with the
// collection.
func startProc() procSample {
	var p procSample
	p.live = liveHeap()
	runtime.ReadMemStats(&p.mem)
	p.cpu = processCPU()
	return p
}

// endProc reads the counters at the end of a timed part, then the live
// heap it left.
func endProc() procSample {
	var p procSample
	p.cpu = processCPU()
	runtime.ReadMemStats(&p.mem)
	p.live = liveHeap()
	return p
}

// liveHeap collects and returns the bytes still allocated: runtime.GC
// returns with the sweep finished, so HeapAlloc is the live heap. The
// second collection frees what the first only moved to the sync.Pool
// victim caches.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
