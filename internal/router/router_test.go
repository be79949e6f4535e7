package router

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/metrics"
)

// testRTT is a small symmetric latency table.
func testRTT(src, dst string) float64 {
	if src == dst {
		return 0
	}
	key := src + "/" + dst
	if src > dst {
		key = dst + "/" + src
	}
	return map[string]float64{
		"Miami/Orlando": 6,
		"Miami/Tampa":   8,
		"Orlando/Tampa": 3,
		"Far/Miami":     40,
		"Far/Orlando":   42,
		"Far/Tampa":     44,
	}[key]
}

func testReplicas() []Replica {
	return []Replica{
		{ID: "mia", City: "Miami", ZoneID: "Z-MIA", CapacityRPS: 10, ServiceMs: 8, EnergyPerReqJ: 0.5},
		{ID: "orl", City: "Orlando", ZoneID: "Z-ORL", CapacityRPS: 10, ServiceMs: 8, EnergyPerReqJ: 0.5},
		{ID: "tpa", City: "Tampa", ZoneID: "Z-TPA", CapacityRPS: 10, ServiceMs: 8, EnergyPerReqJ: 0.5},
	}
}

func flatCI(string) float64 { return 100 }

func mustRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRouterValidation(t *testing.T) {
	if _, err := New(Config{SLOms: 0, RTT: testRTT}); err == nil {
		t.Error("zero SLO accepted")
	}
	if _, err := New(Config{SLOms: 20}); err == nil {
		t.Error("nil RTT oracle accepted")
	}
}

func TestRouteWithinCapacityMeetsSLO(t *testing.T) {
	r := mustRouter(t, Config{SLOms: 20, RTT: testRTT})
	sl := r.ReuseSlice(testReplicas(), 100) // 1000-request budget per replica
	sl.Route("Miami", 900, flatCI)
	sl.Close()

	st := r.Stats()
	if st.Requests != 900 || st.SLOMet != 900 {
		t.Errorf("requests=%d slo_met=%d, want 900/900", st.Requests, st.SLOMet)
	}
	if st.Spilled != 0 || st.Dropped != 0 || st.OverloadSlices != 0 {
		t.Errorf("unexpected spill/drop: %+v", st)
	}
	if att := st.SLOAttainment(); att != 1 {
		t.Errorf("attainment %.3f, want 1", att)
	}
	// All latencies are 0..8ms RTT + 8ms service <= 16ms.
	if p99 := st.Latency.Quantile(0.99); p99 > 20 {
		t.Errorf("p99 %.1f ms > SLO", p99)
	}
	// Per-request carbon: 900 * 0.5 J / 3.6e6 * 100 g/kWh.
	wantG := 900 * 0.5 / 3.6e6 * 100
	if math.Abs(st.CarbonG-wantG)/wantG > 1e-9 {
		t.Errorf("carbon %.6f g, want %.6f", st.CarbonG, wantG)
	}
}

func TestRouteProportionalToFreeCapacity(t *testing.T) {
	reps := []Replica{
		{ID: "big", City: "Miami", ZoneID: "Z", CapacityRPS: 75, ServiceMs: 5, EnergyPerReqJ: 1},
		{ID: "small", City: "Orlando", ZoneID: "Z", CapacityRPS: 25, ServiceMs: 5, EnergyPerReqJ: 1},
	}
	r := mustRouter(t, Config{SLOms: 30, RTT: testRTT})
	sl := r.ReuseSlice(reps, 100) // budgets 7500 / 2500
	sl.Route("Miami", 4000, flatCI)
	sl.Close()
	served := sl.Served()
	ratio := float64(served[0]) / float64(served[1])
	if ratio < 2.8 || ratio > 3.2 {
		t.Errorf("split %d/%d (ratio %.2f), want ~3.0", served[0], served[1], ratio)
	}
}

func TestSpillOverOnSaturation(t *testing.T) {
	reps := []Replica{
		{ID: "near", City: "Miami", ZoneID: "Z", CapacityRPS: 1, ServiceMs: 8, EnergyPerReqJ: 1},
		{ID: "far", City: "Far", ZoneID: "Z", CapacityRPS: 100, ServiceMs: 8, EnergyPerReqJ: 1},
	}
	r := mustRouter(t, Config{SLOms: 20, RTT: testRTT})
	sl := r.ReuseSlice(reps, 10) // near fits 10 requests, far 1000
	sl.Route("Miami", 200, flatCI)
	sl.Close()

	st := r.Stats()
	if st.SLOMet != 10 {
		t.Errorf("slo_met=%d, want 10 (near replica budget)", st.SLOMet)
	}
	if st.Spilled != 190 {
		t.Errorf("spilled=%d, want 190", st.Spilled)
	}
	if st.Dropped != 0 {
		t.Errorf("dropped=%d, want 0", st.Dropped)
	}
	// Spilled requests' latency (40+8+8... RTT 2*40? testRTT returns 40
	// round-trip) lands well past the SLO in the sketch.
	if p99 := st.Latency.Quantile(0.99); p99 <= 20 {
		t.Errorf("p99 %.1f ms should reflect spill-over latency", p99)
	}
}

func TestDropWhenAllSaturated(t *testing.T) {
	r := mustRouter(t, Config{SLOms: 20, RTT: testRTT})
	sl := r.ReuseSlice(testReplicas(), 1) // 10-request budget per replica
	sl.Route("Miami", 100, flatCI)
	if sl.Dropped() != 70 {
		t.Errorf("dropped=%d, want 70", sl.Dropped())
	}
	sl.Close()
	st := r.Stats()
	if st.Dropped != 70 || st.OverloadSlices != 1 {
		t.Errorf("dropped=%d overload_slices=%d, want 70/1", st.Dropped, st.OverloadSlices)
	}
	if st.Requests != 100 || st.SLOMet+st.Dropped+st.Spilled != 100 {
		t.Errorf("request accounting broken: %+v", st)
	}
	// Closing again must not double-count the overload.
	sl.Close()
	if st.OverloadSlices != 1 {
		t.Error("double Close double-counted the overload")
	}
}

func TestRoutingDeterministic(t *testing.T) {
	run := func() Snapshot {
		r := mustRouter(t, Config{SLOms: 20, RTT: testRTT, PerReplica: true})
		for slice := 0; slice < 5; slice++ {
			sl := r.ReuseSlice(testReplicas(), 60)
			sl.Route("Miami", 700, flatCI)
			sl.Route("Orlando", 500, flatCI)
			sl.Route("Far", 300, flatCI)
			sl.Close()
		}
		return r.Stats().Snapshot()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical routing diverged:\na: %+v\nb: %+v", a, b)
	}
}

func TestPerReplicaSnapshot(t *testing.T) {
	r := mustRouter(t, Config{SLOms: 20, RTT: testRTT, PerReplica: true})
	sl := r.ReuseSlice(testReplicas(), 100)
	sl.Route("Tampa", 600, flatCI)
	sl.Close()
	snap := r.Stats().Snapshot()
	if len(snap.Replicas) == 0 {
		t.Fatal("no per-replica rows")
	}
	var total int64
	for i, row := range snap.Replicas {
		total += row.Requests
		if i > 0 && snap.Replicas[i-1].ID >= row.ID {
			t.Error("replica rows not sorted by ID")
		}
		if row.Requests > 0 && row.CarbonPerMReq <= 0 {
			t.Errorf("%s: no per-request carbon attribution", row.ID)
		}
	}
	if total != 600 {
		t.Errorf("per-replica requests sum %d, want 600", total)
	}
	if snap.SLOPct != 100 {
		t.Errorf("attainment %.1f%%, want 100%%", snap.SLOPct)
	}
}

func TestZeroAndClosedSliceRouting(t *testing.T) {
	r := mustRouter(t, Config{SLOms: 20, RTT: testRTT})
	sl := r.ReuseSlice(testReplicas(), 100)
	sl.Route("Miami", 0, flatCI)
	sl.Route("Miami", -5, flatCI)
	sl.Close()
	sl.Route("Miami", 50, flatCI) // closed: ignored
	if st := r.Stats(); st.Requests != 0 {
		t.Errorf("requests=%d, want 0", st.Requests)
	}
}

// TestFullyDrainedPool covers the pool with zero serving capacity: every
// request must surface as an explicit drop with zero energy/carbon
// attribution — no divide-by-zero in the waterfill shares and no silent
// loss in the counters.
func TestFullyDrainedPool(t *testing.T) {
	r := mustRouter(t, Config{SLOms: 20, RTT: testRTT, PerReplica: true})
	replicas := testReplicas()
	for i := range replicas {
		replicas[i].CapacityRPS = 0
	}
	sl := r.ReuseSlice(replicas, 100)
	sl.Route("Miami", 500, flatCI)
	sl.Route("Orlando", 250, flatCI)
	sl.Close()

	st := r.Stats()
	if st.Requests != 750 {
		t.Fatalf("requests = %d, want 750 (attempt-complete accounting)", st.Requests)
	}
	if st.Dropped != 750 || sl.Dropped() != 750 {
		t.Errorf("dropped = %d/%d, want all 750", st.Dropped, sl.Dropped())
	}
	if st.SLOMet != 0 || st.Spilled != 0 {
		t.Errorf("met=%d spilled=%d on a drained pool, want 0/0", st.SLOMet, st.Spilled)
	}
	if st.EnergyKWh != 0 || st.CarbonG != 0 {
		t.Errorf("energy=%v carbon=%v attributed to dropped requests, want 0/0", st.EnergyKWh, st.CarbonG)
	}
	if st.Latency.Count() != 0 {
		t.Errorf("latency sketch recorded %d samples for unserved requests", st.Latency.Count())
	}
	if st.OverloadSlices != 1 {
		t.Errorf("overload slices = %d, want 1", st.OverloadSlices)
	}
	if got := st.DropRate(); got != 1 {
		t.Errorf("drop rate = %v, want 1", got)
	}
	if got := st.SLOAttainment(); got != 0 {
		t.Errorf("SLO attainment = %v, want 0", got)
	}
	for i, n := range sl.Served() {
		if n != 0 {
			t.Errorf("replica %d served %d requests with zero capacity", i, n)
		}
	}
	// The JSON snapshot stays finite (no NaN/Inf leaks from the zeros).
	snap := st.Snapshot()
	if snap.P50Ms != 0 || snap.P99Ms != 0 || snap.SLOPct != 0 {
		t.Errorf("snapshot quantiles not zeroed: %+v", snap)
	}
	for _, rep := range snap.Replicas {
		if rep.Requests != 0 || rep.CarbonPerMReq != 0 {
			t.Errorf("replica snapshot leaked stats: %+v", rep)
		}
	}
}

// TestPoolDrainsMidSlice drains the pool during a slice: the requests
// that fit are served, the remainder drops, and attribution covers only
// the served share.
func TestPoolDrainsMidSlice(t *testing.T) {
	r := mustRouter(t, Config{SLOms: 20, RTT: testRTT})
	sl := r.ReuseSlice(testReplicas(), 10) // 100-request budget per replica
	sl.Route("Miami", 250, flatCI)         // fills Miami + Orlando + Tampa (300 cap)
	sl.Route("Miami", 200, flatCI)         // only 50 left; 150 must drop
	sl.Close()

	st := r.Stats()
	if st.Requests != 450 {
		t.Fatalf("requests = %d", st.Requests)
	}
	if st.Dropped != 150 {
		t.Errorf("dropped = %d, want 150", st.Dropped)
	}
	served := st.Requests - st.Dropped
	wantKWh := float64(served) * 0.5 / 3.6e6
	if math.Abs(st.EnergyKWh-wantKWh) > 1e-12 {
		t.Errorf("energy = %v kWh, want %v (served requests only)", st.EnergyKWh, wantKWh)
	}
	if st.Latency.Count() != served {
		t.Errorf("latency samples %d != served %d", st.Latency.Count(), served)
	}
}

// TestReuseRouteAtZeroAlloc locks in the router's steady-state allocation
// contract: after one warm cycle, the ReuseSlice + RouteAt + Close loop —
// the simulator's per-epoch path — performs zero heap allocations.
func TestReuseRouteAtZeroAlloc(t *testing.T) {
	rttAt := func(src, dst int) float64 {
		if src == dst {
			return 0
		}
		return 5
	}
	r := mustRouter(t, Config{SLOms: 20, RTT: testRTT, RTTAt: rttAt})
	reps := testReplicas()
	for i := range reps {
		reps[i].Loc = i
	}
	cycle := func() {
		sl := r.ReuseSlice(reps, 100)
		sl.RouteAt(0, 500, flatCI)
		sl.RouteAt(1, 400, flatCI)
		sl.Close()
	}
	cycle() // warm: grows scratch buffers and telemetry keys once
	if got := testing.AllocsPerRun(200, cycle); got != 0 {
		t.Errorf("reused routing cycle allocates %.2f/op, want 0", got)
	}
}

// TestStatsSnapshotAllocsBounded pins the scrape path: a Snapshot of
// per-replica stats performs a small constant number of allocations
// (pre-sized row slice plus sort scaffolding), not one per replica or
// per scrape-history.
func TestStatsSnapshotAllocsBounded(t *testing.T) {
	r := mustRouter(t, Config{SLOms: 20, RTT: testRTT, PerReplica: true})
	sl := r.ReuseSlice(testReplicas(), 100)
	sl.Route("Miami", 900, flatCI)
	sl.Close()
	st := r.Stats()
	if got := testing.AllocsPerRun(100, func() { _ = st.Snapshot() }); got > 6 {
		t.Errorf("stats scrape allocates %.1f/op, want a small constant", got)
	}
}

// TestSliceLatencyMatchesSequentialAddN: the latencies a slice buffers
// leave Stats.Latency exactly as one AddN per waterfill assignment, in
// assignment order, would — the sum's bits included — wherever the
// buffer happens to flush. The slice mixes sources, saturation and
// spill-over so the waterfill makes several passes, and files more than
// latBatch entries so the buffer flushes mid-slice.
func TestSliceLatencyMatchesSequentialAddN(t *testing.T) {
	reps := testReplicas()
	reps[1].CapacityRPS = 3
	route := func(r *Router, each func(sl *Slice, route func())) {
		sl := r.ReuseSlice(reps, 300)
		for k := 0; k < 150; k++ {
			src := []string{"Miami", "Orlando", "Far", "Tampa"}[k%4]
			each(sl, func() { sl.Route(src, int64(7+13*(k%9)), flatCI) })
		}
		sl.Close()
		sl.Close() // a second Close files nothing more
	}
	prior := metrics.NewQuantileSketch()
	prior.AddN(11.5, 2) // the routers' sketches already hold earlier slices
	newRouter := func() *Router {
		r := mustRouter(t, Config{SLOms: 20, RTT: testRTT})
		if err := r.RestoreStats(StatsState{Latency: prior.State()}); err != nil {
			t.Fatal(err)
		}
		return r
	}

	// Reference: flush before each Route, then replay that Route's
	// buffered entries through AddN.
	want := metrics.NewQuantileSketch()
	want.AddN(11.5, 2)
	ref := newRouter()
	var entries int
	route(ref, func(sl *Slice, route func()) {
		sl.flushLats()
		route()
		for _, o := range sl.lats[:sl.nlats] {
			want.AddN(o.V, o.N)
		}
		entries += sl.nlats
	})
	// Under test: the buffer flushes on its own.
	r := newRouter()
	route(r, func(_ *Slice, route func()) { route() })

	st := r.Stats()
	if entries <= latBatch || want.Count()-2 != st.Requests-st.Dropped || st.Dropped == 0 || st.Spilled == 0 {
		t.Fatalf("slice too tame: %d entries, %d served of %d, %d dropped, %d spilled",
			entries, want.Count()-2, st.Requests, st.Dropped, st.Spilled)
	}
	for name, got := range map[string]metrics.SketchState{"reference": ref.Stats().Latency.State(), "buffered": st.Latency.State()} {
		exp := want.State()
		if math.Float64bits(got.Sum) != math.Float64bits(exp.Sum) || !reflect.DeepEqual(got, exp) {
			t.Errorf("%s slice latency state diverges from sequential AddN:\ngot  %+v\nwant %+v", name, got, exp)
		}
	}
}

// TestRestoreStatsRejectsCorruptSketch: a checkpoint whose latency
// sketch state is corrupt, at the router level or in one replica's
// aggregates, fails to restore with an error and leaves the router's
// stats untouched.
func TestRestoreStatsRejectsCorruptSketch(t *testing.T) {
	src := mustRouter(t, Config{SLOms: 20, RTT: testRTT, PerReplica: true})
	sl := src.ReuseSlice(testReplicas(), 100)
	sl.Route("Miami", 900, flatCI)
	sl.Close()
	corrupt := []struct {
		name string
		edit func(*metrics.SketchState)
	}{
		{"NaN lowest", func(s *metrics.SketchState) { s.Lowest = math.NaN() }},
		{"+Inf gamma", func(s *metrics.SketchState) { s.Gamma = math.Inf(1) }},
		{"huge bucket count", func(s *metrics.SketchState) { s.NumBkts = 1 << 40 }},
		{"count mismatch", func(s *metrics.SketchState) { s.Count += 5 }},
	}
	for _, tc := range corrupt {
		for _, where := range []string{"router", "replica"} {
			t.Run(tc.name+"/"+where, func(t *testing.T) {
				st := src.Stats().State()
				if where == "router" {
					tc.edit(&st.Latency)
				} else {
					rs := st.Replicas["mia"]
					tc.edit(&rs.Latency)
					st.Replicas["mia"] = rs
				}
				dst := mustRouter(t, Config{SLOms: 20, RTT: testRTT, PerReplica: true})
				if err := dst.RestoreStats(st); err == nil {
					t.Fatal("corrupt sketch state restored")
				}
				if dst.Stats().Requests != 0 || dst.Stats().Latency.Count() != 0 {
					t.Error("failed restore changed the router's stats")
				}
			})
		}
	}
	dst := mustRouter(t, Config{SLOms: 20, RTT: testRTT, PerReplica: true})
	if err := dst.RestoreStats(src.Stats().State()); err != nil {
		t.Fatalf("valid state refused: %v", err)
	}
}
