// Command cebench is the repository benchmark. It runs one named
// workload at a seed for a fixed measuring time, checks the program's
// outputs, and prints every metric with its unit and sample count,
// ending with one JSON line:
//
//	bash cebench/run.sh --workload cdn-traffic --seed 1 --seconds 15 --trace 0
//
// Workloads, and why each is in the set:
//
//   - cdn-traffic: Figure 11's grid in the request-level traffic mode
//     (CarbonEdge and Latency-aware, US and Europe, flash crowds) through
//     sweep.Map. The traffic, router and quantile-sketch layers do most
//     of the work and the solver little; it carries the paper's headline
//     quality numbers.
//   - redeploy-churn: one US CarbonEdge engine in the classic epoch mode
//     with power-managed servers, a high arrival rate and cold hourly
//     redeployment. The solver does nearly all the work and the request
//     path none: the bypass workload for request-path changes, and the
//     single-goroutine one where solver parallelism would show.
//   - sharded-checkpoint: the US flash-crowd workload with a site crash,
//     as 4 shards with exchange, checkpointed and restored every week of
//     rounds. It uses the engine layers partitioned and across barriers
//     with the checkpoint codec beside them, and exposes the sharding
//     quality gap against an unsharded reference.
//   - live-orchestrator: a closed loop with one client and one connection
//     against the orchestrator's HTTP API on the Central-EU testbed with
//     diurnal traffic: the orchestrator, cluster, testbed and HTTP/JSON
//     layers no other workload reaches.
//
// A workload's unit of work is an episode: a fixed, seed-determined run
// (engines, coordinator or testbed built, then driven to the end). The
// benchmark repeats episodes until the measuring time is spent and
// reports medians over them, the step and placement percentiles over the
// wall-clock samples of all of them; every episode must reproduce the
// first one's digest. Each episode starts on a freshly collected heap,
// and the collections the benchmark forces stay out of its timings and
// counters. Set-up (world build plus the first episode's construction)
// is repeated setupReps times on worlds of distinct derived seeds, so no
// cache of an earlier set-up can serve a later one, and its median is
// setup_s.
//
// The end-to-end timings (setup_s, wall_s, sim_hours_per_s) are scaled
// to the reference machine's speed by a kernel timed right before each
// set-up and on either side of each episode (calib.go); the unscaled
// values are printed beside them. Per-layer timings are not scaled.
//
// With --trace 1 episodes alternate untraced and traced (sim.Config.Obs);
// the traced ones give the per-layer metrics, the untraced ones the
// tracing overhead, and both must agree on the digest. Layers are timed
// from outside, around the benchmark's own calls into public functions,
// and from the telemetry the program already exposes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/carbon"
	"repro/internal/deploy"
	"repro/internal/latency"
	"repro/internal/rng"
	"repro/internal/sim"
)

// sizes fixes how much work one episode does.
type sizes struct {
	setupReps   int
	minEpisodes int
	// minSamples is the least number of epoch and of placement samples
	// the untraced episodes of a run (and the traced ones) pool, so that
	// ten lie beyond a p99.
	minSamples int
	cdnHours   int
	churnHours int
	shardHours int
	ckptEvery  int // sharded-checkpoint rounds between checkpoints
	liveHours  int
}

// fullSize is the benchmark's size: 13 weeks of the CDN and sharded
// workloads (the sharded crash at hour 72 included), a week of hourly
// redeploys, six weeks of the live loop, a checkpoint every simulated
// week.
var fullSize = sizes{
	setupReps:   5,
	minEpisodes: 4,
	minSamples:  1000,
	cdnHours:    13 * 168,
	churnHours:  168,
	shardHours:  13 * 168,
	ckptEvery:   168,
	liveHours:   6 * 168,
}

// worldSeed fixes the world the workloads run against: the zone
// registry and carbon-intensity traces, cmd/cesim's default dataset. The
// world stands in for the measured dataset the paper replays, so it does
// not move with --seed; the seed drives the workload (arrivals, request
// traffic, the live client's recipe stream).
const worldSeed = 42

// coverageFloor is the share of a total its parts must account for
// before an attribution line is flagged (ROADMAP's 95%).
const coverageFloor = 95

type env struct {
	seed    int64
	world   *sim.World
	size    sizes
	workers int
}

// episode is one run of a workload's fixed unit of work.
type episode struct {
	traced bool
	wall   time.Duration
	kernel time.Duration // the reference kernel's mean time right before and after
	hours  int           // engine-hours (or emulated hours) simulated
	steps  []float64     // per-epoch wall time, ms
	places []float64     // per-placement-decision time, ms
	// placeMetric names the per-layer metrics the places pool into: a
	// solver batch or the orchestrator's HTTP /place round trip.
	placeMetric string
	busy        time.Duration
	digest      string
	// exact is set when digest is a rounded form: the exact-bits digest,
	// whose drift between episodes is reported, not failed.
	exact  string
	layers map[string]float64 // traced episodes only
	out    any                // workload outputs the quality step reads
	// before and after are the process counters read around the timed
	// part (startProc, endProc), so the benchmark's own checks are not
	// charged to it.
	before, after procSample
}

type runner func(chk *checker) (*episode, error)

// quality is a workload's outcome metrics; deterministic at a seed.
type quality struct {
	carbonKg, savingPct, latencyIncMs, sloPct float64
	layers                                    map[string]float64
	lines                                     []string
}

// bench is one workload.
type bench interface {
	// build constructs one episode on env.world; its cost is set-up.
	build(env *env, traced bool) (runner, error)
	// prepare runs the untimed reference runs quality needs.
	prepare(env *env, chk *checker) error
	quality(env *env, ep *episode, chk *checker) (quality, error)
	// replay times single-layer operations at the workload's config.
	replay(env *env, ep *episode, layers map[string]float64) error
}

var workloads = []string{"cdn-traffic", "redeploy-churn", "sharded-checkpoint", "live-orchestrator"}

func newBench(name string) (bench, error) {
	switch name {
	case "cdn-traffic":
		return cdnBench{}, nil
	case "redeploy-churn":
		return &churnBench{}, nil
	case "sharded-checkpoint":
		return &shardBench{}, nil
	case "live-orchestrator":
		return &liveBench{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloads, ", "))
}

// report is one benchmark run's outcome.
type report struct {
	lines     []string
	metrics   map[string]float64
	units     map[string]string
	digest    string
	attempted int64
	failed    int64
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// set records a reported metric.
func (r *report) set(defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		r.metrics[d.name] = vals[d.name]
		r.units[d.name] = d.unit
	}
}

// runBench runs one workload for about seconds of measuring time.
func runBench(name string, seed int64, seconds float64, trace bool, size sizes) (*report, error) {
	b, err := newBench(name)
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	chk := &checker{}
	rep := &report{metrics: map[string]float64{}, units: map[string]string{}}
	rep.printf("workload %s seed %d trace %v workers %d", name, seed, trace, workers)

	// Set-up, repeated on worlds of distinct dataset seeds so no cache of
	// an earlier set-up serves a later one; the first world is the run's.
	// The first set-up's live heap growth is the footprint of the world
	// and the built workload, which heap_live_mb starts from.
	var ev *env
	var first runner
	var setupS, setupRaw, buildS []float64
	var kernels []time.Duration
	var setupHeap float64
	for i := 0; i < size.setupReps; i++ {
		wseed := int64(worldSeed)
		if i > 0 {
			wseed = rng.MixSeed(worldSeed, int64(i))
		}
		k := timeKernel()
		kernels = append(kernels, k)
		h0 := liveHeap()
		t0 := time.Now()
		w, err := sim.NewWorld(wseed)
		tw := time.Since(t0)
		if err != nil {
			return nil, err
		}
		e := &env{seed: seed, world: w, size: size, workers: workers}
		t1 := time.Now()
		r, err := b.build(e, false)
		tb := time.Since(t1)
		if err != nil {
			return nil, fmt.Errorf("build: %w", err)
		}
		setupS = append(setupS, scaled(tw+tb, k))
		setupRaw = append(setupRaw, (tw + tb).Seconds())
		buildS = append(buildS, tb.Seconds())
		if i == 0 {
			ev, first = e, r
			setupHeap = float64(liveHeap()) - float64(h0)
		}
	}
	if err := b.prepare(ev, chk); err != nil {
		return nil, err
	}

	// Measured episodes.
	var eps []*episode
	drift := 0
	start := time.Now()
	for k := 0; k == 0 || len(eps) < size.minEpisodes || time.Since(start).Seconds() < seconds || fewSamples(eps, trace, size.minSamples); k++ {
		traced := trace && k%2 == 1
		run := first
		if k > 0 {
			t0 := time.Now()
			if run, err = b.build(ev, traced); err != nil {
				return nil, fmt.Errorf("build: %w", err)
			}
			buildS = append(buildS, time.Since(t0).Seconds())
		}
		kern := timeKernel()
		kernels = append(kernels, kern)
		ep, err := run(chk)
		if err != nil {
			return nil, err
		}
		ep.traced, ep.kernel = traced, kern
		p0, p1 := ep.before, ep.after
		if traced {
			ep.layers["proc.cpu_util"] = (p1.cpu - p0.cpu).Seconds() / (ep.wall.Seconds() * float64(runtime.NumCPU()))
			ep.layers["runtime.alloc_bytes_per_hour"] = float64(p1.mem.TotalAlloc-p0.mem.TotalAlloc) / float64(ep.hours)
			ep.layers["runtime.gc_cycles"] = float64(p1.mem.NumGC - p0.mem.NumGC)
			ep.layers["runtime.gc_pause_s"] = float64(p1.mem.PauseTotalNs-p0.mem.PauseTotalNs) / 1e9
		}
		if len(eps) > 0 {
			chk.check(ep.digest == eps[0].digest, "episode %d digest %s (traced %v), first episode %s", k, ep.digest, traced, eps[0].digest)
			chk.check(len(ep.steps) == len(eps[0].steps), "episode %d ran %d epochs, first episode %d", k, len(ep.steps), len(eps[0].steps))
			if ep.exact != eps[0].exact {
				drift++
			}
		}
		eps = append(eps, ep)
	}
	// Scale each episode by the mean of the kernel runs on either side.
	last := timeKernel()
	kernels = append(kernels, last)
	for i, ep := range eps {
		next := last
		if i+1 < len(eps) {
			next = eps[i+1].kernel
		}
		ep.kernel = (ep.kernel + next) / 2
	}
	rep.digest = eps[0].digest
	q, err := b.quality(ev, eps[0], chk)
	if err != nil {
		return nil, err
	}

	var plain, tracedEps []*episode
	for _, ep := range eps {
		if ep.traced {
			tracedEps = append(tracedEps, ep)
		} else {
			plain = append(plain, ep)
		}
	}
	// The live heap an episode ends with is the set-up's footprint plus
	// what the episode added. Measured as a difference, it leaves out
	// what the benchmark itself holds (reference runs, earlier episodes'
	// outputs).
	var grown []float64
	for _, ep := range plain {
		grown = append(grown, float64(ep.after.live)-float64(ep.before.live))
	}
	e2e := endToEndValues(plain, setupS, (setupHeap+median(grown))/(1<<20), q)
	rep.printf("digest %s over %d episodes (%d traced)", rep.digest, len(eps), len(tracedEps))
	var walls []string
	for _, ep := range eps {
		walls = append(walls, fmt.Sprintf("%.3f", ep.wall.Seconds()))
	}
	rep.printf("episode wall s: %s", strings.Join(walls, " "))
	var rawWalls, kernelMs []float64
	for _, ep := range plain {
		rawWalls = append(rawWalls, ep.wall.Seconds())
	}
	for _, k := range kernels {
		kernelMs = append(kernelMs, ms(k))
	}
	rep.printf("unscaled: wall_s %.6g (median of %d episodes), setup_s %.6g (median of %d set-ups); reference kernel %.6g ms (median of %d, reference machine %.6g ms)",
		median(rawWalls), len(rawWalls), median(setupRaw), len(setupRaw), median(kernelMs), len(kernelMs), ms(refKernel))
	if eps[0].exact != "" {
		rep.printf("known defect: exact state digest drifted from the first episode's in %d of %d later episodes (float sums in map order)", drift, len(eps)-1)
	}
	rep.printf("live heap: set-up footprint %.6g MB, episode growth median %.6g MB (min %.6g, max %.6g)",
		setupHeap/(1<<20), median(grown)/(1<<20), slices.Min(grown)/(1<<20), slices.Max(grown)/(1<<20))
	steps, places := pooled(plain)
	for _, d := range endToEnd {
		rep.printf("%-22s %14.6g %-4s %s", d.name, e2e[d.name], d.unit, samplesNote(d.name, len(plain), len(setupS)))
	}
	rep.printf("step latency p50 %.6g ms, p99 %.6g ms %s (all epochs of %d episodes, wall clock; per-layer)",
		quantile(steps, 0.5), quantile(steps, 0.99), percentileNote(steps), len(plain))
	rep.printf("%s latency p50 %.6g ms, p99 %.6g ms %s (wall clock; per-layer)", eps[0].placeMetric,
		quantile(places, 0.5), quantile(places, 0.99), percentileNote(places))
	for _, l := range q.lines {
		rep.printf("%s", l)
	}

	if !trace {
		rep.set(endToEnd, e2e)
	} else {
		layers := layerValues(tracedEps)
		for k, v := range q.layers {
			layers[k] = v
		}
		tracedSteps, tracedPlaces := pooled(tracedEps)
		layers["sim.step_p50_ms"] = quantile(tracedSteps, 0.5)
		layers["sim.step_p99_ms"] = quantile(tracedSteps, 0.99)
		layers[eps[0].placeMetric+"_p50_ms"] = quantile(tracedPlaces, 0.5)
		layers[eps[0].placeMetric+"_p99_ms"] = quantile(tracedPlaces, 0.99)
		synth, regen, other, err := setupPieces(size.setupReps)
		if err != nil {
			return nil, err
		}
		layers["carbon.trace_synth_s"] = synth
		layers["carbon.trace_regen_ratio"] = regen
		layers["carbon.zones"] = float64(ev.world.Zones.Len())
		layers["setup.world_other_s"] = other
		layers["setup.build_s"] = median(buildS)
		layers["setup.coverage_pct"] = ratio(synth+other+median(buildS), median(setupRaw)) * 100
		if err := b.replay(ev, tracedEps[0], layers); err != nil {
			return nil, err
		}
		var rateP, rateT []float64
		for _, ep := range plain {
			rateP = append(rateP, float64(ep.hours)/scaled(ep.wall, ep.kernel))
		}
		for _, ep := range tracedEps {
			rateT = append(rateT, float64(ep.hours)/scaled(ep.wall, ep.kernel))
		}
		layers["orchestrator.exact_drift_ratio"] = ratio(float64(drift), float64(len(eps)-1))
		layers["trace.overhead_pct"] = (ratio(median(rateP), median(rateT)) - 1) * 100
		rep.set(perLayer, layers)
		for _, d := range perLayer {
			rep.printf("%-36s %14.6g %s", d.name, layers[d.name], d.unit)
		}
		rep.attribution(layers)
	}
	rep.attempted, rep.failed = chk.attempted, chk.failed
	rep.printf("failed_frac %.6g (%d failed of %d attempted)", ratio(float64(chk.failed), float64(chk.attempted)), chk.failed, chk.attempted)
	for _, n := range chk.notes {
		rep.printf("FAILED: %s", n)
	}
	return rep, nil
}

// endToEndValues computes the end-to-end metrics from the untraced
// episodes: medians per episode.
func endToEndValues(plain []*episode, setupS []float64, heapMB float64, q quality) map[string]float64 {
	var walls, rates, allocs []float64
	for _, ep := range plain {
		w := scaled(ep.wall, ep.kernel)
		walls = append(walls, w)
		rates = append(rates, float64(ep.hours)/w)
		allocs = append(allocs, float64(ep.after.mem.Mallocs-ep.before.mem.Mallocs)/float64(ep.hours))
	}
	return map[string]float64{
		"setup_s":             median(setupS),
		"wall_s":              median(walls),
		"sim_hours_per_s":     median(rates),
		"allocs_per_hour":     median(allocs),
		"heap_live_mb":        heapMB,
		"carbon_kg":           q.carbonKg,
		"carbon_saving_pct":   q.savingPct,
		"latency_increase_ms": q.latencyIncMs,
		"slo_pct":             q.sloPct,
	}
}

// pooled returns the epoch and placement samples of all the episodes.
func pooled(eps []*episode) (steps, places []float64) {
	for _, ep := range eps {
		steps = append(steps, ep.steps...)
		places = append(places, ep.places...)
	}
	return steps, places
}

// fewSamples reports whether the untraced episodes, or with trace the
// traced ones, pool fewer than n epoch or placement samples.
func fewSamples(eps []*episode, trace bool, n int) bool {
	var plain, traced []*episode
	for _, ep := range eps {
		if ep.traced {
			traced = append(traced, ep)
		} else {
			plain = append(plain, ep)
		}
	}
	for _, set := range [][]*episode{plain, traced} {
		steps, places := pooled(set)
		if len(steps) < n || len(places) < n {
			return true
		}
		if !trace {
			break
		}
	}
	return false
}

// samplesNote states how many samples a metric rests on.
func samplesNote(name string, episodes, setups int) string {
	switch name {
	case "setup_s":
		return fmt.Sprintf("(median of %d set-ups)", setups)
	case "carbon_kg", "carbon_saving_pct", "latency_increase_ms", "slo_pct":
		return "(deterministic at the seed)"
	case "heap_live_mb":
		return fmt.Sprintf("(first set-up's footprint + median growth of %d episodes)", episodes)
	}
	return fmt.Sprintf("(median of %d episodes)", episodes)
}

// percentileNote states a p99's sample count and how many samples lie
// beyond it, flagging fewer than ten.
func percentileNote(xs []float64) string {
	beyond := 0
	p := quantile(xs, 0.99)
	for _, x := range xs {
		if x > p {
			beyond++
		}
	}
	note := fmt.Sprintf("(n=%d, %d beyond p99)", len(xs), beyond)
	if beyond < 10 {
		note += " << fewer than 10 beyond p99"
	}
	return note
}

// layerValues takes the median of each per-layer metric over the traced
// episodes.
func layerValues(eps []*episode) map[string]float64 {
	vals := map[string][]float64{}
	for _, ep := range eps {
		for k, v := range ep.layers {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

// attribution prints how far the parts account for the totals: set-up
// pieces against setup_s, phases against step busy time, and the traffic
// replays against the traffic phase. Reported, not gated.
func (r *report) attribution(l map[string]float64) {
	line := func(what string, pct float64) {
		flag := ""
		if pct < coverageFloor {
			flag = fmt.Sprintf("  << below %d%%", coverageFloor)
		}
		r.printf("attribution %-48s %6.1f%%%s", what, pct, flag)
	}
	line("setup: synthesis + other world + build of unscaled set-up", l["setup.coverage_pct"])
	line("step: traced phases of step busy time", l["sim.phase_coverage_pct"])
	r.printf("attribution %-48s %6.1f%%", "step: dispatch self time of step busy time", ratio(l["sim.dispatch_self_s"], l["sim.step_busy_s"])*100)
	if l["traffic.replay_coverage_pct"] > 0 {
		line("traffic: slice + route replays of traffic phase", l["traffic.replay_coverage_pct"])
	}
	r.printf("tracing overhead %.2f%% (untraced vs traced sim_hours_per_s)", l["trace.overhead_pct"])
}

// setupPieces times sim.NewWorld's pieces from outside, on reps worlds
// of dataset seeds no set-up used (so the trace memo is as cold as it
// was for set-up): zone registry, city registry and deployment together,
// then trace synthesis twice with one generator. It returns the medians
// of the synthesis time, of the second call's time as a share of the
// first's, and of the other pieces' time.
func setupPieces(reps int) (synth, regen, other float64, err error) {
	var synths, regens, others []float64
	for i := 0; i < reps; i++ {
		seed := rng.MixSeed(worldSeed, int64(reps+i))
		t0 := time.Now()
		zones, err := carbon.DefaultRegistry(seed)
		if err != nil {
			return 0, 0, 0, err
		}
		cities, err := latency.DefaultCityRegistry()
		if err != nil {
			return 0, 0, 0, err
		}
		if _, err := deploy.Generate(deploy.DefaultOptions(), zones, cities); err != nil {
			return 0, 0, 0, err
		}
		others = append(others, time.Since(t0).Seconds())
		g := carbon.NewGenerator(seed)
		t0 = time.Now()
		a := g.GenerateTraces(zones)
		t1 := time.Since(t0)
		t0 = time.Now()
		b := g.GenerateTraces(zones)
		t2 := time.Since(t0)
		if len(a.ZoneIDs()) != zones.Len() || len(b.ZoneIDs()) != zones.Len() {
			return 0, 0, 0, fmt.Errorf("trace synthesis: %d and %d traces for %d zones", len(a.ZoneIDs()), len(b.ZoneIDs()), zones.Len())
		}
		synths = append(synths, t1.Seconds())
		regens = append(regens, t2.Seconds()/t1.Seconds())
	}
	return median(synths), median(regens), median(others), nil
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "cebench: --trace must be 0 or 1")
		os.Exit(2)
	}
	rep, err := runBench(*workload, *seed, *seconds, *trace == 1, fullSize)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cebench:", err)
		os.Exit(1)
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for k, v := range rep.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "cebench: metric %s is not a number\n", k)
			os.Exit(1)
		}
		res.Metrics[k] = metricValue{Value: v, Unit: rep.units[k]}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
