package main

import (
	"fmt"
	"time"

	"repro/internal/carbon"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/traffic"
)

// Paper reference values for the CDN headline (Figure 11, year-long):
// carbon saving per region and the latency cost bound. They are printed
// beside the measured values as a fidelity gap, never used as a bound.
const (
	paperSavingUSPct = 49.5
	paperSavingEUPct = 67.8
	paperLatencyMs   = 5.5
)

// engineRun is one engine stepped to completion by the benchmark.
type engineRun struct {
	cfg    sim.Config
	steps  []float64 // per-epoch Step wall time, ms
	places []float64 // per-batch solver time, ms
	busy   time.Duration
	res    *sim.Result
	phases []obs.PhaseStat // traced runs only
	snap   *sim.Snapshot   // traced runs only: the final state, for the replays
}

// newEngineRun allocates a run's sample buffers ahead of the timed part.
func newEngineRun(cfg sim.Config) *engineRun {
	return &engineRun{cfg: cfg, steps: make([]float64, 0, cfg.Hours), places: make([]float64, 0, cfg.Hours)}
}

// stepEngine drives e epoch by epoch, timing each Step on the wall
// clock. Placement latency is read from the result's solver clock: the
// SolveTime added by an epoch divided by the batches it ran.
func stepEngine(e *sim.Engine, r *engineRun) error {
	res := e.Finish()
	lastSolve, lastBatches := res.SolveTime, res.Batches
	for !e.Done() {
		t0 := time.Now()
		err := e.Step()
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("step %d: %w", e.Epoch(), err)
		}
		r.steps = append(r.steps, ms(d))
		r.busy += d
		if res.Batches > lastBatches {
			r.places = append(r.places, ms(res.SolveTime-lastSolve)/float64(res.Batches-lastBatches))
			lastSolve, lastBatches = res.SolveTime, res.Batches
		}
	}
	r.res = res
	if t := e.Tracer(); t != nil {
		r.phases = t.Report()
	}
	return nil
}

// checkResult verifies one run's accounting identities: every placement
// is counted once in each of its tallies and lies within the RTT SLO,
// monthly carbon sums to the total, routed requests split exactly into
// served and dropped, and every evicted app is re-placed or lost.
func checkResult(chk *checker, label string, res *sim.Result, rttLimitMs float64) {
	chk.check(res.Placed == res.Latency.N(), "%s: placed %d, latency samples %d", label, res.Placed, res.Latency.N())
	var byCity int64
	for _, c := range res.PlacementsByCity.Labels() {
		byCity += res.PlacementsByCity.Get(c)
	}
	chk.check(byCity == int64(res.Placed), "%s: placements by city %d, placed %d", label, byCity, res.Placed)
	var monthly float64
	for _, g := range res.MonthlyCarbonG {
		monthly += g
	}
	chk.check(near(monthly, res.CarbonG), "%s: monthly carbon %.6f g, total %.6f g", label, monthly, res.CarbonG)
	if res.Placed > 0 {
		chk.check(res.Latency.Max() <= rttLimitMs+1e-9, "%s: placed RTT %.3f ms over the %.1f ms SLO", label, res.Latency.Max(), rttLimitMs)
	}
	if t := res.Traffic; t != nil {
		served := t.Requests - t.Dropped
		missed := served - t.SLOMet
		chk.check(missed >= 0 && t.Spilled <= missed, "%s: requests %d, slo-met %d, spilled %d, dropped %d", label, t.Requests, t.SLOMet, t.Spilled, t.Dropped)
		chk.check(t.Latency.Count() == served, "%s: latency sketch holds %d, served %d", label, t.Latency.Count(), served)
		var byReplica int64
		for _, id := range t.ByReplica.Labels() {
			byReplica += t.ByReplica.Get(id)
		}
		chk.check(byReplica == served, "%s: served by replica %d, served %d", label, byReplica, served)
	}
	if f := res.Faults; f != nil {
		chk.check(f.Evictions == f.Replaced+f.Lost, "%s: evictions %d, replaced %d + lost %d", label, f.Evictions, f.Replaced, f.Lost)
	}
}

// resultDigest fingerprints result states with the solver's wall-clock
// field zeroed.
func resultDigest(states ...sim.ResultState) (string, error) {
	vs := make([]any, len(states))
	for i, st := range states {
		st.SolveTimeNs = 0
		vs[i] = st
	}
	return digestJSON(vs...)
}

// simLayers folds engine runs into the per-layer metrics: the phase
// breakdown, the dispatch self time it leaves, and the traffic, router
// and placement counters.
func simLayers(chk *checker, runs []*engineRun, busy time.Duration) map[string]float64 {
	l := map[string]float64{}
	var phaseNs int64
	var placed, unplaced float64
	for _, r := range runs {
		l["sim.steps"] += float64(len(r.steps))
		chk.check(len(r.phases) == len(simPhases), "traced engine reports %d phases, want %d", len(r.phases), len(simPhases))
		for i, p := range r.phases {
			if i < len(simPhases) {
				chk.check(p.Name == simPhases[i], "engine phase %d is %q, want %q", i, p.Name, simPhases[i])
			}
			l["sim.phase."+p.Name+"_s"] += float64(p.TotalNs) / 1e9
			l["sim.phase."+p.Name+"_calls"] += float64(p.Calls)
			phaseNs += p.TotalNs
		}
		res := r.res
		if t := res.Traffic; t != nil {
			l["traffic.requests"] += float64(t.Requests)
			l["router.spilled"] += float64(t.Spilled)
			l["router.dropped"] += float64(t.Dropped)
		}
		l["placement.solve_s"] += res.SolveTime.Seconds()
		l["placement.batches"] += float64(res.Batches)
		l["placement.migrations"] += float64(res.Migrations)
		placed += float64(res.Placed)
		unplaced += float64(res.Unplaced)
	}
	l["placement.placed_ratio"] = ratio(placed, placed+unplaced)
	l["router.served_ratio"] = ratio(l["traffic.requests"]-l["router.dropped"], l["traffic.requests"])
	l["sim.step_busy_s"] = busy.Seconds()
	l["sim.dispatch_self_s"] = busy.Seconds() - float64(phaseNs)/1e9
	l["sim.phase_coverage_pct"] = ratio(float64(phaseNs)/1e9, busy.Seconds()) * 100
	return l
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cdnBench is the cdn-traffic workload: Figure 11's grid (CarbonEdge and
// Latency-aware, US and Europe) in the request-level traffic mode with
// flash crowds, the four engines run through sweep.Map.
type cdnBench struct{}

func (cdnBench) configs(env *env, traced bool) []sim.Config {
	var cfgs []sim.Config
	for _, region := range []carbon.Region{carbon.RegionUS, carbon.RegionEurope} {
		for _, pol := range []placement.Policy{placement.CarbonAware{}, placement.LatencyAware{}} {
			cfg := sim.DefaultConfig(region, pol)
			cfg.Seed = env.seed
			cfg.Hours = env.size.cdnHours
			cfg.Traffic = &traffic.Config{Scenario: traffic.FlashCrowd, RPS: experiments.TrafficRPS}
			if traced {
				cfg.Obs = &obs.Config{}
			}
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

func (b cdnBench) build(env *env, traced bool) (runner, error) {
	cfgs := b.configs(env, traced)
	engines := make([]*sim.Engine, len(cfgs))
	runs := make([]*engineRun, len(cfgs))
	for i, cfg := range cfgs {
		e, err := sim.NewEngine(cfg, env.world)
		if err != nil {
			return nil, err
		}
		engines[i], runs[i] = e, newEngineRun(cfg)
	}
	return func(chk *checker) (*episode, error) {
		p0 := startProc()
		t0 := time.Now()
		_, err := sweep.Map(env.workers, len(engines), func(i int) (struct{}, error) {
			return struct{}{}, stepEngine(engines[i], runs[i])
		})
		wall := time.Since(t0)
		p1 := endProc()
		if err != nil {
			return nil, err
		}
		if traced {
			for i, e := range engines {
				runs[i].snap = e.Snapshot()
			}
		}
		ep, err := simEpisode(chk, runs, wall, p0, p1, traced)
		if err == nil && traced {
			ep.layers["sweep.parallel_eff"] = ep.busy.Seconds() / (wall.Seconds() * float64(min(env.workers, len(runs))))
		}
		return ep, err
	}, nil
}

// simEpisode assembles an episode from engine runs and checks them.
func simEpisode(chk *checker, runs []*engineRun, wall time.Duration, p0, p1 procSample, traced bool) (*episode, error) {
	ep := &episode{wall: wall, placeMetric: "placement.batch", out: runs, before: p0, after: p1}
	states := make([]sim.ResultState, len(runs))
	for i, r := range runs {
		chk.add(int64(len(r.steps)))
		ep.hours += len(r.steps)
		ep.steps = append(ep.steps, r.steps...)
		ep.places = append(ep.places, r.places...)
		ep.busy += r.busy
		checkResult(chk, fmt.Sprintf("engine %d (%s %s)", i, r.cfg.Region, r.cfg.Policy.Name()), r.res, r.cfg.RTTLimitMs)
		states[i] = r.res.State()
	}
	d, err := resultDigest(states...)
	if err != nil {
		return nil, err
	}
	ep.digest = d
	if traced {
		ep.layers = simLayers(chk, runs, ep.busy)
	}
	return ep, nil
}

func (cdnBench) prepare(*env, *checker) error { return nil }

func (cdnBench) quality(_ *env, ep *episode, _ *checker) (quality, error) {
	runs := ep.out.([]*engineRun)
	q := quality{}
	var met, req int64
	paper := []float64{paperSavingUSPct, paperSavingEUPct}
	for k := 0; k < 2; k++ {
		ce, la := runs[2*k].res, runs[2*k+1].res
		sv := sim.CompareToBaseline(ce, la)
		q.savingPct += sv.CarbonSavingPct / 2
		q.latencyIncMs += sv.LatencyIncreaseMs / 2
		q.carbonKg += ce.CarbonG / 1000
		met += ce.Traffic.SLOMet
		req += ce.Traffic.Requests
		q.lines = append(q.lines, fmt.Sprintf("fidelity %s: carbon saving %.1f%% (paper %.1f%%, gap %+.1f), latency +%.2f ms (paper < %.1f ms, gap %+.2f) over %d h",
			runs[2*k].cfg.Region, sv.CarbonSavingPct, paper[k], sv.CarbonSavingPct-paper[k],
			sv.LatencyIncreaseMs, paperLatencyMs, sv.LatencyIncreaseMs-paperLatencyMs, runs[2*k].cfg.Hours))
	}
	q.sloPct = ratio(float64(met), float64(req)) * 100
	return q, nil
}

func (cdnBench) replay(env *env, ep *episode, layers map[string]float64) error {
	var rs []replaySet
	for _, r := range ep.out.([]*engineRun) {
		rs = append(rs, replaySet{cfg: r.cfg, snap: r.snap})
	}
	return trafficReplay(env, rs, layers)
}

// churnBench is the redeploy-churn workload: one US CarbonEdge engine in
// the classic epoch mode, servers power-managed, a high arrival rate and
// cold hourly redeployment, so the solver does nearly all the work.
type churnBench struct {
	baseline *sim.Result
}

func churnConfig(env *env, pol placement.Policy) sim.Config {
	cfg := sim.DefaultConfig(carbon.RegionUS, pol)
	cfg.Seed = env.seed
	cfg.Hours = env.size.churnHours
	cfg.ServersAlwaysOn = false
	cfg.ArrivalsPerHour = 60
	cfg.RedeployEveryHours = 1
	return cfg
}

func (b *churnBench) build(env *env, traced bool) (runner, error) {
	cfg := churnConfig(env, placement.CarbonAware{})
	if traced {
		cfg.Obs = &obs.Config{}
	}
	e, err := sim.NewEngine(cfg, env.world)
	if err != nil {
		return nil, err
	}
	r := newEngineRun(cfg)
	return func(chk *checker) (*episode, error) {
		p0 := startProc()
		t0 := time.Now()
		err := stepEngine(e, r)
		wall := time.Since(t0)
		p1 := endProc()
		if err != nil {
			return nil, err
		}
		return simEpisode(chk, []*engineRun{r}, wall, p0, p1, traced)
	}, nil
}

// prepare runs the Latency-aware twin the saving is measured against.
func (b *churnBench) prepare(env *env, chk *checker) error {
	cfg := churnConfig(env, placement.LatencyAware{})
	res, err := sim.Run(cfg, env.world)
	if err != nil {
		return fmt.Errorf("latency-aware twin: %w", err)
	}
	checkResult(chk, "latency-aware twin", res, cfg.RTTLimitMs)
	b.baseline = res
	return nil
}

// quality counts an arriving app as meeting its SLO when it is placed
// (placed RTT is checked against the SLO) and as missing it when refused.
func (b *churnBench) quality(_ *env, ep *episode, _ *checker) (quality, error) {
	res := ep.out.([]*engineRun)[0].res
	sv := sim.CompareToBaseline(res, b.baseline)
	return quality{
		carbonKg:     res.CarbonG / 1000,
		savingPct:    sv.CarbonSavingPct,
		latencyIncMs: sv.LatencyIncreaseMs,
		sloPct:       ratio(float64(res.Placed), float64(res.Placed+res.Unplaced)) * 100,
	}, nil
}

// replay has nothing to do: the workload routes no traffic.
func (*churnBench) replay(*env, *episode, map[string]float64) error { return nil }
