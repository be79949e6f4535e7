package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/carbon"
	"repro/internal/checkpoint"
	"repro/internal/events"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// shardCount is the partition width of the sharded-checkpoint workload:
// the width at which ROADMAP measured the sharding quality gap.
const shardCount = 4

// Reference values for the sharding gap, measured over a year at 4
// shards and recorded in ROADMAP; printed beside the measured gap.
const (
	roadmapInflationPct   = 48
	roadmapCarbonDeltaPct = 10
)

// shardBench is the sharded-checkpoint workload: the US flash-crowd
// traffic workload with a crash of the heaviest site, run as 4 shards
// with cross-shard exchange, checkpointed every ckptEvery rounds through
// Snapshot, Encode, Decode and NewFrom and continued on the restored
// coordinator. An unsharded run of the same config is the reference the
// sharding gap is measured against.
type shardBench struct {
	ref, refLA *sim.Result
	refCfg     sim.Config
	refSnap    *sim.Snapshot
	// plainDigest is the digest of an uninterrupted 4-shard run, which a
	// checkpointed run must reproduce.
	plainDigest string
}

// shardBase is the region-level config the shards jointly execute.
func shardBase(env *env, pol placement.Policy) sim.Config {
	cfg := sim.DefaultConfig(carbon.RegionUS, pol)
	cfg.Seed = env.seed
	cfg.Hours = env.size.shardHours
	cfg.Traffic = &traffic.Config{Scenario: traffic.FlashCrowd, RPS: experiments.TrafficRPS}
	sites := env.world.Dep.InRegion(cfg.Region)
	wts := sim.ScenarioWeights(sites, cfg.Demand)
	heaviest := 0
	for i, w := range wts {
		if w > wts[heaviest] {
			heaviest = i
		}
	}
	cfg.Faults = &events.FaultScript{Faults: []events.Fault{
		{At: 72 * time.Hour, Kind: events.FaultCrash, Site: sites[heaviest].City, For: 24 * time.Hour},
	}}
	return cfg
}

func shardConfig(env *env, base sim.Config) shard.Config {
	return shard.Config{Base: base, Shards: shardCount, Exchange: true, Workers: min(shardCount, env.workers)}
}

// checkpointCost is one checkpoint round trip's timings.
type checkpointCost struct {
	snapshot, encode, decode, restore time.Duration
	bytes                             int
}

// roundTrip checkpoints c and returns the coordinator restored from the
// decoded bytes.
func roundTrip(c *shard.Coordinator, cfg shard.Config, w *sim.World) (*shard.Coordinator, checkpointCost, error) {
	var cost checkpointCost
	t0 := time.Now()
	snap, err := c.Snapshot()
	cost.snapshot = time.Since(t0)
	if err != nil {
		return nil, cost, err
	}
	var buf bytes.Buffer
	t0 = time.Now()
	err = checkpoint.Encode(&buf, shard.SnapshotKind, snap)
	cost.encode = time.Since(t0)
	if err != nil {
		return nil, cost, err
	}
	cost.bytes = buf.Len()
	var back shard.Snapshot
	t0 = time.Now()
	err = checkpoint.Decode(&buf, shard.SnapshotKind, &back)
	cost.decode = time.Since(t0)
	if err != nil {
		return nil, cost, err
	}
	t0 = time.Now()
	restored, err := shard.NewFrom(cfg, w, &back)
	cost.restore = time.Since(t0)
	return restored, cost, err
}

// solverClock sums the shards' solver time and batch counts.
func solverClock(c *shard.Coordinator) (time.Duration, int) {
	var d time.Duration
	var n int
	for _, r := range c.Results() {
		d += r.SolveTime
		n += r.Batches
	}
	return d, n
}

// addPhases folds a phase report into acc by phase name.
func addPhases(acc map[string]obs.PhaseStat, ps []obs.PhaseStat) {
	for _, p := range ps {
		a := acc[p.Name]
		a.Name = p.Name
		a.Calls += p.Calls
		a.TotalNs += p.TotalNs
		acc[p.Name] = a
	}
}

// shardOut is one sharded episode's merged outcome.
type shardOut struct {
	merged sim.ResultState
	stats  shard.ExchangeStats
}

func (b *shardBench) build(env *env, traced bool) (runner, error) {
	base := shardBase(env, placement.CarbonAware{})
	if traced {
		base.Obs = &obs.Config{}
	}
	cfg := shardConfig(env, base)
	c, err := shard.New(cfg, env.world)
	if err != nil {
		return nil, err
	}
	steps := make([]float64, 0, base.Hours)
	places := make([]float64, 0, base.Hours)
	costs := make([]checkpointCost, 0, base.Hours/env.size.ckptEvery)
	return func(chk *checker) (*episode, error) {
		ep := &episode{steps: steps, places: places, placeMetric: "placement.batch"}
		phases := map[string]obs.PhaseStat{}
		lastSolve, lastBatches := solverClock(c)
		rounds := 0
		var roundCPU time.Duration
		ep.before = startProc()
		t0 := time.Now()
		for !c.Done() {
			t, c0 := time.Now(), processCPU()
			err := c.RunRound()
			d, cpu := time.Since(t), processCPU()-c0
			if err != nil {
				return nil, fmt.Errorf("round %d: %w", c.Round(), err)
			}
			rounds++
			ep.steps = append(ep.steps, ms(d))
			ep.busy += d
			roundCPU += cpu
			if solve, batches := solverClock(c); batches > lastBatches {
				ep.places = append(ep.places, ms(solve-lastSolve)/float64(batches-lastBatches))
				lastSolve, lastBatches = solve, batches
			}
			if rounds%env.size.ckptEvery != 0 || c.Done() {
				continue
			}
			if traced {
				ps, err := c.MergedPhases()
				if err != nil {
					return nil, err
				}
				addPhases(phases, ps)
			}
			round := c.Round()
			restored, cost, err := roundTrip(c, cfg, env.world)
			if err != nil {
				return nil, fmt.Errorf("checkpoint at round %d: %w", round, err)
			}
			chk.check(restored.Round() == round, "restored coordinator at round %d, checkpointed at %d", restored.Round(), round)
			costs = append(costs, cost)
			c = restored
		}
		ep.wall = time.Since(t0)
		ep.after = endProc()
		chk.add(int64(rounds + len(costs)))
		ep.hours = base.Hours * shardCount
		merged, err := c.MergedState()
		if err != nil {
			return nil, err
		}
		res, err := merged.Restore()
		if err != nil {
			return nil, err
		}
		checkResult(chk, "merged shards", res, base.RTTLimitMs)
		stats := c.Stats()
		if ep.digest, err = resultDigestWith(merged, stats); err != nil {
			return nil, err
		}
		ep.out = shardOut{merged: merged, stats: stats}
		if !traced {
			return ep, nil
		}
		ps, err := c.MergedPhases()
		if err != nil {
			return nil, err
		}
		addPhases(phases, ps)
		var phaseList []obs.PhaseStat
		for _, name := range simPhases {
			phaseList = append(phaseList, phases[name])
		}
		chk.check(len(phases) == len(simPhases), "sharded engines report %d phases, want %d", len(phases), len(simPhases))
		// Rounds step the shards on cfg.Workers goroutines, so the busy
		// time the phases are set against is worker-seconds.
		workerBusy := time.Duration(cfg.Workers) * ep.busy
		ep.layers = simLayers(chk, []*engineRun{{res: res, steps: ep.steps, phases: phaseList}}, workerBusy)
		ep.layers["shard.round_busy_s"] = ep.busy.Seconds()
		ep.layers["shard.messages"] = float64(stats.Messages)
		ep.layers["shard.spill_requests"] = float64(stats.SpillRequests)
		// The process CPU time the rounds used (the shards' stepping on
		// every worker, plus the barriers' exchange and the collector)
		// over the worker-seconds the rounds had.
		ep.layers["shard.parallel_eff"] = ratio(roundCPU.Seconds(), workerBusy.Seconds())
		var snapMs, encMs, decMs, resMs, size []float64
		var codec time.Duration
		for _, k := range costs {
			codec += k.snapshot + k.encode + k.decode + k.restore
			snapMs = append(snapMs, ms(k.snapshot))
			encMs = append(encMs, ms(k.encode))
			decMs = append(decMs, ms(k.decode))
			resMs = append(resMs, ms(k.restore))
			size = append(size, float64(k.bytes))
		}
		ep.layers["checkpoint.snapshot_ms"] = median(snapMs)
		ep.layers["checkpoint.encode_ms"] = median(encMs)
		ep.layers["checkpoint.decode_ms"] = median(decMs)
		ep.layers["checkpoint.restore_ms"] = median(resMs)
		ep.layers["checkpoint.bytes"] = median(size)
		ep.layers["checkpoint.share_pct"] = ratio(codec.Seconds(), ep.wall.Seconds()) * 100
		return ep, nil
	}, nil
}

// resultDigestWith fingerprints a merged result (solver clock zeroed)
// together with the exchange telemetry.
func resultDigestWith(st sim.ResultState, stats shard.ExchangeStats) (string, error) {
	st.SolveTimeNs = 0
	return digestJSON(st, stats)
}

// prepare runs the references: the unsharded CarbonEdge run the sharding
// gap is measured against (kept with its final replica set for the
// traffic replay), its Latency-aware twin, and an uninterrupted 4-shard
// run the checkpointed episodes must reproduce.
func (b *shardBench) prepare(env *env, chk *checker) error {
	b.refCfg = shardBase(env, placement.CarbonAware{})
	e, err := sim.NewEngine(b.refCfg, env.world)
	if err != nil {
		return fmt.Errorf("unsharded reference: %w", err)
	}
	r := newEngineRun(b.refCfg)
	if err := stepEngine(e, r); err != nil {
		return fmt.Errorf("unsharded reference: %w", err)
	}
	chk.add(int64(len(r.steps)))
	b.ref, b.refSnap = r.res, e.Snapshot()
	checkResult(chk, "unsharded reference", b.ref, b.refCfg.RTTLimitMs)

	laCfg := shardBase(env, placement.LatencyAware{})
	if b.refLA, err = sim.Run(laCfg, env.world); err != nil {
		return fmt.Errorf("latency-aware twin: %w", err)
	}
	checkResult(chk, "latency-aware twin", b.refLA, laCfg.RTTLimitMs)

	c, err := shard.New(shardConfig(env, shardBase(env, placement.CarbonAware{})), env.world)
	if err != nil {
		return err
	}
	if err := c.Run(); err != nil {
		return fmt.Errorf("uninterrupted shards: %w", err)
	}
	merged, err := c.MergedState()
	if err != nil {
		return err
	}
	b.plainDigest, err = resultDigestWith(merged, c.Stats())
	return err
}

func (b *shardBench) quality(_ *env, ep *episode, chk *checker) (quality, error) {
	out := ep.out.(shardOut)
	chk.check(ep.digest == b.plainDigest, "checkpointed run digest %s, uninterrupted run %s", ep.digest, b.plainDigest)
	res, err := out.merged.Restore()
	if err != nil {
		return quality{}, err
	}
	sv := sim.CompareToBaseline(res, b.refLA)
	t, rt := res.Traffic, b.ref.Traffic
	inflation := (ratio(float64(t.Requests), float64(rt.Requests)) - 1) * 100
	carbonDelta := (ratio(res.CarbonG, b.ref.CarbonG) - 1) * 100
	return quality{
		carbonKg:     res.CarbonG / 1000,
		savingPct:    sv.CarbonSavingPct,
		latencyIncMs: sv.LatencyIncreaseMs,
		sloPct:       ratio(float64(t.SLOMet), float64(t.Requests)) * 100,
		layers: map[string]float64{
			"shard.request_inflation_pct": inflation,
			"shard.carbon_delta_pct":      carbonDelta,
		},
		lines: []string{
			fmt.Sprintf("sharding gap at %d shards over %d h: requests %d vs %d unsharded (%+.1f%%; ROADMAP year: %+d%%), carbon %.1f vs %.1f kg (%+.1f%%; ROADMAP year: %+d%%), SLO %.1f%% vs %.1f%%",
				shardCount, b.refCfg.Hours, t.Requests, rt.Requests, inflation, roadmapInflationPct,
				res.CarbonG/1000, b.ref.CarbonG/1000, carbonDelta, roadmapCarbonDeltaPct,
				ratio(float64(t.SLOMet), float64(t.Requests))*100, ratio(float64(rt.SLOMet), float64(rt.Requests))*100),
		},
	}, nil
}

func (b *shardBench) replay(env *env, _ *episode, layers map[string]float64) error {
	return trafficReplay(env, []replaySet{{cfg: b.refCfg, snap: b.refSnap}}, layers)
}
