package main

import (
	"fmt"
	"time"

	"repro/internal/carbon"
	"repro/internal/deploy"
	"repro/internal/energy"
	"repro/internal/latency"
	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// replaySet is one traffic-mode engine whose request path is replayed
// outside the engine: its config and a snapshot holding its replica set.
type replaySet struct {
	cfg  sim.Config
	snap *sim.Snapshot
}

// addNReplays is how many QuantileSketch.AddN calls the sketch replay
// times; enough for a steady per-call figure at a few milliseconds.
const addNReplays = 200000

// trafficReplay times the traffic request path layer by layer, from
// outside the engine and at each engine's own config: the generator's
// AppendSlice over the run's hours, Slice.RouteAt for every nonzero
// source of those slices over the engine's final replica set, and
// QuantileSketch.AddN over the finite set of (source, replica) latencies.
// The slice and route totals are set against the engines' traced traffic
// phase as an attribution line; the replica set is the one live at the
// end of the run, so the route share is an estimate.
func trafficReplay(env *env, sets []replaySet, layers map[string]float64) error {
	var sliceT, routeT time.Duration
	var slices, routes int64
	var lats []float64
	for _, s := range sets {
		if s.snap == nil || s.cfg.Traffic == nil {
			continue
		}
		cfg := s.cfg
		sites := env.world.Dep.InRegion(cfg.Region)
		wts := sim.ScenarioWeights(sites, cfg.Demand)
		sources := make([]traffic.Source, len(sites))
		for i, site := range sites {
			sources[i] = traffic.Source{City: site.City, Weight: wts[i], Lon: site.Location.Lon}
		}
		tcfg := *cfg.Traffic
		if tcfg.Seed == 0 {
			tcfg.Seed = cfg.Seed
		}
		gen, err := traffic.NewGenerator(tcfg, env.world.Traces.Start.Add(time.Duration(cfg.StartHour)*time.Hour), sources)
		if err != nil {
			return fmt.Errorf("traffic replay: %w", err)
		}
		hourly := make([][]int64, cfg.Hours)
		var buf []int64
		for h := range hourly {
			t0 := time.Now()
			buf = gen.AppendSlice(buf[:0], h)
			sliceT += time.Since(t0)
			hourly[h] = append([]int64(nil), buf...)
		}
		slices += int64(cfg.Hours)

		model := latency.DefaultModel()
		switch cfg.Region {
		case carbon.RegionUS:
			model = latency.USModel()
		case carbon.RegionEurope:
			model = latency.EuropeModel()
		}
		rtt := make([][]float64, len(sites))
		for i := range sites {
			rtt[i] = make([]float64, len(sites))
			for j := range sites {
				if i != j {
					rtt[i][j] = model.RTTMs(sites[i].Location, sites[j].Location)
				}
			}
		}
		replicas, sloMs, err := replicasOf(cfg, sites, s.snap)
		if err != nil {
			return err
		}
		r, err := router.New(router.Config{
			SLOms: sloMs,
			RTT:   func(string, string) float64 { return 0 },
			RTTAt: func(a, b int) float64 { return rtt[a][b] },
		})
		if err != nil {
			return fmt.Errorf("router replay: %w", err)
		}
		intensity := func(string) float64 { return 300 }
		t0 := time.Now()
		for _, slice := range hourly {
			sl := r.ReuseSlice(replicas, 3600)
			for i, n := range slice {
				if n > 0 {
					sl.RouteAt(i, n, intensity)
					routes++
				}
			}
			sl.Close()
		}
		routeT += time.Since(t0)
		for i := range sites {
			for _, rep := range replicas {
				lats = append(lats, rtt[i][rep.Loc]+rep.ServiceMs)
			}
		}
	}
	if slices == 0 || routes == 0 || len(lats) == 0 {
		return fmt.Errorf("traffic replay: no traffic to replay")
	}
	sk := metrics.NewQuantileSketch()
	t0 := time.Now()
	for k := 0; k < addNReplays; k++ {
		sk.AddN(lats[k%len(lats)], int64(1+k%1000))
	}
	addT := time.Since(t0)
	layers["traffic.slice_ns"] = float64(sliceT.Nanoseconds()) / float64(slices)
	layers["router.route_at_ns"] = float64(routeT.Nanoseconds()) / float64(routes)
	layers["metrics.sketch_addn_ns"] = float64(addT.Nanoseconds()) / addNReplays
	layers["traffic.replay_coverage_pct"] = ratio((sliceT+routeT).Seconds(), layers["sim.phase.traffic_s"]) * 100
	return nil
}

// replicasOf rebuilds the router's replica pool from a snapshot's live
// apps the way the engine does: apps sharing (site, model, device)
// aggregate into one replica, capacities summed, in first-occurrence
// order. It also returns the end-to-end SLO the engine routes against:
// the RTT limit plus the slowest service time of the config's pairings.
func replicasOf(cfg sim.Config, sites []*deploy.Site, snap *sim.Snapshot) ([]router.Replica, float64, error) {
	models := cfg.Models
	if len(models) == 0 {
		models = []string{cfg.Model}
	}
	var maxSvc float64
	for _, m := range models {
		for _, d := range cfg.Devices {
			if p, err := energy.ProfileFor(m, d); err == nil && p.InferenceMs > maxSvc {
				maxSvc = p.InferenceMs
			}
		}
	}
	type key struct {
		site          int
		model, device string
	}
	idx := map[key]int{}
	var out []router.Replica
	for _, a := range snap.Live {
		k := key{a.Site, a.Model, a.Device}
		i, ok := idx[k]
		if !ok {
			p, err := energy.ProfileFor(a.Model, a.Device)
			if err != nil {
				return nil, 0, fmt.Errorf("router replay: %w", err)
			}
			site := sites[a.Site]
			i = len(out)
			out = append(out, router.Replica{
				ID: site.City, City: site.City, Loc: a.Site, ZoneID: site.ZoneID,
				ServiceMs: p.InferenceMs, EnergyPerReqJ: p.EnergyPerRequestJ(),
			})
			idx[k] = i
		}
		out[i].CapacityRPS += cfg.RatePerSec
	}
	return out, cfg.RTTLimitMs + maxSvc, nil
}
