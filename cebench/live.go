package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/orchestrator"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

// The live-orchestrator client's load, taken from what the repository
// already runs against the testbed rather than chosen for the benchmark.
// Every DC hosts one app at a time, sourced at its own city, with the
// rate, SLO and one-day life of the testbed day experiment
// (testbed.RunDay as Figures 8-10 and the overhead study call it: 10
// req/s, 20 ms, 24 hours), running the two models Figure 10 runs in
// turn. When an app's day ends the client deletes it and submits the
// DC's next one; the DCs' first start hours are drawn from the seed, so
// submissions spread over the day. The attached traffic is cmd/carbonedge's default
// workload: 40 rps aggregate against a 40 ms end-to-end SLO.
const (
	liveRatePerSec   = 10
	liveSLOms        = 20
	liveLifeHours    = 24
	liveRPS          = 40
	liveTrafficSLOms = 40
)

var liveModels = []string{energy.ModelSci, energy.ModelResNet50}

// liveBench is the live-orchestrator workload: a closed loop with one
// client against the orchestrator's HTTP API on the Central-EU testbed,
// with diurnal traffic attached. Each emulated hour the client deletes
// the deployments whose day has ended, submits the recipes due, asks for
// a placement batch when it submitted any, and advances the clock one
// hour; once a day it downloads the state.
type liveBench struct {
	baseline liveOut
}

// liveOut is one episode's outcome.
type liveOut struct {
	carbonG    float64
	appCarbonG float64
	rttSum     float64
	placed     int
	rejected   int
	sloPct     float64
	digest     string
	exact      string
}

// liveRecipes draws the episode's recipe stream from the seed: the
// recipes submitted in each emulated hour.
func liveRecipes(seed int64, hours int) [][]orchestrator.Recipe {
	r := rng.NewStd(seed)
	dcs := testbed.CentralEU().DCs
	starts := make([]int, len(dcs))
	for i := range starts {
		starts[i] = r.Intn(liveLifeHours)
	}
	out := make([][]orchestrator.Recipe, hours)
	for day := 0; day*liveLifeHours < hours; day++ {
		for i, dc := range dcs {
			h := starts[i] + day*liveLifeHours
			if h >= hours {
				continue
			}
			out[h] = append(out[h], orchestrator.Recipe{
				Name:       "app-" + dc.City + "-" + strconv.Itoa(day),
				Model:      liveModels[(day+i)%len(liveModels)],
				Source:     dc.City,
				SLOms:      liveSLOms,
				RatePerSec: liveRatePerSec,
			})
		}
	}
	return out
}

// liveSession is one testbed, and once started, the loopback HTTP
// server in front of it and the one client connection that drives it.
type liveSession struct {
	tb     *testbed.Testbed
	srv    *httptest.Server
	client *http.Client
	tr     *http.Transport
}

func newLiveSession(env *env, pol placement.Policy) (*liveSession, error) {
	tb, err := testbed.New(testbed.Config{
		Region: testbed.CentralEU(),
		Zones:  env.world.Zones, Traces: env.world.Traces, Cities: env.world.Cities,
		Policy: pol,
	})
	if err != nil {
		return nil, err
	}
	if err := tb.AttachTraffic(traffic.Config{Seed: env.seed, Scenario: traffic.Diurnal, RPS: liveRPS}, liveTrafficSLOms); err != nil {
		return nil, err
	}
	return &liveSession{tb: tb}, nil
}

// start puts the orchestrator's API behind a loopback server; close
// stops it.
func (s *liveSession) start() {
	s.srv = httptest.NewServer(s.tb.Orch.API())
	s.tr = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	s.client = &http.Client{Transport: s.tr}
}

func (s *liveSession) close() {
	s.tr.CloseIdleConnections()
	s.srv.Close()
}

// do sends one request and returns its status and body.
func (s *liveSession) do(method, path string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, s.srv.URL+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// liveTimes are one episode's per-call and per-hour wall-clock
// latencies (client and server together: both run in this process).
type liveTimes struct {
	hours, submit, place, tick, state []float64
	busy                              time.Duration
}

// drive runs the closed loop, one emulated hour per stream entry, asking
// for a placement batch in the hours that submitted recipes. Every
// response must carry the API's documented status for its call, and
// every placed deployment must meet its RTT SLO.
func (s *liveSession) drive(chk *checker, stream [][]orchestrator.Recipe) (liveOut, liveTimes, error) {
	var out liveOut
	n, recipes, batches := len(stream), 0, 0
	for _, batch := range stream {
		recipes += len(batch)
		batches += min(1, len(batch))
	}
	lt := liveTimes{
		hours:  make([]float64, 0, n),
		submit: make([]float64, 0, recipes),
		place:  make([]float64, 0, batches),
		tick:   make([]float64, 0, n),
		state:  make([]float64, 0, n/24),
	}
	expire := map[int][]string{}
	for h, batch := range stream {
		t0 := time.Now()
		for _, name := range expire[h] {
			code, _, err := s.do(http.MethodDelete, "/api/v1/deployments/"+name, nil)
			if err != nil {
				return out, lt, err
			}
			chk.check(code == http.StatusNoContent, "DELETE %s: status %d, want 204", name, code)
		}
		delete(expire, h)
		for _, rec := range batch {
			t := time.Now()
			code, _, err := s.do(http.MethodPost, "/api/v1/deployments", rec)
			lt.submit = append(lt.submit, ms(time.Since(t)))
			if err != nil {
				return out, lt, err
			}
			chk.check(code == http.StatusAccepted, "POST deployment %s: status %d, want 202", rec.Name, code)
		}
		if len(batch) > 0 {
			t := time.Now()
			code, body, err := s.do(http.MethodPost, "/api/v1/place", nil)
			lt.place = append(lt.place, ms(time.Since(t)))
			if err != nil {
				return out, lt, err
			}
			chk.check(code == http.StatusOK, "POST place: status %d, want 200", code)
			var placed struct {
				Placed   []orchestrator.Deployment `json:"placed"`
				Rejected []string                  `json:"rejected"`
			}
			if err := json.Unmarshal(body, &placed); err != nil {
				return out, lt, fmt.Errorf("place response: %w", err)
			}
			for _, d := range placed.Placed {
				chk.check(d.RTTMs <= d.Recipe.SLOms, "%s placed at RTT %.3f ms over its %.1f ms SLO", d.Recipe.Name, d.RTTMs, d.Recipe.SLOms)
				expire[h+liveLifeHours] = append(expire[h+liveLifeHours], d.Recipe.Name)
				out.rttSum += d.RTTMs
				out.placed++
			}
			out.rejected += len(placed.Rejected)
		}
		t := time.Now()
		err := s.tb.Orch.Tick(time.Hour)
		lt.tick = append(lt.tick, ms(time.Since(t)))
		if err != nil {
			return out, lt, fmt.Errorf("tick %d: %w", h, err)
		}
		if (h+1)%24 == 0 {
			t = time.Now()
			code, _, err := s.do(http.MethodGet, "/api/v1/state", nil)
			lt.state = append(lt.state, ms(time.Since(t)))
			if err != nil {
				return out, lt, err
			}
			chk.check(code == http.StatusOK, "GET state: status %d, want 200", code)
		}
		d := time.Since(t0)
		lt.hours = append(lt.hours, ms(d))
		lt.busy += d
	}
	chk.add(int64(len(lt.submit) + len(lt.place) + len(lt.tick) + len(lt.state)))
	out.carbonG = s.tb.Orch.CarbonTotalG()
	snap, _, _, ok := s.tb.Orch.TrafficTelemetry()
	chk.check(ok, "no traffic telemetry")
	missed := snap.Requests - snap.SLOMet - snap.Dropped
	chk.check(missed >= 0 && snap.Spilled <= missed, "traffic: requests %d, slo-met %d, spilled %d, dropped %d", snap.Requests, snap.SLOMet, snap.Spilled, snap.Dropped)
	out.sloPct = snap.SLOPct
	return out, lt, nil
}

// settle reads the orchestrator's final state: its digest with the
// wall-clock fields (deploy latency, last solve timings) zeroed, exactly
// and with every fractional number rounded to 9 significant digits, and
// the emissions attributed to apps.
//
// The exact digest is not reproducible: Tick sums each server's app
// power in cluster.Server.Apps order, which is Go map order, so energy
// meters and carbon drift in their last bits between identical runs. The
// rounded digest is what episodes must agree on; episodes whose exact
// digest differs are counted as drift, a known defect, not hidden.
func (s *liveSession) settle(out *liveOut) error {
	st, err := s.tb.Orch.SaveState()
	if err != nil {
		return err
	}
	st.DeployLatency = metrics.SummaryState{}
	st.LastSolve = placement.SolveStats{}
	for _, c := range st.CarbonByApp {
		out.appCarbonG += c.Sum
	}
	if out.exact, err = digestJSON(st); err != nil {
		return err
	}
	out.digest, err = roundedDigest(st)
	return err
}

// roundedDigest fingerprints v's JSON encoding with every fractional
// number rounded to 9 significant digits; integers stay exact.
func roundedDigest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return digestJSON(roundTree(tree))
}

func roundTree(v any) any {
	switch t := v.(type) {
	case map[string]any:
		for k, x := range t {
			t[k] = roundTree(x)
		}
	case []any:
		for i, x := range t {
			t[i] = roundTree(x)
		}
	case json.Number:
		if strings.ContainsAny(string(t), ".eE") {
			if f, err := t.Float64(); err == nil {
				return json.Number(strconv.FormatFloat(f, 'g', 9, 64))
			}
		}
	}
	return v
}

func (b *liveBench) build(env *env, traced bool) (runner, error) {
	s, err := newLiveSession(env, placement.CarbonAware{})
	if err != nil {
		return nil, err
	}
	stream := liveRecipes(env.seed, env.size.liveHours)
	return func(chk *checker) (*episode, error) {
		s.start()
		defer s.close()
		p0 := startProc()
		t0 := time.Now()
		out, lt, err := s.drive(chk, stream)
		wall := time.Since(t0)
		p1 := endProc()
		if err != nil {
			return nil, err
		}
		if err := s.settle(&out); err != nil {
			return nil, err
		}
		ep := &episode{wall: wall, hours: len(stream), steps: lt.hours, places: lt.place, placeMetric: "orchestrator.place",
			busy: lt.busy, digest: out.digest, exact: out.exact, out: out, before: p0, after: p1}
		if !traced {
			return ep, nil
		}
		l := map[string]float64{
			"sim.steps":                 float64(len(lt.hours)),
			"sim.step_busy_s":           lt.busy.Seconds(),
			"orchestrator.submit_ms":    median(lt.submit),
			"orchestrator.tick_ms":      median(lt.tick),
			"orchestrator.state_get_ms": median(lt.state),
			"orchestrator.placed":       float64(out.placed),
			"orchestrator.rejected":     float64(out.rejected),
			"placement.placed_ratio":    ratio(float64(out.placed), float64(out.placed+out.rejected)),
		}
		var phaseS float64
		phases := s.tb.Orch.PhaseReport()
		chk.check(len(phases) == len(orchPhases), "orchestrator reports %d phases, want %d", len(phases), len(orchPhases))
		for i, p := range phases {
			if i < len(orchPhases) {
				chk.check(p.Name == orchPhases[i], "orchestrator phase %d is %q, want %q", i, p.Name, orchPhases[i])
			}
			l["orchestrator.phase."+p.Name+"_s"] = float64(p.TotalNs) / 1e9
			phaseS += float64(p.TotalNs) / 1e9
		}
		l["sim.dispatch_self_s"] = lt.busy.Seconds() - phaseS
		l["sim.phase_coverage_pct"] = ratio(phaseS, lt.busy.Seconds()) * 100
		if st, batches, ok := s.tb.Orch.PlacementStats(); ok {
			l["placement.solve_s"] = st.TotalSolveMs / 1000
			l["placement.batches"] = float64(batches)
		}
		if snap, _, _, ok := s.tb.Orch.TrafficTelemetry(); ok {
			l["traffic.requests"] = float64(snap.Requests)
			l["router.spilled"] = float64(snap.Spilled)
			l["router.dropped"] = float64(snap.Dropped)
			l["router.served_ratio"] = ratio(float64(snap.Requests-snap.Dropped), float64(snap.Requests))
		}
		ep.layers = l
		return ep, nil
	}, nil
}

// prepare drives the same client loop against a Latency-aware testbed,
// the baseline the saving and latency cost are measured against.
func (b *liveBench) prepare(env *env, chk *checker) error {
	s, err := newLiveSession(env, placement.LatencyAware{})
	if err != nil {
		return err
	}
	s.start()
	defer s.close()
	b.baseline, _, err = s.drive(chk, liveRecipes(env.seed, env.size.liveHours))
	if err != nil {
		return fmt.Errorf("latency-aware twin: %w", err)
	}
	return s.settle(&b.baseline)
}

// quality measures the saving on the emissions attributed to apps, as
// the paper's testbed figures do: the always-on servers' base power is
// the same under either policy.
func (b *liveBench) quality(_ *env, ep *episode, _ *checker) (quality, error) {
	out := ep.out.(liveOut)
	base := b.baseline
	return quality{
		carbonKg:     out.carbonG / 1000,
		savingPct:    ratio(base.appCarbonG-out.appCarbonG, base.appCarbonG) * 100,
		latencyIncMs: ratio(out.rttSum, float64(out.placed)) - ratio(base.rttSum, float64(base.placed)),
		sloPct:       out.sloPct,
	}, nil
}

// replay has nothing to do: the orchestrator's router is measured
// through its tick phases.
func (*liveBench) replay(*env, *episode, map[string]float64) error { return nil }
