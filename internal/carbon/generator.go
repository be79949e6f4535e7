package carbon

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
	"repro/internal/timeseries"
)

// Generator produces synthetic hourly carbon-intensity traces for a zone by
// simulating merit-order dispatch against a diurnal/seasonal demand curve.
//
// Model summary (all quantities in demand units, mean demand = 1.0):
//
//   - Demand: diurnal double peak (morning + evening), weekend dip, and a
//     seasonal swing.
//   - Solar: clear-sky bell over the daylight window (daylight length
//     follows latitude and day of year), scaled by a persistent cloudiness
//     process.
//   - Wind: mean-reverting (Ornstein–Uhlenbeck style) capacity-factor
//     process with a winter-high seasonal mean.
//   - Dispatch order: solar+wind (curtailable must-run) -> nuclear
//     (baseload) -> hydro (dispatchable, seasonal availability) -> biomass
//     -> fossil fleet (gas/oil/coal) sharing the residual in proportion to
//     capacity.
//
// Carbon intensity per hour is the generation-weighted average of lifecycle
// emission factors (§2.1). The process is fully deterministic given (zone
// ID, seed).
//
// Each term is computed once at the level where it changes. A calendar
// table, built once per call, holds the per-day terms (seasonal demand,
// weekend dip, solar declination, hydro availability, seasonal wind mean)
// and the 24 diurnal demand terms. Each zone maps UTC hours to local hours
// and fixes its latitude term once, and each zone-day fixes its daylight
// window, so an hour costs three normal draws, the daylight bell, and the
// dispatch. GenerateTraces fans zones out over GOMAXPROCS goroutines; each
// zone's stream is seeded from the generator seed and the zone ID alone,
// so the traces do not depend on the worker count.
type Generator struct {
	// Seed fixes all stochastic weather processes.
	Seed int64
	// Year is the simulated calendar year (the paper uses 2023).
	Year int
}

// NewGenerator returns a generator for the paper's evaluation year.
func NewGenerator(seed int64) *Generator {
	return &Generator{Seed: seed, Year: 2023}
}

// HoursInYear returns the number of hours the generated traces span.
func (g *Generator) HoursInYear() int {
	start := time.Date(g.Year, 1, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(g.Year+1, 1, 1, 0, 0, 0, 0, time.UTC)
	return int(end.Sub(start) / time.Hour)
}

// Start returns the first instant of the generated traces.
func (g *Generator) Start() time.Time {
	return time.Date(g.Year, 1, 1, 0, 0, 0, 0, time.UTC)
}

// Intensity generates the zone's hourly carbon-intensity series
// (g.CO2eq/kWh) for the whole year.
func (g *Generator) Intensity(z *Zone) *timeseries.Series {
	s := timeseries.New(g.Start(), g.HoursInYear())
	g.simulate(z, g.newCalendar(), nil, s.Values)
	return s
}

// Mixes returns the zone's hourly generation mixes for the whole year.
func (g *Generator) Mixes(z *Zone) []Mix {
	out := make([]Mix, g.HoursInYear())
	g.simulate(z, g.newCalendar(), out, nil)
	return out
}

// calendar holds the model terms that depend only on the date: one row
// per day of the year, and the diurnal demand term per local hour.
type calendar struct {
	days    []calendarDay
	diurnal [24]float64
}

// calendarDay holds one day's terms.
type calendarDay struct {
	// seasonUS and seasonEU are the seasonal demand terms: US zones peak
	// in summer, all others in winter.
	seasonUS, seasonEU float64
	weekend            float64
	tanDecl            float64 // see tanDeclination
	hydro              float64 // see hydroSeason
	windMean           float64 // see windProcess
}

// newCalendar tabulates the calendar terms of g's year.
func (g *Generator) newCalendar() *calendar {
	start := g.Start()
	c := &calendar{days: make([]calendarDay, g.HoursInYear()/24)}
	for hod := range c.diurnal {
		// Diurnal: trough ~04:00, peaks ~09:00 and ~19:00.
		c.diurnal[hod] = 0.10*math.Sin(2*math.Pi*float64(hod-7)/24) +
			0.06*math.Sin(4*math.Pi*float64(hod-1)/24)
	}
	for i := range c.days {
		day := &c.days[i]
		doy := i + 1
		// Seasonal: winter-peaking in Europe (heating), summer-peaking in
		// the US zones we model (cooling in FL/AZ).
		seasonPhase := float64(doy-15) / 365.25 * 2 * math.Pi
		day.seasonUS = -0.08 * math.Cos(seasonPhase-math.Pi) // peak mid-summer
		day.seasonEU = 0.08 * math.Cos(seasonPhase)          // peak mid-winter
		if dow := start.AddDate(0, 0, i).Weekday(); dow == time.Saturday || dow == time.Sunday {
			day.weekend = -0.05
		}
		day.tanDecl = tanDeclination(doy)
		day.hydro = hydroSeason(doy)
		// Seasonal wind mean: winter high (0.42), summer low (0.25).
		day.windMean = 0.335 + 0.085*math.Cos(2*math.Pi*float64(doy-15)/365.25)
	}
	return c
}

// simulate runs the full-year merit-order simulation for one zone over
// the calendar c. It stores each hour's mix in mixes and its intensity in
// intensity; either may be nil.
func (g *Generator) simulate(z *Zone, c *calendar, mixes []Mix, intensity []float64) {
	rng := rng.NewStd(zoneSeed(g.Seed, z.ID))
	wind := windProcess{rng: rng, level: 0.3}
	cloud := cloudProcess{rng: rng, level: 0.75}

	// Solar and demand shapes follow local solar time, approximated from
	// longitude (15 degrees per hour).
	var localHour [24]int
	for utc := range localHour {
		localHour[utc] = int(math.Mod(float64(utc)+z.Location.Lon/15+48, 24))
	}
	negTanLat := negTanLatitude(z.Location.Lat)

	h := 0
	for i := range c.days {
		day := &c.days[i]
		seasonal := day.seasonEU
		if z.Region == RegionUS {
			seasonal = day.seasonUS
		}
		dayLen, sunrise := daylight(negTanLat, day.tanDecl)
		for _, hod := range localHour {
			// The hour's three draws come from one stream in a fixed
			// order: demand, then cloud, then wind (Go evaluates the
			// dispatch arguments left to right). Normalized demand is
			// floored at half the mean.
			demand := 1 + c.diurnal[hod] + seasonal + day.weekend + 0.02*rng.NormFloat64()
			if demand < 0.5 {
				demand = 0.5
			}
			m := dispatch(z, demand, solarFactor(hod, dayLen, sunrise, cloud.step()), wind.step(day.windMean), day.hydro)
			if mixes != nil {
				mixes[h] = m
			}
			if intensity != nil {
				intensity[h] = m.Intensity()
			}
			h++
		}
	}
}

// tanDeclination returns the tangent of the solar declination on day of
// year doy.
func tanDeclination(doy int) float64 {
	decl := 23.44 * math.Sin(2*math.Pi*float64(doy-81)/365.25)
	declR := decl * math.Pi / 180
	return math.Tan(declR)
}

// negTanLatitude returns -tan of the latitude lat (degrees).
func negTanLatitude(lat float64) float64 {
	latR := lat * math.Pi / 180
	return -math.Tan(latR)
}

// daylight returns the day length in hours and the local sunrise hour at
// a latitude and day given as negTanLatitude and tanDeclination. The
// approximation is good to ~30 minutes below the polar circles.
func daylight(negTanLat, tanDecl float64) (dayLen, sunrise float64) {
	x := negTanLat * tanDecl
	if x < -1 {
		x = -1
	}
	if x > 1 {
		x = 1
	}
	dayLen = 2 * math.Acos(x) / math.Pi * 12
	return dayLen, 12 - dayLen/2
}

// solarFactor returns the solar fleet capacity factor in [0,1] at local
// hour hod: a clear-sky bell across the daylight window scaled by
// cloudiness.
func solarFactor(hod int, dayLen, sunrise, cloudiness float64) float64 {
	if dayLen <= 0.5 {
		return 0
	}
	t := float64(hod) + 0.5
	if t < sunrise || t > sunrise+dayLen {
		return 0
	}
	bell := math.Sin(math.Pi * (t - sunrise) / dayLen)
	return bell * bell * cloudiness
}

// hydroSeason returns the seasonal availability of hydro capacity:
// spring-melt high, late-summer low.
func hydroSeason(doy int) float64 {
	return 0.75 + 0.2*math.Sin(2*math.Pi*float64(doy-60)/365.25)
}

// windProcess is a mean-reverting hourly capacity-factor process.
type windProcess struct {
	rng   *rng.Rand
	level float64
}

// step advances the process one hour toward the seasonal mean.
func (w *windProcess) step(mean float64) float64 {
	w.level += 0.06*(mean-w.level) + 0.035*w.rng.NormFloat64()
	if w.level < 0.02 {
		w.level = 0.02
	}
	if w.level > 0.95 {
		w.level = 0.95
	}
	return w.level
}

// cloudProcess is a persistent cloudiness multiplier in [0.25, 1].
type cloudProcess struct {
	rng   *rng.Rand
	level float64
}

func (c *cloudProcess) step() float64 {
	c.level += 0.04*(0.78-c.level) + 0.05*c.rng.NormFloat64()
	if c.level < 0.25 {
		c.level = 0.25
	}
	if c.level > 1 {
		c.level = 1
	}
	return c.level
}

// dispatch performs the merit-order dispatch for one hour and returns the
// resulting generation mix.
func dispatch(z *Zone, demand, solarCF, windCF, hydroAvail float64) Mix {
	var m Mix
	residual := demand

	// Must-run renewables, curtailed if they exceed demand.
	solar := z.Capacity[Solar] * solarCF
	wind := z.Capacity[Wind] * windCF
	vre := solar + wind
	if vre > residual {
		scale := residual / vre
		solar *= scale
		wind *= scale
		vre = residual
	}
	m[Solar], m[Wind] = solar, wind
	residual -= vre

	// Nuclear baseload runs at ~92% capacity factor but is trimmed when
	// renewables already cover demand.
	nuc := math.Min(z.Capacity[Nuclear]*0.92, residual)
	m[Nuclear] = nuc
	residual -= nuc

	// Hydro is dispatchable within its seasonal availability.
	hyd := math.Min(z.Capacity[Hydro]*hydroAvail, residual)
	m[Hydro] = hyd
	residual -= hyd

	bio := math.Min(z.Capacity[Biomass]*0.7, residual)
	m[Biomass] = bio
	residual -= bio

	if residual > 1e-12 {
		fossilCap := z.Capacity[Gas] + z.Capacity[Oil] + z.Capacity[Coal]
		if fossilCap > 0 {
			serve := math.Min(residual, fossilCap)
			m[Gas] = serve * z.Capacity[Gas] / fossilCap
			m[Oil] = serve * z.Capacity[Oil] / fossilCap
			m[Coal] = serve * z.Capacity[Coal] / fossilCap
		}
	}
	return m
}

// TraceSet holds the generated intensity traces for a set of zones, keyed
// by zone ID. It is the in-memory equivalent of the Electricity Maps
// dataset the paper replays.
type TraceSet struct {
	Start  time.Time
	Hours  int
	traces map[string]*timeseries.Series
}

// GenerateTraces produces a TraceSet covering every zone in the registry,
// synthesizing zones in parallel on GOMAXPROCS goroutines.
func (g *Generator) GenerateTraces(r *Registry) *TraceSet {
	return g.generateTraces(r, runtime.GOMAXPROCS(0))
}

// generateTraces synthesizes the registry's traces on up to workers
// goroutines. A worker writes only the slot of the zone it claimed, and
// the set is filled in registry order after all workers return, so the
// result does not depend on scheduling.
func (g *Generator) generateTraces(r *Registry, workers int) *TraceSet {
	zones := r.Zones()
	start, hours := g.Start(), g.HoursInYear()
	c := g.newCalendar()
	series := make([]*timeseries.Series, len(zones))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(zones)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(zones); i = int(next.Add(1)) - 1 {
				s := timeseries.New(start, hours)
				g.simulate(zones[i], c, nil, s.Values)
				series[i] = s
			}
		}()
	}
	wg.Wait()

	ts := &TraceSet{
		Start:  start,
		Hours:  hours,
		traces: make(map[string]*timeseries.Series, len(zones)),
	}
	for i, z := range zones {
		ts.traces[z.ID] = series[i]
	}
	return ts
}

// Trace returns the intensity series for a zone ID, or nil.
func (t *TraceSet) Trace(zoneID string) *timeseries.Series { return t.traces[zoneID] }

// Put inserts or replaces a zone's trace. Used by tests and the CSV codec.
func (t *TraceSet) Put(zoneID string, s *timeseries.Series) {
	if t.traces == nil {
		t.traces = make(map[string]*timeseries.Series)
	}
	t.traces[zoneID] = s
	if t.Hours == 0 {
		t.Hours = s.Len()
		t.Start = s.Start
	}
}

// ZoneIDs returns the IDs present in the set (unordered).
func (t *TraceSet) ZoneIDs() []string {
	out := make([]string, 0, len(t.traces))
	for id := range t.traces {
		out = append(out, id)
	}
	return out
}
