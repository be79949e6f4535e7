package carbon

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/rng"
)

func testZone(t *testing.T, id string) *Zone {
	t.Helper()
	for _, z := range CuratedZones() {
		if z.ID == id {
			return z
		}
	}
	t.Fatalf("no curated zone %q", id)
	return nil
}

func TestGeneratorDeterminism(t *testing.T) {
	z := testZone(t, "DE-MUC")
	a := NewGenerator(7).Intensity(z)
	b := NewGenerator(7).Intensity(z)
	if a.Len() != b.Len() {
		t.Fatal("length mismatch across identical runs")
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("non-deterministic at hour %d: %v vs %v", i, a.Values[i], b.Values[i])
		}
	}
}

func TestGeneratorSeedSensitivity(t *testing.T) {
	z := testZone(t, "DE-MUC")
	a := NewGenerator(7).Intensity(z)
	b := NewGenerator(8).Intensity(z)
	same := 0
	for i := range a.Values {
		if a.Values[i] == b.Values[i] {
			same++
		}
	}
	if same == a.Len() {
		t.Error("different seeds produced identical traces")
	}
}

func TestGeneratorYearLength(t *testing.T) {
	g := NewGenerator(1)
	if g.HoursInYear() != 8760 {
		t.Errorf("2023 hours = %d, want 8760", g.HoursInYear())
	}
	g.Year = 2024 // leap year
	if g.HoursInYear() != 8784 {
		t.Errorf("2024 hours = %d, want 8784", g.HoursInYear())
	}
	z := testZone(t, "CH-BRN")
	g.Year = 2023
	if got := g.Intensity(z).Len(); got != 8760 {
		t.Errorf("trace length = %d, want 8760", got)
	}
}

func TestIntensityWithinPhysicalBounds(t *testing.T) {
	g := NewGenerator(3)
	for _, z := range CuratedZones() {
		s := g.Intensity(z)
		lo, hi := s.Min(), s.Max()
		if lo < 0 {
			t.Errorf("%s: negative intensity %v", z.ID, lo)
		}
		if hi > Coal.EmissionFactor() {
			t.Errorf("%s: intensity %v exceeds pure-coal bound", z.ID, hi)
		}
	}
}

func TestMixesMeetDemandApproximately(t *testing.T) {
	g := NewGenerator(5)
	z := testZone(t, "US-FL-MIA")
	mixes := g.Mixes(z)
	short := 0
	for _, m := range mixes {
		// Demand is >= 0.5 by construction; generation should cover at
		// least half of mean demand every hour given firm capacity >= 1.
		if m.Total() < 0.45 {
			short++
		}
	}
	if frac := float64(short) / float64(len(mixes)); frac > 0.01 {
		t.Errorf("%.1f%% of hours severely under-supplied", frac*100)
	}
}

func TestPaperSpreadRatios(t *testing.T) {
	// The headline mesoscale ratios from Figure 3: yearly max/min mean
	// carbon intensity of 2.7x in the West US and 10.8x in Central
	// Europe. We assert the calibrated generator lands near those.
	g := NewGenerator(42)
	ratio := func(ids []string) float64 {
		lo, hi := math.Inf(1), 0.0
		for _, id := range ids {
			m := g.Intensity(testZone(t, id)).Mean()
			lo = math.Min(lo, m)
			hi = math.Max(hi, m)
		}
		return hi / lo
	}
	west := ratio([]string{"US-SW-KNG", "US-SW-LAS", "US-SW-FLG", "US-SW-PHX", "US-SW-SAN"})
	if west < 2.0 || west > 3.5 {
		t.Errorf("West US yearly ratio = %.2f, paper reports 2.7", west)
	}
	eu := ratio([]string{"CH-BRN", "DE-MUC", "FR-LYO", "AT-GRZ", "IT-MIL"})
	if eu < 7 || eu > 15 {
		t.Errorf("Central EU yearly ratio = %.2f, paper reports 10.8", eu)
	}
}

func TestPolandDirtierThanOntario(t *testing.T) {
	// Figure 1b: Poland's coal grid is far above Ontario's
	// nuclear+hydro grid.
	g := NewGenerator(42)
	pl := g.Intensity(testZone(t, "PL")).Mean()
	on := g.Intensity(testZone(t, "CA-ON")).Mean()
	if pl < 5*on {
		t.Errorf("Poland (%.0f) should be >5x Ontario (%.0f)", pl, on)
	}
}

func TestSolarZoneDiurnalPattern(t *testing.T) {
	// A solar-heavy zone must be cleaner at midday than at midnight on
	// average (the Figure 4a pattern for Kingman).
	g := NewGenerator(42)
	s := g.Intensity(testZone(t, "US-SW-KNG"))
	prof := s.HourlyProfile()
	// Kingman is at longitude -114 (~UTC-7): local noon ~ 19:00 UTC,
	// local midnight ~ 07:00 UTC.
	noon := prof[19]
	midnight := prof[7]
	if noon >= midnight {
		t.Errorf("solar zone midday CI (%.0f) should be below midnight CI (%.0f)", noon, midnight)
	}
}

func TestWindSeasonality(t *testing.T) {
	// Wind-heavy zones should be cleaner in winter (higher wind CF).
	z := &Zone{
		ID: "TEST-WIND", Name: "windy", Region: RegionEurope,
		Location: geo.Point{Lat: 52, Lon: 5},
		Capacity: zcap(0.05, 1.3, 0.05, 0, 0, 1.1, 0, 0),
	}
	g := NewGenerator(42)
	s := g.Intensity(z)
	months := s.MonthlyMeans()
	if len(months) != 12 {
		t.Fatalf("got %d months", len(months))
	}
	jan := months[0].Mean
	jul := months[6].Mean
	if jan >= jul {
		t.Errorf("wind zone january CI (%.0f) should be below july (%.0f)", jan, jul)
	}
}

// solarAt evaluates the production solar helpers for one local hour, the
// way the hourly loop composes them.
func solarAt(hod, doy int, lat, cloudiness float64) float64 {
	dayLen, sunrise := daylight(negTanLatitude(lat), tanDeclination(doy))
	return solarFactor(hod, dayLen, sunrise, cloudiness)
}

func TestSolarFactorNightZero(t *testing.T) {
	for doy := 1; doy <= 365; doy += 30 {
		if got := solarAt(0, doy, 40, 1); got != 0 {
			t.Errorf("midnight solar (doy %d) = %v, want 0", doy, got)
		}
	}
}

func TestSolarFactorSummerLongerThanWinter(t *testing.T) {
	var summerHours, winterHours int
	for h := 0; h < 24; h++ {
		if solarAt(h, 172, 45, 1) > 0 {
			summerHours++
		}
		if solarAt(h, 355, 45, 1) > 0 {
			winterHours++
		}
	}
	if summerHours <= winterHours {
		t.Errorf("summer daylight hours (%d) should exceed winter (%d) at 45N", summerHours, winterHours)
	}
}

func TestDispatchCurtailsRenewables(t *testing.T) {
	z := &Zone{
		ID: "TEST-CURTAIL", Location: geo.Point{Lat: 40, Lon: 0},
		Capacity: zcap(5, 5, 0, 0, 0, 1.2, 0, 0),
	}
	m := dispatch(z, 1.0, 1.0, 1.0, 0.75)
	if m.Total() > 1.0+1e-9 {
		t.Errorf("generation %.3f exceeds demand 1.0; renewables not curtailed", m.Total())
	}
	if m[Gas] != 0 {
		t.Errorf("gas dispatched (%.3f) despite surplus renewables", m[Gas])
	}
}

func TestDispatchFossilProportionalSplit(t *testing.T) {
	z := &Zone{
		ID: "TEST-FOSSIL", Location: geo.Point{Lat: 40, Lon: 0},
		Capacity: zcap(0, 0, 0, 0, 0, 0.6, 0, 0.3),
	}
	m := dispatch(z, 0.6, 0, 0, 0.75)
	if math.Abs(m[Gas]-0.4) > 1e-9 || math.Abs(m[Coal]-0.2) > 1e-9 {
		t.Errorf("fossil split gas=%.3f coal=%.3f, want 0.4/0.2", m[Gas], m[Coal])
	}
}

func TestTraceSetRoundTrip(t *testing.T) {
	reg, err := NewRegistry(CuratedZones())
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(9)
	ts := g.GenerateTraces(reg)
	if len(ts.ZoneIDs()) != reg.Len() {
		t.Fatalf("trace set has %d zones, want %d", len(ts.ZoneIDs()), reg.Len())
	}
	for _, z := range reg.Zones() {
		if ts.Trace(z.ID) == nil {
			t.Errorf("missing trace for %s", z.ID)
		}
	}
	if ts.Trace("nope") != nil {
		t.Error("unknown zone should have nil trace")
	}
}

// referenceMixes is the per-hour merit-order simulation the calendar-table
// loop replaced, kept as the equivalence oracle: every term is
// recomputed from the timestamp each hour.
func referenceMixes(g *Generator, z *Zone) []Mix {
	n := g.HoursInYear()
	rng := rng.NewStd(zoneSeed(g.Seed, z.ID))
	out := make([]Mix, n)

	wind := referenceWind{rng: rng, level: 0.3}
	cloud := cloudProcess{rng: rng, level: 0.75}

	start := g.Start()
	for h := 0; h < n; h++ {
		ts := start.Add(time.Duration(h) * time.Hour)
		doy := ts.YearDay()
		// Solar and demand shapes follow local solar time, approximated
		// from longitude (15 degrees per hour).
		local := math.Mod(float64(ts.Hour())+z.Location.Lon/15+48, 24)
		hod := int(local)
		dow := ts.Weekday()

		demand := referenceDemandAt(hod, doy, dow, z.Region, rng)
		out[h] = dispatch(z, demand, referenceSolarFactor(hod, doy, z.Location.Lat, cloud.step()), wind.step(doy), hydroSeason(doy))
	}
	return out
}

func referenceDemandAt(hod, doy int, dow time.Weekday, region Region, rng *rng.Rand) float64 {
	// Diurnal: trough ~04:00, peaks ~09:00 and ~19:00.
	diurnal := 0.10*math.Sin(2*math.Pi*float64(hod-7)/24) +
		0.06*math.Sin(4*math.Pi*float64(hod-1)/24)
	// Seasonal: winter-peaking in Europe (heating), summer-peaking in the
	// US zones we model (cooling in FL/AZ).
	seasonPhase := float64(doy-15) / 365.25 * 2 * math.Pi
	var seasonal float64
	if region == RegionUS {
		seasonal = -0.08 * math.Cos(seasonPhase-math.Pi) // peak mid-summer
	} else {
		seasonal = 0.08 * math.Cos(seasonPhase) // peak mid-winter
	}
	weekend := 0.0
	if dow == time.Saturday || dow == time.Sunday {
		weekend = -0.05
	}
	d := 1 + diurnal + seasonal + weekend + 0.02*rng.NormFloat64()
	if d < 0.5 {
		d = 0.5
	}
	return d
}

func referenceSolarFactor(hod, doy int, lat, cloudiness float64) float64 {
	// Day length varies with latitude and season; approximation good to
	// ~30 minutes below the polar circles.
	decl := 23.44 * math.Sin(2*math.Pi*float64(doy-81)/365.25)
	latR := lat * math.Pi / 180
	declR := decl * math.Pi / 180
	x := -math.Tan(latR) * math.Tan(declR)
	if x < -1 {
		x = -1
	}
	if x > 1 {
		x = 1
	}
	dayLen := 2 * math.Acos(x) / math.Pi * 12 // hours
	if dayLen <= 0.5 {
		return 0
	}
	sunrise := 12 - dayLen/2
	t := float64(hod) + 0.5
	if t < sunrise || t > sunrise+dayLen {
		return 0
	}
	bell := math.Sin(math.Pi * (t - sunrise) / dayLen)
	return bell * bell * cloudiness
}

type referenceWind struct {
	rng   *rng.Rand
	level float64
}

func (w *referenceWind) step(doy int) float64 {
	// Seasonal mean: winter high (0.42), summer low (0.25).
	mean := 0.335 + 0.085*math.Cos(2*math.Pi*float64(doy-15)/365.25)
	w.level += 0.06*(mean-w.level) + 0.035*w.rng.NormFloat64()
	if w.level < 0.02 {
		w.level = 0.02
	}
	if w.level > 0.95 {
		w.level = 0.95
	}
	return w.level
}

// intensities reduces a mix series to its hourly carbon intensities.
func intensities(mixes []Mix) []float64 {
	out := make([]float64, len(mixes))
	for h, m := range mixes {
		out[h] = m.Intensity()
	}
	return out
}

func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for h := range a {
		if math.Float64bits(a[h]) != math.Float64bits(b[h]) {
			return h, false
		}
	}
	return 0, true
}

// TestTraceSynthesisMatchesReference pins the calendar-table loop to the
// per-hour oracle bit for bit, for every zone of the default registry,
// across seeds and a leap year, through Mixes, Intensity and
// GenerateTraces at one and at GOMAXPROCS workers.
func TestTraceSynthesisMatchesReference(t *testing.T) {
	for _, seed := range []int64{42, 1, -3} {
		reg, err := DefaultRegistry(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, year := range []int{2023, 2024} {
			g := &Generator{Seed: seed, Year: year}
			serial := g.generateTraces(reg, 1)
			parallel := g.generateTraces(reg, runtime.GOMAXPROCS(0))
			for _, ts := range []*TraceSet{serial, parallel} {
				if len(ts.ZoneIDs()) != reg.Len() || ts.Hours != g.HoursInYear() || !ts.Start.Equal(g.Start()) {
					t.Fatalf("seed %d year %d: trace set has %d zones, %d hours from %v", seed, year, len(ts.ZoneIDs()), ts.Hours, ts.Start)
				}
			}
			for _, z := range reg.Zones() {
				ref := referenceMixes(g, z)
				mixes := g.Mixes(z)
				if len(mixes) != len(ref) {
					t.Fatalf("seed %d year %d %s: Mixes has %d hours, want %d", seed, year, z.ID, len(mixes), len(ref))
				}
				for h := range ref {
					for s := range ref[h] {
						if math.Float64bits(mixes[h][s]) != math.Float64bits(ref[h][s]) {
							t.Fatalf("seed %d year %d %s: Mixes hour %d source %v = %v, want %v", seed, year, z.ID, h, Source(s), mixes[h][s], ref[h][s])
						}
					}
				}
				for name, got := range map[string][]float64{
					"Intensity":         g.Intensity(z).Values,
					"GenerateTraces(1)": serial.Trace(z.ID).Values,
					"GenerateTraces(N)": parallel.Trace(z.ID).Values,
				} {
					if h, ok := sameBits(got, intensities(ref)); !ok {
						t.Fatalf("seed %d year %d %s: %s differs from the reference at hour %d", seed, year, z.ID, name, h)
					}
				}
			}
		}
	}
}

// BenchmarkTraceSynthesis synthesizes the default registry's traces with
// the per-hour oracle and with the production loop at one worker, and
// reports their ratio: a machine-independent speedup the bench guard
// gates on (BENCH_12.json). The two passes alternate within each
// iteration so drift in machine speed hits both alike.
func BenchmarkTraceSynthesis(b *testing.B) {
	reg, err := DefaultRegistry(42)
	if err != nil {
		b.Fatal(err)
	}
	g := NewGenerator(42)
	var refNs, prodNs int64
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		for _, z := range reg.Zones() {
			intensities(referenceMixes(g, z))
		}
		t1 := time.Now()
		g.generateTraces(reg, 1)
		t2 := time.Now()
		refNs += t1.Sub(t0).Nanoseconds()
		prodNs += t2.Sub(t1).Nanoseconds()
	}
	b.ReportMetric(float64(refNs)/float64(b.N)/1e6, "reference_ms")
	b.ReportMetric(float64(prodNs)/float64(b.N)/1e6, "production_ms")
	b.ReportMetric(float64(refNs)/float64(prodNs), "trace_synth_speedup_x")
}
