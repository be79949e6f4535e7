package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// exactQuantile computes the true quantile by sorting (the reference the
// sketch is checked against).
func exactQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// relErr is the acceptance band for the default sketch resolution: the
// bucket width is gamma-1 = 2%, so a reported quantile sits within ~2% of
// some value straddling the true rank.
const relErr = 0.03

func checkQuantiles(t *testing.T, name string, values []float64) {
	t.Helper()
	s := NewQuantileSketch()
	for _, v := range values {
		s.Add(v)
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
		want := exactQuantile(sorted, q)
		got := s.Quantile(q)
		if want == 0 {
			continue
		}
		if math.Abs(got-want)/want > relErr {
			t.Errorf("%s q=%.2f: sketch %.4f vs exact %.4f (rel err %.3f)",
				name, q, got, want, math.Abs(got-want)/want)
		}
	}
	if s.Count() != int64(len(values)) {
		t.Errorf("%s: count %d, want %d", name, s.Count(), len(values))
	}
	if got := s.Min(); got != sorted[0] {
		t.Errorf("%s: min %.4f, want exact %.4f", name, got, sorted[0])
	}
	if got := s.Max(); got != sorted[len(sorted)-1] {
		t.Errorf("%s: max %.4f, want exact %.4f", name, got, sorted[len(sorted)-1])
	}
}

func TestSketchAccuracyKnownDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 200000
	uniform := make([]float64, n)
	exponential := make([]float64, n)
	lognormal := make([]float64, n)
	for i := 0; i < n; i++ {
		uniform[i] = 1 + 99*rng.Float64()
		exponential[i] = rng.ExpFloat64() * 12 // mean-12ms latencies
		lognormal[i] = math.Exp(rng.NormFloat64()*0.8 + 2)
	}
	checkQuantiles(t, "uniform(1,100)", uniform)
	checkQuantiles(t, "exp(12)", exponential)
	checkQuantiles(t, "lognormal", lognormal)
}

func TestSketchWeightedAddMatchesRepeatedAdd(t *testing.T) {
	a, b := NewQuantileSketch(), NewQuantileSketch()
	values := []float64{0.5, 3, 3, 3, 17, 17, 250}
	for _, v := range values {
		a.Add(v)
	}
	b.AddN(0.5, 1)
	b.AddN(3, 3)
	b.AddN(17, 2)
	b.AddN(250, 1)
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Errorf("q=%.2f: Add %.4f != AddN %.4f", q, a.Quantile(q), b.Quantile(q))
		}
	}
	if a.Count() != b.Count() || a.Sum() != b.Sum() {
		t.Errorf("count/sum diverged: (%d, %.2f) vs (%d, %.2f)", a.Count(), a.Sum(), b.Count(), b.Sum())
	}
}

func TestSketchOrderIndependence(t *testing.T) {
	// The sketch must be a pure function of the inserted multiset.
	rng := rand.New(rand.NewSource(3))
	values := make([]float64, 5000)
	for i := range values {
		values[i] = rng.ExpFloat64() * 20
	}
	forward, backward := NewQuantileSketch(), NewQuantileSketch()
	for _, v := range values {
		forward.Add(v)
	}
	for i := len(values) - 1; i >= 0; i-- {
		backward.Add(values[i])
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		if forward.Quantile(q) != backward.Quantile(q) {
			t.Errorf("q=%.2f: order-dependent result %.6f vs %.6f", q, forward.Quantile(q), backward.Quantile(q))
		}
	}
}

func TestSketchMerge(t *testing.T) {
	whole, left, right := NewQuantileSketch(), NewQuantileSketch(), NewQuantileSketch()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		v := rng.ExpFloat64() * 8
		whole.Add(v)
		if i%2 == 0 {
			left.Add(v)
		} else {
			right.Add(v)
		}
	}
	left.Merge(right)
	if left.Count() != whole.Count() {
		t.Fatalf("merged count %d, want %d", left.Count(), whole.Count())
	}
	for _, q := range []float64{0.1, 0.5, 0.95, 0.99} {
		if left.Quantile(q) != whole.Quantile(q) {
			t.Errorf("q=%.2f: merged %.6f != whole %.6f", q, left.Quantile(q), whole.Quantile(q))
		}
	}
	if left.Min() != whole.Min() || left.Max() != whole.Max() {
		t.Errorf("merged extremes [%.4f, %.4f] != whole [%.4f, %.4f]",
			left.Min(), left.Max(), whole.Min(), whole.Max())
	}
	left.Merge(nil) // a nil merge is a no-op
	if left.Count() != whole.Count() {
		t.Errorf("nil merge changed the count to %d", left.Count())
	}
}

func TestSketchEmptyAndEdgeValues(t *testing.T) {
	s := NewQuantileSketch()
	if !math.IsNaN(s.Quantile(0.5)) || !math.IsNaN(s.Mean()) {
		t.Error("empty sketch should report NaN")
	}
	s.Add(-5)         // clamped to 0
	s.Add(0)          // below lowest bucket boundary
	s.Add(math.NaN()) // clamped to 0
	s.Add(1e12)       // beyond the top bucket: clamped, max stays exact
	if s.Count() != 4 {
		t.Fatalf("count = %d", s.Count())
	}
	if s.Min() != 0 {
		t.Errorf("min = %v, want 0", s.Min())
	}
	if s.Max() != 1e12 {
		t.Errorf("max = %v, want 1e12", s.Max())
	}
	if q := s.Quantile(1); q != 1e12 {
		t.Errorf("q=1 -> %v, want clamped to exact max", q)
	}
	s.AddN(3, 0)
	s.AddN(3, -2)
	if s.Count() != 4 {
		t.Error("non-positive weights must be no-ops")
	}
}

func TestSketchConcurrentAdds(t *testing.T) {
	// Concurrent adders must race-cleanly produce the same multiset as a
	// serial insert (run under -race in CI).
	s := NewQuantileSketch()
	const workers, perWorker = 8, 4000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				s.Add(rng.ExpFloat64() * 10)
			}
		}(w)
	}
	wg.Wait()

	serial := NewQuantileSketch()
	for w := 0; w < workers; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < perWorker; i++ {
			serial.Add(rng.ExpFloat64() * 10)
		}
	}
	if s.Count() != int64(workers*perWorker) {
		t.Fatalf("lost adds: %d", s.Count())
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if s.Quantile(q) != serial.Quantile(q) {
			t.Errorf("q=%.2f: concurrent %.6f != serial %.6f", q, s.Quantile(q), serial.Quantile(q))
		}
	}
}

// TestSketchEmptyEdgeCases table-tests the zero-count corners: quantiles
// of an empty sketch, merging an empty sketch in either direction, and
// bad quantile arguments must neither panic nor skew buckets.
func TestSketchEmptyEdgeCases(t *testing.T) {
	filled := func() *QuantileSketch {
		s := NewQuantileSketch()
		for _, v := range []float64{1, 2, 3, 4, 5} {
			s.Add(v)
		}
		return s
	}
	cases := []struct {
		name  string
		build func() *QuantileSketch
		// want describes the sketch after the scenario: count, and the
		// expected p50 (NaN = sketch must report empty).
		count int64
		p50   float64
	}{
		{"empty quantile", NewQuantileSketch, 0, math.NaN()},
		{"empty merged into empty", func() *QuantileSketch {
			s := NewQuantileSketch()
			s.Merge(NewQuantileSketch())
			return s
		}, 0, math.NaN()},
		{"empty merged into filled", func() *QuantileSketch {
			s := filled()
			s.Merge(NewQuantileSketch())
			return s
		}, 5, 3},
		{"filled merged into empty", func() *QuantileSketch {
			s := NewQuantileSketch()
			s.Merge(filled())
			return s
		}, 5, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build()
			if got := s.Count(); got != tc.count {
				t.Errorf("count = %d, want %d", got, tc.count)
			}
			got := s.Quantile(0.5)
			if math.IsNaN(tc.p50) {
				if !math.IsNaN(got) {
					t.Errorf("p50 = %v, want NaN", got)
				}
				for _, m := range []float64{s.Mean(), s.Min(), s.Max()} {
					if !math.IsNaN(m) {
						t.Errorf("empty sketch stat = %v, want NaN", m)
					}
				}
				return
			}
			if math.Abs(got-tc.p50)/tc.p50 > relErr {
				t.Errorf("p50 = %v, want ~%v", got, tc.p50)
			}
			// Min/max must be exact — an empty merge must not disturb them.
			if s.Min() != 1 || s.Max() != 5 {
				t.Errorf("min/max = %v/%v, want 1/5", s.Min(), s.Max())
			}
		})
	}
}

func TestSketchMergeEmptyKeepsMinMax(t *testing.T) {
	// Regression shape: an empty sketch carries zero min/max fields;
	// merging it must not pull the target's min to 0 or touch buckets.
	s := NewQuantileSketch()
	s.Add(10)
	s.Add(20)
	s.Merge(NewQuantileSketch())
	if s.Min() != 10 || s.Max() != 20 || s.Count() != 2 {
		t.Errorf("merge of empty skewed the sketch: min=%v max=%v n=%d", s.Min(), s.Max(), s.Count())
	}
	if got := s.Sum(); got != 30 {
		t.Errorf("sum = %v, want 30", got)
	}
}

func TestSketchSelfMergeDoubles(t *testing.T) {
	// Merging a sketch into itself must not deadlock on its own mutex;
	// it doubles the multiset (min/max/quantiles unchanged).
	s := NewQuantileSketch()
	for _, v := range []float64{2, 4, 8} {
		s.Add(v)
	}
	p50 := s.Quantile(0.5)
	done := make(chan struct{})
	go func() { s.Merge(s); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("self-merge deadlocked")
	}
	if s.Count() != 6 || s.Sum() != 28 {
		t.Errorf("self-merge: n=%d sum=%v, want 6/28", s.Count(), s.Sum())
	}
	if s.Min() != 2 || s.Max() != 8 || s.Quantile(0.5) != p50 {
		t.Errorf("self-merge moved the distribution: min=%v max=%v p50=%v", s.Min(), s.Max(), s.Quantile(0.5))
	}
}

func TestSketchQuantileArgumentClamping(t *testing.T) {
	s := NewQuantileSketch()
	s.Add(1)
	s.Add(100)
	if got := s.Quantile(-0.5); got != 1 {
		t.Errorf("q<0 = %v, want exact min", got)
	}
	if got := s.Quantile(1.5); got != 100 {
		t.Errorf("q>1 = %v, want exact max", got)
	}
	if got := s.Quantile(math.NaN()); !math.IsNaN(got) {
		t.Errorf("q=NaN = %v, want NaN", got)
	}
}

func TestSketchStateRoundTrip(t *testing.T) {
	s := NewQuantileSketch()
	for i := 0; i < 5000; i++ {
		s.AddN(float64(i%97)/3+0.5, int64(i%5+1))
	}
	restored, err := SketchFromState(s.State())
	if err != nil {
		t.Fatal(err)
	}
	if restored.Count() != s.Count() || restored.Sum() != s.Sum() ||
		restored.Min() != s.Min() || restored.Max() != s.Max() {
		t.Fatalf("restored aggregates diverge: %v vs %v", restored, s)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if restored.Quantile(q) != s.Quantile(q) {
			t.Errorf("q=%v: restored %v, original %v", q, restored.Quantile(q), s.Quantile(q))
		}
	}
	// Restored sketches keep full resolution: merging with a fresh sketch
	// must still work.
	restored.Merge(NewQuantileSketch())
	if _, err := SketchFromState(SketchState{}); err == nil {
		t.Error("zero-value sketch state accepted")
	}
}

func TestSummaryAndCounterStateRoundTrip(t *testing.T) {
	var sum Summary
	for _, v := range []float64{3, -1, 7.5, 0.25} {
		sum.Add(v)
	}
	back := SummaryFromState(sum.State())
	if back != sum {
		t.Fatalf("summary round-trip diverged: %+v vs %+v", back, sum)
	}
	c := NewCounter()
	c.Inc("a", 3)
	c.Inc("b", 9)
	rc := CounterFromState(c.State())
	for _, l := range c.Labels() {
		if rc.Get(l) != c.Get(l) {
			t.Errorf("counter %s: %d vs %d", l, rc.Get(l), c.Get(l))
		}
	}
}

// logIndex is the bucket formula the index table is built from, kept as
// the oracle: ceil(log(v/lowest)/log(gamma)), with NaN, negatives and
// everything up to lowest in bucket 0 and everything past the last
// bound (+Inf included) in the last bucket.
func logIndex(v float64) int {
	if math.IsNaN(v) || v <= sketchLowest {
		return 0
	}
	x := math.Ceil(math.Log(v/sketchLowest) / math.Log(sketchGamma))
	if x >= sketchBuckets-1 {
		return sketchBuckets - 1
	}
	return int(x)
}

// TestSketchIndexMatchesLogOracle pins the table index to the log
// formula: at every ulp within 256 of each nominal bucket bound
// lowest·gamma^i and of each table bound, on 5M log-uniform samples over [1e-4, 1e9], and at the
// edge values.
func TestSketchIndexMatchesLogOracle(t *testing.T) {
	tbl := bucketIndex()
	check := func(v float64) {
		t.Helper()
		if got, want := tbl.index(v), logIndex(v); got != want {
			t.Fatalf("index(%v [%#x]) = %d, log formula says %d", v, math.Float64bits(v), got, want)
		}
	}
	// Around the nominal bounds (which sit up to ~250 ulps from the
	// formula's) and around the table's own bounds.
	for i := 0; i < sketchBuckets; i++ {
		for _, c := range []float64{sketchLowest * math.Pow(sketchGamma, float64(i)), tbl.upper[i]} {
			if math.IsInf(c, 1) {
				continue // the last bucket has no finite bound
			}
			b := math.Float64bits(c)
			for d := uint64(0); d <= 256; d++ {
				check(math.Float64frombits(b - d))
				check(math.Float64frombits(b + d))
			}
		}
	}
	rng := rand.New(rand.NewSource(13))
	lo, hi := math.Log(1e-4), math.Log(1e9)
	for k := 0; k < 5_000_000; k++ {
		check(math.Exp(lo + (hi-lo)*rng.Float64()))
	}
	for _, v := range []float64{0, sketchLowest, math.SmallestNonzeroFloat64, 1e300, math.MaxFloat64, math.Inf(1)} {
		check(v)
	}
}

// TestSketchAddInfAndClampedValues is the regression for +Inf: it used to
// index a negative bucket and panic; it now lands in the last bucket with
// Max exact. NaN and negatives keep clamping to 0 in bucket 0.
func TestSketchAddInfAndClampedValues(t *testing.T) {
	s := NewQuantileSketch()
	s.AddN(math.Inf(1), 3)
	st := s.State()
	if len(st.Buckets) != sketchBuckets || st.Buckets[sketchBuckets-1] != 3 {
		t.Fatalf("+Inf not in the last bucket: %d trimmed buckets", len(st.Buckets))
	}
	if !math.IsInf(s.Max(), 1) || !math.IsInf(s.Quantile(1), 1) {
		t.Errorf("max = %v, q1 = %v, want +Inf", s.Max(), s.Quantile(1))
	}

	c := NewQuantileSketch()
	c.AddN(math.NaN(), 2)
	c.AddN(-7, 5)
	c.AddN(math.Inf(-1), 1)
	st = c.State()
	if len(st.Buckets) != 1 || st.Buckets[0] != 8 {
		t.Errorf("NaN/negatives: buckets %v, want [8]", st.Buckets)
	}
	if c.Min() != 0 || c.Max() != 0 || c.Sum() != 0 {
		t.Errorf("NaN/negatives: min=%v max=%v sum=%v, want 0", c.Min(), c.Max(), c.Sum())
	}
}

// TestSketchAddBatchMatchesAddN: one AddBatch equals AddN over the same
// observations in order, down to the bits of the floating-point sum.
func TestSketchAddBatchMatchesAddN(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	obs := make([]Weighted, 20000)
	for i := range obs {
		obs[i] = Weighted{V: math.Exp(rng.NormFloat64()*2 + 2), N: int64(rng.Intn(2000)) - 10}
	}
	obs = append(obs, Weighted{V: 0, N: 4}, Weighted{V: math.NaN(), N: 2}, Weighted{V: -3, N: 1}, Weighted{V: 1e9, N: 1})
	seq, batch := NewQuantileSketch(), NewQuantileSketch()
	seq.AddN(12.5, 7) // both start non-empty
	batch.AddN(12.5, 7)
	for _, o := range obs {
		seq.AddN(o.V, o.N)
	}
	batch.AddBatch(obs)
	batch.AddBatch(nil)
	a, b := seq.State(), batch.State()
	if math.Float64bits(a.Sum) != math.Float64bits(b.Sum) {
		t.Errorf("sum bits %#x vs %#x", math.Float64bits(a.Sum), math.Float64bits(b.Sum))
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("AddBatch state diverges from sequential AddN")
	}
}

// TestSketchFromStateRejectsCorrupt: a state no sketch could have
// exported is refused with an error instead of restoring a sketch that
// panics on its next Add or allocates what NumBkts says.
func TestSketchFromStateRejectsCorrupt(t *testing.T) {
	good := func() SketchState {
		s := NewQuantileSketch()
		s.AddN(2, 3)
		s.AddN(40, 1)
		return s.State()
	}
	if _, err := SketchFromState(good()); err != nil {
		t.Fatalf("valid state refused: %v", err)
	}
	cases := []struct {
		name string
		edit func(*SketchState)
	}{
		{"NaN lowest", func(s *SketchState) { s.Lowest = math.NaN() }},
		{"+Inf lowest", func(s *SketchState) { s.Lowest = math.Inf(1) }},
		{"NaN gamma", func(s *SketchState) { s.Gamma = math.NaN() }},
		{"+Inf gamma", func(s *SketchState) { s.Gamma = math.Inf(1) }},
		{"other lowest", func(s *SketchState) { s.Lowest = 1e-2 }},
		{"other gamma", func(s *SketchState) { s.Gamma = 1.05 }},
		{"huge bucket count", func(s *SketchState) { s.NumBkts = 1 << 40 }},
		{"other bucket count", func(s *SketchState) { s.NumBkts = sketchBuckets + 1 }},
		{"negative bucket count", func(s *SketchState) { s.NumBkts = -1 }},
		{"too many buckets", func(s *SketchState) { s.Buckets = make([]uint64, sketchBuckets+1) }},
		{"count above buckets", func(s *SketchState) { s.Count++ }},
		{"count below buckets", func(s *SketchState) { s.Count-- }},
		{"bucket overflow", func(s *SketchState) { s.Buckets[0] = math.MaxUint64; s.Count = 3 }},
		{"NaN sum", func(s *SketchState) { s.Sum = math.NaN() }},
		{"NaN min", func(s *SketchState) { s.Min = math.NaN() }},
		{"min above max", func(s *SketchState) { s.Min = s.Max + 1 }},
		{"negative min", func(s *SketchState) { s.Min = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := good()
			tc.edit(&st)
			if _, err := SketchFromState(st); err == nil {
				t.Errorf("corrupt state accepted: %+v", st)
			}
		})
	}
}

// BenchmarkSketchIndex times the log formula and the table index over
// the same log-uniform latencies, the two passes interleaved in every
// iteration, and reports their ratio as sketch_index_speedup_x: a
// machine-independent figure the bench guard gates on (BENCH_13.json).
func BenchmarkSketchIndex(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = math.Exp(math.Log(0.5) + (math.Log(500)-math.Log(0.5))*rng.Float64())
	}
	tbl := bucketIndex()
	const rounds = 64
	var logNs, tableNs int64
	sink := 0
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		for r := 0; r < rounds; r++ {
			for _, v := range vals {
				sink += logIndex(v)
			}
		}
		t1 := time.Now()
		for r := 0; r < rounds; r++ {
			for _, v := range vals {
				sink += tbl.index(v)
			}
		}
		t2 := time.Now()
		logNs += t1.Sub(t0).Nanoseconds()
		tableNs += t2.Sub(t1).Nanoseconds()
	}
	if sink < 0 {
		b.Fatal("unreachable")
	}
	per := float64(b.N) * rounds * float64(len(vals))
	b.ReportMetric(float64(logNs)/per, "log_ns")
	b.ReportMetric(float64(tableNs)/per, "table_ns")
	b.ReportMetric(float64(logNs)/float64(tableNs), "sketch_index_speedup_x")
}

// TestBuiltinMinMaxMatchMath: the sketch tracks extremes with the
// builtin min/max, which must agree bit for bit with math.Min/Max on
// every value the sketch can hold, signed zeros and infinities included.
func TestBuiltinMinMaxMatchMath(t *testing.T) {
	vals := []float64{math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1e-3, 1, 17.25, 1e300, math.Inf(1)}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := min(a, b), math.Min(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("min(%v, %v) = %v, math.Min %v", a, b, got, want)
			}
			if got, want := max(a, b), math.Max(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("max(%v, %v) = %v, math.Max %v", a, b, got, want)
			}
		}
	}
}
