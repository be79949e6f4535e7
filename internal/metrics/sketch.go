package metrics

import (
	"fmt"
	"math"
	"sync"
)

// QuantileSketch estimates quantiles of a non-negative stream in fixed
// memory: a logarithmically-bucketed histogram (DDSketch-style) whose
// bucket boundaries grow geometrically, giving a bounded relative error on
// every reported quantile regardless of stream length. The request-level
// traffic telemetry uses it for latency quantiles over billions of
// requests, so observations carry integer weights (AddN) and any two
// sketches merge exactly.
//
// The sketch is a pure function of the inserted multiset: insertion order,
// interleaving, and merge order never change a reported quantile, which
// keeps parallel and serial sweep runs bit-identical.
//
// A QuantileSketch is safe for concurrent use.
type QuantileSketch struct {
	mu sync.Mutex
	// buckets[i] counts values in (lowest*gamma^(i-1), lowest*gamma^i];
	// bucket 0 additionally absorbs everything <= lowest and the last
	// bucket everything above its lower bound.
	buckets  [sketchBuckets]uint64
	count    uint64
	sum      float64
	min, max float64
}

// Sketch resolution: ~1% relative error over a value range of
// [0.001, ~3e6] — microseconds to about an hour when values are
// milliseconds. Every sketch has this resolution, so any two merge.
const (
	sketchLowest  = 1e-3
	sketchGamma   = 1.02
	sketchBuckets = 1100
)

// NewQuantileSketch returns a sketch at the default resolution (~1%
// relative error, 1100 buckets, ~9 KB fixed).
func NewQuantileSketch() *QuantileSketch {
	//detlint:hotalloc amortized: one sketch per replica/stream, created once and reused for its lifetime
	return &QuantileSketch{}
}

// Add records one observation. Negative or NaN values are clamped into the
// lowest bucket (the sketch tracks non-negative quantities).
func (s *QuantileSketch) Add(v float64) { s.AddN(v, 1) }

// AddN records n identical observations in O(1); n <= 0 is a no-op.
func (s *QuantileSketch) AddN(v float64, n int64) {
	t := bucketIndex()
	s.mu.Lock()
	s.add(t, v, n)
	s.mu.Unlock()
}

// Weighted is one weighted observation: N copies of V.
type Weighted struct {
	V float64
	N int64
}

// AddBatch records obs in order under one lock. The result is
// bit-identical to calling AddN on each element in turn, the sum
// included.
func (s *QuantileSketch) AddBatch(obs []Weighted) {
	if len(obs) == 0 {
		return
	}
	t := bucketIndex()
	s.mu.Lock()
	for _, o := range obs {
		s.add(t, o.V, o.N)
	}
	s.mu.Unlock()
}

// add is AddN's body; the caller holds s.mu.
func (s *QuantileSketch) add(t *bucketTable, v float64, n int64) {
	if n <= 0 {
		return
	}
	if math.IsNaN(v) || v < 0 {
		v = 0
	}
	if s.count == 0 {
		s.min, s.max = v, v
	} else {
		// The builtins treat signed zeros and NaN as math.Min/Max do,
		// and compile inline instead of to a call.
		s.min = min(s.min, v)
		s.max = max(s.max, v)
	}
	s.buckets[t.index(v)] += uint64(n)
	s.count += uint64(n)
	s.sum += v * float64(n)
}

// bucketTable finds a value's bucket without a logarithm. The buckets are
// defined by the formula ceil(log(v/lowest)/log(gamma)), clamped into
// [0, sketchBuckets-1]; the table holds what that formula decides, found
// once on float64 bit patterns:
//
//   - upper[i] is bucket i's exact inclusive upper bound, the largest
//     float64 the formula puts in bucket i or below (+Inf for the last);
//   - cell[k] is the bucket of the smallest float whose exponent and top
//     7 mantissa bits read cellBase+k. A cell spans a ratio below
//     2^(1/128) < gamma, so each of its values lies in cell[k] or the next
//     bucket, and one comparison against upper picks which.
type bucketTable struct {
	upper    [sketchBuckets]float64
	cell     []uint16
	cellBase uint64
}

// cellShift keeps a float64's sign, exponent and top 7 mantissa bits.
const cellShift = 52 - 7

// bucketIndex returns the process-wide bucket table, building it on
// first use (well under a millisecond).
var bucketIndex = sync.OnceValue(buildBucketTable)

// index maps a non-negative, non-NaN value to its bucket, clamping at
// both ends (+Inf lands in the last bucket).
func (t *bucketTable) index(v float64) int {
	if v <= sketchLowest {
		return 0
	}
	k := math.Float64bits(v)>>cellShift - t.cellBase
	if k >= uint64(len(t.cell)) {
		return sketchBuckets - 1
	}
	i := int(t.cell[k])
	if v > t.upper[i] {
		i++
	}
	return i
}

func buildBucketTable() *bucketTable {
	t := &bucketTable{}
	logGamma := math.Log(sketchGamma)
	// within reports whether the formula puts v (> 0) in bucket i or
	// below: ceil(x) <= i exactly when x <= i.
	within := func(b uint64, i int) bool {
		return math.Log(math.Float64frombits(b)/sketchLowest)/logGamma <= float64(i)
	}
	for i := 0; i < sketchBuckets-1; i++ {
		// Seed at the nominal bound lowest·gamma^i, taken as
		// exp(i·logGamma) so it sits a few ulps from the exact one;
		// bracket it by doubling ulp steps, then bisect down to adjacent
		// bit patterns (lo within, hi not).
		lo := math.Float64bits(sketchLowest * math.Exp(float64(i)*logGamma))
		hi := lo
		if within(lo, i) {
			for d := uint64(1); within(hi, i); d *= 2 {
				lo, hi = hi, hi+d
			}
		} else {
			for d := uint64(1); !within(lo, i); d *= 2 {
				hi, lo = lo, lo-d
			}
		}
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if within(mid, i) {
				lo = mid
			} else {
				hi = mid
			}
		}
		t.upper[i] = math.Float64frombits(lo)
	}
	t.upper[sketchBuckets-1] = math.Inf(1)

	// Cells run from the one holding lowest to the one holding the last
	// finite bound; values past them clamp into the last bucket.
	t.cellBase = math.Float64bits(sketchLowest) >> cellShift
	end := math.Float64bits(t.upper[sketchBuckets-2])>>cellShift + 1
	t.cell = make([]uint16, end-t.cellBase)
	i := 0
	for k := range t.cell {
		first := math.Float64frombits((t.cellBase + uint64(k)) << cellShift)
		for t.upper[i] < first {
			i++
		}
		t.cell[k] = uint16(i)
	}
	return t
}

// Quantile reports the value at quantile q in [0, 1] within the sketch's
// relative error, or NaN when the sketch is empty or q is NaN. Results
// are clamped to the exact observed [min, max].
func (s *QuantileSketch) Quantile(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.count-1))
	var seen uint64
	for i, c := range s.buckets {
		seen += c
		if seen > rank {
			// The clamping buckets at each end report the exact extremes;
			// interior buckets report their geometric midpoint.
			switch i {
			case 0:
				return s.min
			case len(s.buckets) - 1:
				return s.max
			}
			v := sketchLowest * math.Pow(sketchGamma, float64(i)-0.5)
			return math.Min(math.Max(v, s.min), s.max)
		}
	}
	return s.max
}

// Count returns the number of observations (including weights).
func (s *QuantileSketch) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.count)
}

// Sum returns the weighted total of all observations.
func (s *QuantileSketch) Sum() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sum
}

// Mean returns the weighted mean, or NaN when empty.
func (s *QuantileSketch) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 {
		return math.NaN()
	}
	return s.sum / float64(s.count)
}

// Min returns the exact minimum observation, or NaN when empty.
func (s *QuantileSketch) Min() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the exact maximum observation, or NaN when empty.
func (s *QuantileSketch) Max() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 {
		return math.NaN()
	}
	return s.max
}

// Merge folds other into s. Merging an empty sketch is a no-op (min/max
// and buckets are untouched); merging a sketch into itself doubles its
// contents.
func (s *QuantileSketch) Merge(other *QuantileSketch) {
	if other == nil {
		return
	}
	if other == s {
		// Self-merge: double under a single lock — the two-lock path
		// below would deadlock on the shared mutex.
		s.mu.Lock()
		defer s.mu.Unlock()
		for i := range s.buckets {
			s.buckets[i] *= 2
		}
		s.count *= 2
		s.sum *= 2
		return
	}
	// Lock ordering: take the sketches in a fixed (pointer-independent)
	// order is unnecessary here because Merge is the only two-sketch
	// operation and callers merge into a fresh accumulator; a plain
	// two-step copy avoids holding both locks at once.
	other.mu.Lock()
	counts := other.buckets
	oCount, oSum, oMin, oMax := other.count, other.sum, other.min, other.max
	other.mu.Unlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	if oCount == 0 {
		return
	}
	if s.count == 0 {
		s.min, s.max = oMin, oMax
	} else {
		s.min = math.Min(s.min, oMin)
		s.max = math.Max(s.max, oMax)
	}
	for i, c := range counts {
		s.buckets[i] += c
	}
	s.count += oCount
	s.sum += oSum
}

// String implements fmt.Stringer.
func (s *QuantileSketch) String() string {
	if s.Count() == 0 {
		return "QuantileSketch(empty)"
	}
	return fmt.Sprintf("QuantileSketch(n=%d p50=%.3f p99=%.3f max=%.3f)",
		s.Count(), s.Quantile(0.5), s.Quantile(0.99), s.Max())
}

// SketchState is the serializable form of a QuantileSketch, used by
// checkpoint/restore. Buckets are run-length trimmed (trailing zeros
// dropped) so year-scale checkpoints stay small.
type SketchState struct {
	Buckets []uint64 `json:"buckets"`
	NumBkts int      `json:"num_buckets"`
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	Lowest  float64  `json:"lowest"`
	Gamma   float64  `json:"gamma"`
}

// State exports the sketch's accumulator.
func (s *QuantileSketch) State() SketchState {
	s.mu.Lock()
	defer s.mu.Unlock()
	last := len(s.buckets)
	for last > 0 && s.buckets[last-1] == 0 {
		last--
	}
	return SketchState{
		Buckets: append([]uint64(nil), s.buckets[:last]...),
		NumBkts: sketchBuckets,
		Count:   s.count,
		Sum:     s.sum,
		Min:     s.min,
		Max:     s.max,
		Lowest:  sketchLowest,
		Gamma:   sketchGamma,
	}
}

// SketchFromState rebuilds a sketch from an exported state. It rejects a
// state that no sketch could have exported: a resolution other than the
// default (every sketch has it), more buckets than that, a count that is
// not the buckets' total, or extremes and sum that no non-negative stream
// yields.
func SketchFromState(st SketchState) (*QuantileSketch, error) {
	if st.NumBkts != sketchBuckets || st.Lowest != sketchLowest || st.Gamma != sketchGamma {
		return nil, fmt.Errorf("metrics: sketch state resolution (%d buckets, lowest=%v, gamma=%v) is not the default (%d, %v, %v)",
			st.NumBkts, st.Lowest, st.Gamma, sketchBuckets, sketchLowest, sketchGamma)
	}
	if len(st.Buckets) > sketchBuckets {
		return nil, fmt.Errorf("metrics: sketch state carries %d buckets, more than %d", len(st.Buckets), sketchBuckets)
	}
	var total uint64
	for _, c := range st.Buckets {
		if total+c < total {
			return nil, fmt.Errorf("metrics: sketch state bucket counts overflow")
		}
		total += c
	}
	if total != st.Count {
		return nil, fmt.Errorf("metrics: sketch state count %d, but its buckets hold %d", st.Count, total)
	}
	if math.IsNaN(st.Sum) || st.Count > 0 && !(0 <= st.Min && st.Min <= st.Max) {
		return nil, fmt.Errorf("metrics: sketch state sum=%v min=%v max=%v is not from a non-negative stream", st.Sum, st.Min, st.Max)
	}
	s := &QuantileSketch{count: st.Count, sum: st.Sum, min: st.Min, max: st.Max}
	copy(s.buckets[:], st.Buckets)
	return s, nil
}
