package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// tinySize runs every workload end to end in about a second each.
var tinySize = sizes{
	setupReps:   1,
	minEpisodes: 2,
	cdnHours:    48,
	churnHours:  12,
	shardHours:  120,
	ckptEvery:   24,
	liveHours:   48,
}

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if !equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, benchmark prints %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s (%s), benchmark %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, benchmark prints %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s (%s), benchmark %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestWorkloadsTiny runs each workload at a tiny size: untraced and
// traced at one seed, untraced at another. Every check must pass, each
// run must print exactly the metrics BENCHMARK.json names, the digest
// must repeat at a seed and between traced and untraced runs, and a
// different seed must change it.
func TestWorkloadsTiny(t *testing.T) {
	f := readBenchmarkFile(t)
	var e2e, layers []string
	for _, m := range f.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range f.PerLayer {
		layers = append(layers, m.Name)
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			run := func(seed int64, trace bool) *report {
				rep, err := runBench(w, seed, 0, trace, tinySize)
				if err != nil {
					t.Fatalf("seed %d trace %v: %v", seed, trace, err)
				}
				if rep.failed != 0 {
					t.Errorf("seed %d trace %v: %d of %d checks failed: %v", seed, trace, rep.failed, rep.attempted, rep.lines)
				}
				return rep
			}
			plain, traced, other := run(1, false), run(1, true), run(2, false)
			if got := keys(plain.metrics); !equal(got, sorted(e2e)) {
				t.Errorf("untraced run prints %v, BENCHMARK.json end_to_end %v", got, sorted(e2e))
			}
			if got := keys(traced.metrics); !equal(got, sorted(layers)) {
				t.Errorf("traced run prints %v, BENCHMARK.json per_layer %v", got, sorted(layers))
			}
			for _, name := range e2e {
				if plain.metrics[name] == 0 {
					t.Errorf("end-to-end metric %s is 0", name)
				}
			}
			if plain.digest != traced.digest {
				t.Errorf("seed 1 digest %s untraced, %s traced", plain.digest, traced.digest)
			}
			if plain.digest == other.digest {
				t.Errorf("seeds 1 and 2 give the same digest %s", plain.digest)
			}
		})
	}
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sorted(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
