package main

import (
	"math"
	"slices"
	"time"
)

// The benchmark shares its machine with other tenants, whose load changes
// the machine's speed by up to twofold over minutes. To keep its timings
// comparable between runs made at different times, the benchmark times a
// fixed kernel of its own right before every set-up and every episode
// and scales the time measured by refKernel over the kernel's time. The
// kernel uses none of the repository's code, so a change to the program
// moves the scaled timings exactly as it moves the raw ones.
//
// refKernel is the kernel's time on the reference machine, a 2-vCPU
// x86-64 virtual machine; timings are reported in seconds of that
// machine.
const refKernel = 80 * time.Millisecond

// kernelN is the kernel's working set in elements: 12 MiB in all, beyond
// a core's private caches, as the workloads' heaps are.
const kernelN = 1 << 20

var kernelBuf struct {
	xs   []float64
	idx  []int32
	sums map[int32]float64
	sink float64
}

// timeKernel runs the kernel once and returns its wall time: synthetic
// samples from a xorshift generator through math.Log1p, random gathers
// over the working set, map updates, and a sort. The buffers are kept
// between calls, so the kernel neither allocates nor triggers collection.
func timeKernel() time.Duration {
	b := &kernelBuf
	if b.xs == nil {
		b.xs, b.idx, b.sums = make([]float64, kernelN), make([]int32, kernelN), make(map[int32]float64, 1<<16)
	}
	clear(b.sums)
	t0 := time.Now()
	s := uint64(88172645463325252)
	for i := range b.xs {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		b.xs[i] = math.Log1p(float64(s>>11) / (1 << 53))
		b.idx[i] = int32(s % kernelN)
	}
	var acc float64
	for r := 0; r < 2; r++ {
		for _, j := range b.idx {
			acc += b.xs[j]
		}
	}
	for i, j := range b.idx[:1<<17] {
		b.sums[j&(1<<16-1)] += b.xs[i]
	}
	slices.Sort(b.xs[:1<<18])
	b.sink = acc + float64(len(b.sums)) + b.xs[0]
	return time.Since(t0)
}

// scaled converts a duration measured right after a kernel run that took
// kernel into seconds of the reference machine.
func scaled(d, kernel time.Duration) float64 {
	return d.Seconds() * refKernel.Seconds() / kernel.Seconds()
}
