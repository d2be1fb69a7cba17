package main

import (
	"math/rand"
	"sync"
	"time"
)

// speedProbe is a fixed piece of reference work written in the benchmark's
// own code: a plain CSR sparse × dense product over a banded matrix that
// does not depend on the seed or on any code of the program. The runs of a
// workload interleave it with the program's operations, so it samples the
// same host as they do, moment by moment.
//
// The host is shared: neighbours on the same cores and memory system make
// the same code run up to 2–3× slower for seconds to minutes at a time
// (README.md, "Host speed"). Every end-to-end time and rate of a window
// is therefore reported at a fixed reference speed: the measured figure
// scaled by the probe's nominal time over its median time beside it. A change to the
// program moves the measured figure and not the probe, so it shows in
// full; a slow stretch of the host moves both and cancels.
type speedProbe struct {
	threads int
	ptr     []int
	col     []int32
	val     []float64
	b, c    []float64
	times   []float64 // ms per run
}

// The probe's size: a working set like the suite's (about 9.5 MiB, above
// two L2s and inside L3), and its time on an unloaded host of the kind
// README.md records. A smaller, cache-resident probe was tried and tracked
// serving's slowdowns worse: it swung 1.0–1.5× where multiplies moved
// 1.0–1.15×.
const (
	probeRows, probePerRow, probeK = 4096, 32, 128
	probeNominalMs                 = 9.5
)

func newSpeedProbe(threads int) *speedProbe {
	p := &speedProbe{threads: threads, ptr: make([]int, probeRows+1),
		b: make([]float64, probeRows*probeK), c: make([]float64, probeRows*probeK)}
	rng := rand.New(rand.NewSource(1))
	stride := probeRows / probePerRow
	for i := 0; i < probeRows; i++ {
		for j := 0; j < probePerRow; j++ {
			p.col = append(p.col, int32((i+j*stride+j)%probeRows))
			p.val = append(p.val, rng.Float64()-0.5)
		}
		p.ptr[i+1] = len(p.col)
	}
	for i := range p.b {
		p.b[i] = rng.Float64() - 0.5
	}
	return p
}

// run times one reference product, split by rows over the probe's threads.
func (p *speedProbe) run() {
	t0 := time.Now()
	var wg sync.WaitGroup
	for t := 0; t < p.threads; t++ {
		lo, hi := probeRows*t/p.threads, probeRows*(t+1)/p.threads
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.rowRange(lo, hi)
		}()
	}
	wg.Wait()
	p.times = append(p.times, toMs(time.Since(t0)))
}

func (p *speedProbe) rowRange(lo, hi int) {
	const k = probeK
	for i := lo; i < hi; i++ {
		ci := p.c[i*k : i*k+k]
		clear(ci)
		for j := p.ptr[i]; j < p.ptr[i+1]; j++ {
			v, bj := p.val[j], p.b[int(p.col[j])*k:int(p.col[j])*k+k]
			for x := range ci {
				ci[x] += v * bj[x]
			}
		}
	}
}

// slowdown is the median time of the probe's runs from the from'th on,
// over its nominal time: how much slower than nominal the host ran over
// that stretch. Every time measured in the stretch is divided by it,
// every rate multiplied.
func (p *speedProbe) slowdown(from int) float64 {
	return median(p.times[from:]) / probeNominalMs
}
