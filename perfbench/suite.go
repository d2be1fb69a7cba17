package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	spmmbench "repro"
	"repro/internal/delta"
	"repro/internal/formats"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

// The paper's suite: k=128 and block size 4 (§5.1), threads = nproc, on
// one banded FEM matrix and one power-law matrix. The scales put each
// matrix's CSR working set (A + B + C) above two L2 caches and far inside
// L3; README.md gives the sizes.
const (
	suiteK     = 128
	suiteBlock = 4
	// setupTrials is how many times the suite prepares every format on
	// both matrices; setup_s is the median.
	setupTrials    = 7
	suiteMinRounds = 110
	// extendPerRound is the delta.Extend batches timed after each round.
	extendPerRound = 20
)

var suiteMatrices = []struct {
	name  string
	scale float64
}{{"cant", 0.06}, {"torso1", 0.025}}

// suiteCase is one format × matrix pair.
type suiteCase struct {
	format string
	mi     int
	kern   spmmbench.Kernel
	c      *matrix.Dense[float64]
	hash   uint64 // bits of the first output, checked against the reference
}

type suiteMatrix struct {
	name string
	a    *matrix.COO[float64]
	b    *matrix.Dense[float64]
	ref  *reference
}

func (e *env) suiteParams() spmmbench.Params {
	p := spmmbench.DefaultParams()
	p.Threads, p.K, p.BlockSize, p.Reps = e.threads, suiteK, suiteBlock, 1
	return p
}

func loadSuite(seed int64) ([]*suiteMatrix, error) {
	var ms []*suiteMatrix
	for _, sm := range suiteMatrices {
		a, err := genMatrix(sm.name, sm.scale, seed)
		if err != nil {
			return nil, err
		}
		b := matrix.NewDenseRand[float64](a.Cols, suiteK, mix(seed, "suite-b/"+sm.name))
		ms = append(ms, &suiteMatrix{name: sm.name, a: a, b: b, ref: referenceProduct(a, b, suiteK)})
	}
	return ms, nil
}

// prepareSuite builds and prepares every format on every matrix through
// the library API, setupTrials times, and returns the last set of
// kernels with the median total and the median per-format prepare time.
func prepareSuite(ms []*suiteMatrix, p spmmbench.Params) ([]*suiteCase, float64, map[string]float64, error) {
	var totals []float64
	perFormat := map[string][]float64{}
	var cases []*suiteCase
	for trial := 0; trial < setupTrials; trial++ {
		cases = nil // drop the previous trial's formats before collecting
		inputs := make([]*matrix.COO[float64], 0, len(ms)*len(suiteFormats))
		for range suiteFormats {
			for _, m := range ms {
				inputs = append(inputs, m.a.Clone())
			}
		}
		var total time.Duration
		fmtTime := map[string]time.Duration{}
		for fi, f := range suiteFormats {
			for mi, m := range ms {
				k, err := spmmbench.NewKernel(f+"-omp", spmmbench.KernelOptions{})
				if err != nil {
					return nil, 0, nil, err
				}
				// A collection before each timed Prepare starts every one
				// from the same heap state, which steadies both set-up time
				// and the peak resident set.
				runtime.GC()
				t0 := time.Now()
				err = k.Prepare(inputs[fi*len(ms)+mi], p)
				d := time.Since(t0)
				if err != nil {
					return nil, 0, nil, fmt.Errorf("prepare %s on %s: %w", f, m.name, err)
				}
				total += d
				fmtTime[f] += d
				cases = append(cases, &suiteCase{format: f, mi: mi, kern: k,
					c: matrix.NewDense[float64](m.a.Rows, suiteK)})
			}
		}
		totals = append(totals, total.Seconds())
		for f, d := range fmtTime {
			perFormat[f] = append(perFormat[f], toMs(d))
		}
	}
	med := map[string]float64{}
	for f, xs := range perFormat {
		med[f] = median(xs)
	}
	return cases, median(totals), med, nil
}

// suiteWindow runs whole rounds (every case once) until the window ends,
// and on a slow host on to suiteMinRounds rounds (at most three windows
// long) so the round p90 keeps ten samples beyond it. It returns each
// case's Calculate times and each round's total.
//
// After each round it times extendPerRound batches of the extend stream,
// so the library's mutation step is sampled across the whole window.
func suiteWindow(e *env, ms []*suiteMatrix, cases []*suiteCase, p spmmbench.Params, dur time.Duration, rec *recorder, x *extendStream, probe *speedProbe, o *outcome) (map[*suiteCase][]float64, []float64) {
	times := map[*suiteCase][]float64{}
	var rounds []float64
	start := time.Now()
	for end := start.Add(dur); time.Now().Before(end) || (len(rounds) < suiteMinRounds && time.Since(start) < 3*dur); {
		var round time.Duration
		for i, c := range cases {
			if i == len(cases)/2 {
				probe.run()
			}
			m := ms[c.mi]
			o.attempted++
			start := time.Now()
			err := c.kern.Calculate(m.b, c.c, p)
			d := time.Since(start)
			rec.add("core", "Calculate "+c.format+" "+m.name, 0, "", start, d)
			if err != nil {
				o.failed++
				o.problem("%s on %s: %v", c.format, m.name, err)
				continue
			}
			round += d
			times[c] = append(times[c], toMs(d))
			// Outside the timed call: a result with the verified bits is
			// correct; any other result must pass the reference bound.
			if panelHash(c.c, suiteK) != c.hash {
				if err := m.ref.check(c.c); err != nil {
					o.problem("%s on %s: %v", c.format, m.name, err)
				}
			}
		}
		rounds = append(rounds, toMs(round))
		probe.run()
		o.attempted += extendPerRound
		if err := x.run(extendPerRound); err != nil {
			o.failed++
			o.problem("%v", err)
		}
	}
	return times, rounds
}

func runSuite(e *env) (*outcome, error) {
	o := newOutcome()
	ms, err := loadSuite(e.seed)
	if err != nil {
		return nil, err
	}
	p := e.suiteParams()
	cases, setup, prepMs, err := prepareSuite(ms, p)
	if err != nil {
		return nil, err
	}
	// Warm-up: each case once, checked in full against the reference.
	for _, c := range cases {
		m := ms[c.mi]
		if err := c.kern.Calculate(m.b, c.c, p); err != nil {
			return nil, fmt.Errorf("%s on %s: %w", c.format, m.name, err)
		}
		if err := m.ref.check(c.c); err != nil {
			o.problem("%s on %s: %v", c.format, m.name, err)
		}
		c.hash = panelHash(c.c, suiteK)
	}
	// The peak so far covers the generated inputs, the reference panels
	// and every prepared format; the window adds nothing of the program's.
	rss := selfRSSMB()
	window := e.seconds
	if e.traced {
		window = e.seconds / 2
	}
	steal0 := readSteal()
	x := newExtendStream(ms[0].a, e.seed)
	probe := newSpeedProbe(e.threads)
	times, rounds := suiteWindow(e, ms, cases, p, window, nil, x, probe, o)
	stealPct := readSteal().since(steal0)
	slow := probe.slowdown(0)
	fmt.Fprintf(e.out, "# host slowdown %.3f in the window\n", slow)
	// Not scaled: Prepare is single-threaded allocation work the probe does
	// not track (README.md, "Host speed").
	o.e2e["setup_s"] = setup
	flops := func(c *suiteCase) float64 { return kernels.SpMMFlops(ms[c.mi].a.NNZ(), suiteK) }
	var allF, allT float64
	for _, f := range suiteFormats {
		var fF, fT float64
		for _, c := range cases {
			if c.format == f {
				fF += flops(c)
				fT += median(times[c]) / 1e3
			}
		}
		o.e2e["mflops_"+f] = fF / fT / 1e6 * slow
		allF, allT = allF+fF, allT+fT
	}
	fmt.Fprintf(e.out, "# raw mflops %.1f, raw round p50 %.3f ms\n", allF/allT/1e6, median(rounds))
	o.e2e["mflops"] = allF / allT / 1e6 * slow
	lat := summarize(rounds)
	o.e2e["latency_p50_ms"] = lat.P50 / slow
	o.e2e["throughput_rps"] = float64(len(cases)) / (lat.P50 / 1e3) * slow
	fmt.Fprintf(e.out, "# %d rounds of %d multiplies; round p90 %.3f ms (scaled %.3f) with %d samples beyond it; host steal %.1f%%\n",
		len(rounds), len(cases), lat.P90, lat.P90/slow, lat.Count90, stealPct)
	o.e2e["rss_peak_mb"] = rss
	mut := summarize(x.times)
	// Not scaled: a median of calls of tens of microseconds on one thread
	// falls between the host's stolen slices, and dividing it by the
	// probe's slowdown read it up to 2.4× low in heavy steal (README.md).
	o.e2e["mutate_p50_ms"] = mut.P50
	fmt.Fprintf(e.out, "# %d delta.Extend batches; p90 %.4f ms with %d samples beyond it\n",
		mut.N, mut.P90, mut.Count90)

	if e.traced {
		_, tracedRounds := suiteWindow(e, ms, cases, p, e.seconds-window, e.rec, x, probe, o)
		o.layer["trace.overhead_pct"] = (median(tracedRounds)/median(rounds) - 1) * 100
		for _, f := range suiteFormats {
			o.layer["formats."+f+".prepare_ms"] = prepMs[f]
			var bytes int
			for _, c := range cases {
				if c.format == f {
					bytes += c.kern.Bytes()
				}
			}
			o.layer["formats."+f+".bytes_mb"] = float64(bytes) / (1 << 20)
		}
		if err := kernelLayers(e, ms, cases, p, o); err != nil {
			return nil, err
		}
		o.layer["parallel.imbalance"] = imbalance(ms[1].a, e.threads)
		o.layer["delta.extend_us"] = median(x.times) * 1e3
		if err := ladders(e, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// kernelLayers times, on the suite's own prepared data, the direct
// internal/kernels parallel and serial calls next to core's Calculate,
// interleaved so drift hits all three alike, and sets the kernels.*,
// core.* and triad metrics.
func kernelLayers(e *env, ms []*suiteMatrix, cases []*suiteCase, p spmmbench.Params, o *outcome) error {
	const reps = 25
	var ws int64
	omp := map[string]float64{}
	serialT := map[string]float64{}
	calc := map[string]float64{}
	flopsF := map[string]float64{}
	bytesF := map[string]int64{}
	for _, c := range cases {
		m := ms[c.mi]
		par, ser, err := directCalls(c.format, m.a, suiteBlock, e.threads)
		if err != nil {
			return err
		}
		tr, err := formatTraffic(c.format, m.a, suiteBlock, suiteK)
		if err != nil {
			return err
		}
		if c.format == "csr" {
			ws = max(ws, tr.total())
		}
		out := matrix.NewDense[float64](m.a.Rows, suiteK)
		var tp, ts, tc []float64
		for r := 0; r < reps; r++ {
			tp = append(tp, timeMs(func() error { return par(m.b, out, suiteK) }))
			if r < 3 {
				ts = append(ts, timeMs(func() error { return ser(m.b, out, suiteK) }))
			}
			tc = append(tc, timeMs(func() error { return c.kern.Calculate(m.b, c.c, p) }))
		}
		if err := m.ref.check(out); err != nil {
			o.problem("direct %s kernel on %s: %v", c.format, m.name, err)
		}
		omp[c.format] += median(tp)
		serialT[c.format] += median(ts)
		calc[c.format] += median(tc)
		flopsF[c.format] += kernels.SpMMFlops(m.a.NNZ(), suiteK)
		bytesF[c.format] += tr.total()
	}
	triad := triadGBps(ws, 300*time.Millisecond)
	o.layer["kernels.triad_gbps"] = triad
	for _, f := range suiteFormats {
		o.layer["kernels."+f+".omp_ms"] = omp[f]
		gbps := float64(bytesF[f]) / (omp[f] / 1e3) / 1e9
		o.layer["kernels."+f+".gbps"] = gbps
		o.layer["kernels."+f+".ceiling_pct"] = gbps / triad * 100
		o.layer["kernels."+f+".serial_mflops"] = flopsF[f] / (serialT[f] / 1e3) / 1e6
		o.layer["core."+f+".overhead_us"] = (calc[f] - omp[f]) / float64(len(ms)) * 1e3
	}
	_, l2, l3 := cacheSizes()
	fmt.Fprintf(e.out, "# triad probe over %s (L2 %s, L3 %s)\n", mib(ws), mib(l2), mib(l3))
	return nil
}

// kernelCall is one prepared direct kernel call.
type kernelCall func(b, c *matrix.Dense[float64], k int) error

// directCalls prepares the format exactly as core's "<format>-omp" Prepare
// does and returns the plain internal/kernels parallel and serial calls
// that core's Calculate dispatches to.
func directCalls(format string, a *matrix.COO[float64], block, threads int) (par, ser kernelCall, err error) {
	switch format {
	case "coo":
		return func(b, c *matrix.Dense[float64], k int) error { return kernels.COOParallel(a, b, c, k, threads) },
			func(b, c *matrix.Dense[float64], k int) error { return kernels.COOSerial(a, b, c, k) }, nil
	case "csr":
		x := formats.CSRFromCOO(a)
		return func(b, c *matrix.Dense[float64], k int) error { return kernels.CSRParallel(x, b, c, k, threads) },
			func(b, c *matrix.Dense[float64], k int) error { return kernels.CSRSerial(x, b, c, k) }, nil
	case "ell":
		x := formats.ELLFromCOO(a, formats.RowMajor)
		return func(b, c *matrix.Dense[float64], k int) error { return kernels.ELLParallel(x, b, c, k, threads) },
			func(b, c *matrix.Dense[float64], k int) error { return kernels.ELLSerial(x, b, c, k) }, nil
	case "bcsr":
		x, err := formats.BCSRFromCOO(a, block, block)
		if err != nil {
			return nil, nil, err
		}
		return func(b, c *matrix.Dense[float64], k int) error { return kernels.BCSRParallel(x, b, c, k, threads) },
			func(b, c *matrix.Dense[float64], k int) error { return kernels.BCSRSerial(x, b, c, k) }, nil
	}
	return nil, nil, fmt.Errorf("no direct kernel for format %q", format)
}

// timeMs times one call in milliseconds; a failing call reads NaN, which
// keeps the metric from being reported.
func timeMs(f func() error) float64 {
	t0 := time.Now()
	if err := f(); err != nil {
		return nan()
	}
	return toMs(time.Since(t0))
}

// imbalance is the largest static row chunk's nonzero count over the mean,
// for the partition the parallel CSR kernel uses at this thread count.
func imbalance(a *matrix.COO[float64], threads int) float64 {
	p := rowPointers(a)
	var maxN, sum float64
	for i := 0; i < threads; i++ {
		lo, hi := parallel.ChunkBounds(a.Rows, threads, i)
		n := float64(p[hi] - p[lo])
		maxN = max(maxN, n)
		sum += n
	}
	return maxN / (sum / float64(threads))
}

// extendStream times the library's mutation step, delta.Overlay.Extend,
// on a stream of 16-op batches drawn like serve-mutate's, starting from a
// fresh overlay every extendReset batches so every stretch of the stream
// sees the same overlay sizes.
type extendStream struct {
	a      *matrix.COO[float64]
	rowPtr []int
	rng    *rand.Rand
	ov     *delta.Overlay
	n      int
	times  []float64 // ms per batch
}

const extendReset = 400

func newExtendStream(a *matrix.COO[float64], seed int64) *extendStream {
	return &extendStream{a: a, rowPtr: rowPointers(a), rng: rand.New(rand.NewSource(mix(seed, "extend")))}
}

// run times the next batches of the stream.
func (x *extendStream) run(batches int) error {
	for i := 0; i < batches; i++ {
		if x.n%extendReset == 0 {
			x.ov = nil
		}
		x.n++
		wire := mutationBatch(x.rng, x.a, x.rowPtr, mutateBatchOps)
		ops := make([]delta.Op, len(wire))
		for j, op := range wire {
			ops[j] = delta.Op{Row: op.Row, Col: op.Col, Val: op.Val, Del: op.Del}
		}
		t0 := time.Now()
		next, err := x.ov.Extend(x.a, ops)
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("delta extend: %w", err)
		}
		x.ov = next
		x.times = append(x.times, toMs(d))
	}
	return nil
}
