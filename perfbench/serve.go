package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	spmmbench "repro"
	"repro/internal/cluster"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/serve"
)

// serveSpec is one serving workload's make-up.
type serveSpec struct {
	name   string
	matrix string
	scale  float64
	k      int
	// replicas behind a router when routed; one bare spmmserve otherwise.
	replicas int
	routed   bool
	// durable gives each spmmserve a fresh -data-dir, so every mutation
	// is fsynced to the WAL before it is acked.
	durable bool
	// mutates puts a mutation phase before every round's multiplies.
	mutates bool
	panels  int
}

var (
	serveMutate = serveSpec{name: "serve-mutate", matrix: "cant", scale: 0.1, k: 32, replicas: 1,
		durable: true, mutates: true, panels: 2}
)

const (
	// serveClients is the closed loop's client count (one connection
	// each): the host's core count, so load never oversubscribes it.
	serveClients = 2
	// serveSetupTrials is how many times a run launches the fleet from
	// nothing to its first multiply; setup_s is the median.
	serveSetupTrials = 5
	// setupProbes is the host-speed probe runs before each launch.
	setupProbes     = 2
	warmupPerClient = 20
	mutateBatchOps  = 16
	// mutateBatches is each client's acked batches per mutation phase:
	// enough samples per run for a steady p90.
	mutateBatches = 4
	// probeTime is how long mutation phases run after the window on
	// workloads whose window does not mutate.
	probeTime = time.Second
)

// fleet is the running program: replicas and, when routed, the router.
type fleet struct {
	procs    []*proc
	base     string   // where clients send requests
	replicas []string // replica base URLs
	metrics  []string // replica metrics URLs (traced runs)
	router   string
}

func (f *fleet) stop() {
	for i := len(f.procs) - 1; i >= 0; i-- {
		f.procs[i].stop()
	}
}

// rssMB sums the peak resident set of every program process.
func (f *fleet) rssMB() float64 {
	var s float64
	for _, p := range f.procs {
		s += p.rssMB()
	}
	return s
}

// startFleet launches the workload's processes at default flags. Request
// tracing is off unless traced; traced runs also expose each replica's
// /metrics and /debug/vars.
func startFleet(e *env, spec serveSpec, traced bool, trial int) (*fleet, error) {
	f := &fleet{}
	ring := "0"
	if traced {
		ring = "512"
	}
	var members []string
	for r := 0; r < spec.replicas; r++ {
		args := []string{"-addr", "127.0.0.1:0", "-reqtrace-ring", ring}
		if spec.durable {
			dir := filepath.Join(e.work, fmt.Sprintf("data-%d-%d-%d", b2i(traced), trial, r))
			args = append(args, "-data-dir", dir)
		}
		var maddr string
		if traced {
			a, err := freeAddr()
			if err != nil {
				f.stop()
				return nil, err
			}
			maddr = a
			args = append(args, "-metrics", a)
		}
		p, err := startProc(fmt.Sprintf("spmmserve#%d", r), filepath.Join(e.bin, "spmmserve"), args, serveReady)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.procs = append(f.procs, p)
		base := "http://" + p.addr
		f.replicas = append(f.replicas, base)
		if traced {
			f.metrics = append(f.metrics, "http://"+maddr)
		}
		members = append(members, fmt.Sprintf("r%d=%s", r, base))
	}
	f.base = f.replicas[0]
	if spec.routed {
		args := []string{"-addr", "127.0.0.1:0", "-replicas", strings.Join(members, ","), "-reqtrace-ring", ring}
		p, err := startProc("spmmrouter", filepath.Join(e.bin, "spmmrouter"), args, routerReady)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.procs = append(f.procs, p)
		f.router = "http://" + p.addr
		f.base = f.router
	}
	return f, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ridTransport stamps the benchmark's request ID on traced requests so
// the program's records and the benchmark's spans share it.
type ridTransport struct {
	base http.RoundTripper
	rid  string
}

func (t *ridTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if t.rid == "" {
		return t.base.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(serve.HeaderRequestID, t.rid)
	return t.base.RoundTrip(r)
}

// loadClient is one closed-loop client on its own connection.
type loadClient struct {
	*serve.Client
	rt *ridTransport
}

func newLoadClient(base string) *loadClient {
	rt := &ridTransport{base: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true,
		IdleConnTimeout: time.Minute}}
	c := serve.NewClient(base)
	c.HTTP = &http.Client{Transport: rt}
	return &loadClient{Client: c, rt: rt}
}

func (c *loadClient) close() { c.rt.base.(*http.Transport).CloseIdleConnections() }

// serveInputs are the generated inputs of a serving workload.
type serveInputs struct {
	a       *matrix.COO[float64]
	rowPtr  []int
	panels  []*matrix.Dense[float64]
	oracles []*oracle // epoch-0 expected results per panel
}

func (in *serveInputs) register() serve.RegisterRequest {
	return serve.RegisterRequest{Rows: in.a.Rows, Cols: in.a.Cols,
		RowIdx: in.a.RowIdx, ColIdx: in.a.ColIdx, Vals: in.a.Vals}
}

// setupTimes are one launch's phases: process start until listening,
// the registration round trip, and the first multiply (cold prepare).
type setupTimes struct {
	start, register, first time.Duration
	plan                   *serve.RegisterResponse
}

func (s setupTimes) total() time.Duration { return s.start + s.register + s.first }

// launch starts the fleet, uploads the matrix and runs the first
// multiply, which must match csr-serial bit for bit.
func launch(e *env, spec serveSpec, in *serveInputs, traced bool, trial int) (*fleet, string, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	f, err := startFleet(e, spec, traced, trial)
	if err != nil {
		return nil, "", st, err
	}
	st.start = time.Since(t0)
	cl := newLoadClient(f.base)
	defer cl.close()
	t1 := time.Now()
	reg, err := cl.Register(in.register())
	st.register = time.Since(t1)
	if err != nil {
		f.stop()
		return nil, "", st, fmt.Errorf("register: %w", err)
	}
	t2 := time.Now()
	res, err := cl.Multiply(reg.ID, in.a.Rows, in.panels[0], spec.k, 0)
	st.first = time.Since(t2)
	if err != nil {
		f.stop()
		return nil, "", st, fmt.Errorf("first multiply: %w", err)
	}
	if panelHash(res.C, spec.k) != in.oracles[0].hash {
		f.stop()
		return nil, "", st, fmt.Errorf("first multiply: %v", bitwiseEqual(res.C, in.oracles[0].c, spec.k))
	}
	st.plan = reg
	return f, reg.ID, st, nil
}

// setupFleet launches the fleet serveSetupTrials times from nothing and
// keeps the last launch running.
func setupFleet(e *env, spec serveSpec, in *serveInputs, traced bool, probe *speedProbe) (*fleet, string, []setupTimes, error) {
	var all []setupTimes
	for t := 0; ; t++ {
		for i := 0; i < setupProbes; i++ {
			probe.run()
		}
		f, id, st, err := launch(e, spec, in, traced, t)
		if err != nil {
			return nil, "", nil, err
		}
		all = append(all, st)
		if t == serveSetupTrials-1 {
			return f, id, all, nil
		}
		f.stop()
	}
}

type mulRec struct {
	panel int
	epoch int64
	hash  uint64
}

type mutRec struct {
	epoch   int64
	ops     []serve.MutateOp
	lat     time.Duration
	overlay int
}

// clientLog is everything one client saw.
type clientLog struct {
	lat               []float64 // multiply round trips, ms
	muls              []mulRec
	muts              []mutRec
	epochs            []int64 // every epoch reported, in order
	attempted, failed int64
	errs              []string
	first, last       time.Time
	// traced runs only
	timings       []serve.Timing
	rids          []string
	enc, dec, rtt []float64
	widths        []int
}

// loadGen runs closed-loop clients against a fleet.
type loadGen struct {
	e     *env
	spec  serveSpec
	in    *serveInputs
	id    string
	trace bool
	logs  []*clientLog
	rngs  []*rand.Rand
	cls   []*loadClient
	side  *sideWork
	// rounds are the window's round times in ms, side work excluded.
	rounds []float64
}

func newLoadGen(e *env, spec serveSpec, in *serveInputs, f *fleet, id string, traced bool, tag string, side *sideWork) *loadGen {
	d := &loadGen{e: e, spec: spec, in: in, id: id, trace: traced, side: side}
	for c := 0; c < serveClients; c++ {
		d.logs = append(d.logs, &clientLog{})
		d.rngs = append(d.rngs, rand.New(rand.NewSource(mix(e.seed, fmt.Sprintf("mutate/%s/%d", tag, c)))))
		d.cls = append(d.cls, newLoadClient(f.base))
	}
	return d
}

func (d *loadGen) close() {
	for _, c := range d.cls {
		c.close()
	}
}

// each runs body once per client concurrently and waits for all.
func (d *loadGen) each(body func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body(c)
		}(c)
	}
	wg.Wait()
}

// multiply sends one multiply and records its epoch and result bits for
// the checks; timed multiplies (the window's) also record latency and, in
// traced runs, the per-layer figures.
func (d *loadGen) multiply(c, panel int, timed bool) {
	lg, cl := d.logs[c], d.cls[c]
	b := d.in.panels[panel]
	var enc time.Duration
	if d.trace && timed {
		rid := fmt.Sprintf("pb-%d-%d", c, len(lg.lat))
		cl.rt.rid = rid
		var buf bytes.Buffer
		t0 := time.Now()
		serve.WritePanel(&buf, b, d.spec.k)
		enc = time.Since(t0)
		d.e.rec.add("client", "encode", c+1, rid, t0, enc)
	}
	lg.attempted++
	t0 := time.Now()
	res, err := cl.Multiply(d.id, d.in.a.Rows, b, d.spec.k, 0)
	rtt := time.Since(t0)
	cl.rt.rid = ""
	if err != nil {
		lg.failed++
		if len(lg.errs) < 5 {
			lg.errs = append(lg.errs, "multiply: "+err.Error())
		}
		return
	}
	lg.muls = append(lg.muls, mulRec{panel: panel, epoch: res.Epoch, hash: panelHash(res.C, d.spec.k)})
	lg.epochs = append(lg.epochs, res.Epoch)
	if !timed {
		return
	}
	if lg.first.IsZero() {
		lg.first = t0
	}
	lg.last = time.Now()
	lg.lat = append(lg.lat, toMs(rtt))
	if d.trace {
		d.e.rec.add("client", "Client.Multiply", c+1, res.RequestID, t0, rtt)
		var buf bytes.Buffer
		serve.WritePanel(&buf, res.C, d.spec.k)
		t1 := time.Now()
		_, derr := serve.ReadPanel(bytes.NewReader(buf.Bytes()), d.in.a.Rows, d.spec.k)
		dec := time.Since(t1)
		if derr == nil {
			d.e.rec.add("client", "decode", c+1, res.RequestID, t1, dec)
		}
		lg.timings = append(lg.timings, res.Timing)
		lg.rids = append(lg.rids, res.RequestID)
		lg.enc = append(lg.enc, toMs(enc))
		lg.dec = append(lg.dec, toMs(dec))
		lg.rtt = append(lg.rtt, toMs(rtt))
		lg.widths = append(lg.widths, res.BatchWidth)
	}
}

func (d *loadGen) mutate(c int) {
	lg, cl := d.logs[c], d.cls[c]
	ops := mutationBatch(d.rngs[c], d.in.a, d.in.rowPtr, mutateBatchOps)
	lg.attempted++
	t0 := time.Now()
	resp, err := cl.Mutate(d.id, ops)
	lat := time.Since(t0)
	if err != nil {
		lg.failed++
		if len(lg.errs) < 5 {
			lg.errs = append(lg.errs, "mutate: "+err.Error())
		}
		return
	}
	if d.trace {
		d.e.rec.add("client", "Client.Mutate", c+1, "", t0, lat)
	}
	lg.muts = append(lg.muts, mutRec{epoch: resp.Epoch, ops: ops, lat: lat, overlay: resp.OverlayNNZ})
	lg.epochs = append(lg.epochs, resp.Epoch)
}

// warmup runs untimed multiplies so connections are open and caches
// warm before the window.
func (d *loadGen) warmup() {
	d.each(func(c int) {
		for i := 0; i < warmupPerClient; i++ {
			d.multiply(c, (c+i)%len(d.in.panels), false)
		}
	})
}

// window runs whole lockstep rounds until dur has passed. In each round,
// on a mutating workload, one client at a time sends its mutation batches
// while the other waits; then both clients send their multiplies. The
// rendezvous keeps the two closed loops in one phase relation: run free,
// they drift between sharing the batch window and missing it, and that
// drift, not the program, decided the figures from run to run. A batch
// never queues behind the other client's kernel either; compaction still
// runs in the background beside the multiplies.
//
// Each round starts with the side work, run while every client waits, so
// it never overlaps the program's work.
func (d *loadGen) window(dur time.Duration) {
	bar := newBarrier(serveClients, time.Now().Add(dur))
	d.each(func(c int) {
		var t0 time.Time
		for i := 0; bar.wait(); i++ {
			if c == 0 {
				if i > 0 {
					d.rounds = append(d.rounds, toMs(time.Since(t0)))
				}
				d.side.run()
			}
			bar.wait()
			if c == 0 {
				t0 = time.Now()
			}
			if d.spec.mutates {
				d.mutationPhase(c, bar)
			}
			d.multiply(c, (c+i)%len(d.in.panels), true)
		}
		if c == 0 && !t0.IsZero() {
			d.rounds = append(d.rounds, toMs(time.Since(t0)))
		}
	})
}

// mutationPhase lets each client in turn send mutateBatches batches
// while the others wait.
func (d *loadGen) mutationPhase(c int, bar *barrier) {
	for m := 0; m < serveClients; m++ {
		for j := 0; m == c && j < mutateBatches; j++ {
			d.mutate(c)
		}
		bar.wait()
	}
}

// barrier is a reusable rendezvous of n goroutines. The last to arrive
// decides, once for all, whether the window is still open.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n, here int
	gen     int
	open    bool
	end     time.Time
}

func newBarrier(n int, end time.Time) *barrier {
	b := &barrier{n: n, end: end}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until all n have arrived and reports whether the window
// was open when the last one did.
func (b *barrier) wait() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.here++
	if b.here == b.n {
		b.here = 0
		b.gen++
		b.open = time.Now().Before(b.end)
		b.cond.Broadcast()
		return b.open
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	return b.open
}

// probeMutations runs whole mutation phases for probeTime, then one
// multiply per client, so a phase whose window does not mutate (the
// routed traced phase) still serves and checks a mutated epoch.
func (d *loadGen) probeMutations() {
	bar := newBarrier(serveClients, time.Now().Add(probeTime))
	d.each(func(c int) {
		for bar.wait() {
			d.mutationPhase(c, bar)
		}
		d.multiply(c, c%len(d.in.panels), true)
	})
}

// windowStats summarizes the recorded multiplies.
func (d *loadGen) windowStats() (lat []float64, n int, elapsed time.Duration) {
	var first, last time.Time
	for _, lg := range d.logs {
		lat = append(lat, lg.lat...)
		if first.IsZero() || lg.first.Before(first) {
			first = lg.first
		}
		if lg.last.After(last) {
			last = lg.last
		}
	}
	return lat, len(lat), last.Sub(first)
}

func (d *loadGen) mutateLatencies() []float64 {
	var out []float64
	for _, lg := range d.logs {
		for _, m := range lg.muts {
			out = append(out, toMs(m.lat))
		}
	}
	return out
}

func loadServeInputs(spec serveSpec, seed int64) (*serveInputs, error) {
	a, err := genMatrix(spec.matrix, spec.scale, seed)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{a: a, rowPtr: rowPointers(a),
		panels: panels(a.Cols, spec.k, spec.panels, seed, spec.name)}
	for _, b := range in.panels {
		o, err := newOracle(a, b, spec.k)
		if err != nil {
			return nil, err
		}
		in.oracles = append(in.oracles, o)
	}
	return in, nil
}

func runServe(e *env, spec serveSpec) (*outcome, error) {
	o := newOutcome()
	in, err := loadServeInputs(spec, e.seed)
	if err != nil {
		return nil, err
	}
	window := e.seconds
	if e.traced {
		window = e.seconds / 2
	}
	side := &sideWork{probe: newSpeedProbe(e.threads)}
	if side.lib, err = newLibraryBench(in, spec.k, e.threads); err != nil {
		return nil, err
	}
	untracedP50, err := servePhase(e, spec, in, false, window, side, o)
	if err != nil {
		return nil, err
	}
	if e.traced {
		// A routed phase of multiplies through spmmrouter and two replicas
		// comes first, for the cluster layer: the plain traced phase after
		// it sets every serve.* metric again, and only this one sets
		// cluster.*.
		rest := e.seconds - window
		routed := spec
		routed.name, routed.replicas, routed.routed = spec.name+"-routed", 2, true
		routed.durable, routed.mutates = false, false
		if _, err := servePhase(e, routed, in, true, rest/2, &sideWork{probe: newSpeedProbe(e.threads)}, o); err != nil {
			return nil, fmt.Errorf("routed phase: %w", err)
		}
		rest -= rest / 2
		tracedP50, err := servePhase(e, spec, in, true, rest, &sideWork{probe: newSpeedProbe(e.threads)}, o)
		if err != nil {
			return nil, err
		}
		o.layer["trace.overhead_pct"] = (tracedP50/untracedP50 - 1) * 100
		if err := ladders(e, o); err != nil {
			return nil, err
		}
		x := newExtendStream(in.a, e.seed)
		if err := x.run(2 * extendReset); err != nil {
			return nil, err
		}
		o.layer["delta.extend_us"] = median(x.times) * 1e3
	}
	return o, nil
}

// servePhase launches the fleet, drives the window, reads the fleet's
// counters, stops it and checks every response. It returns the window's
// median latency.
func servePhase(e *env, spec serveSpec, in *serveInputs, traced bool, window time.Duration, side *sideWork, o *outcome) (float64, error) {
	f, id, setups, err := setupFleet(e, spec, in, traced, side.probe)
	if err != nil {
		return 0, err
	}
	defer f.stop()
	tag := "untraced"
	if traced {
		tag = "traced"
	}
	d := newLoadGen(e, spec, in, f, id, traced, tag, side)
	defer d.close()
	d.warmup()
	if spec.routed {
		waitHolders(f.router, id, 2, 5*time.Second)
	}
	var before, after *counters
	if traced {
		if before, err = readCounters(f, id); err != nil {
			return 0, err
		}
	}
	setupSlow := side.probe.slowdown(0)
	mark := len(side.probe.times)
	steal0 := readSteal()
	d.window(window)
	lat, n, elapsed := d.windowStats()
	stealPct := readSteal().since(steal0)
	slow := side.probe.slowdown(mark)
	rss := f.rssMB()
	if traced {
		if after, err = readCounters(f, id); err != nil {
			return 0, err
		}
	}
	if !spec.mutates {
		d.probeMutations()
	}
	var final *counters
	if traced {
		if final, err = readCounters(f, id); err != nil {
			return 0, err
		}
	}
	finalEpoch, err := servedEpoch(f.base, id)
	if err != nil {
		return 0, err
	}
	var routerRecs []serve.RequestTraceRecord
	if traced && spec.routed {
		routerRecs, err = serve.NewClient(f.router).TraceRequests("", "", 0, 512)
		if err != nil {
			return 0, fmt.Errorf("router trace records: %w", err)
		}
	}
	f.stop()

	for _, lg := range d.logs {
		o.attempted += lg.attempted
		o.failed += lg.failed
		for _, msg := range lg.errs {
			o.problem("%s", msg)
		}
	}
	verifyServed(in, spec.k, d.logs, finalEpoch, o)

	s := summarize(lat)
	fmt.Fprintf(e.out, "# %s window: %d multiplies in %.2fs by %d clients; p90 has %d samples beyond it; host steal %.1f%%\n",
		tag, n, elapsed.Seconds(), serveClients, s.Count90, stealPct)
	if traced {
		serveLayers(d, setups, before, after, final, routerRecs, id, o)
		return s.P50, nil
	}
	var totals []float64
	for _, st := range setups {
		totals = append(totals, st.total().Seconds())
	}
	mutLat := d.mutateLatencies()
	m := summarize(mutLat)
	fmt.Fprintf(e.out, "# host slowdown %.3f in set-up, %.3f in the window\n", setupSlow, slow)
	fmt.Fprintf(e.out, "# raw setup_s %.4f throughput_rps %.2f latency_p50_ms %.4f mutate_p50_ms %.4f\n",
		median(totals), serveClients/(median(d.rounds)/1e3), s.P50, m.P50)
	fmt.Fprintf(e.out, "# multiply p90 %.4f ms (scaled %.4f); mutate p90 %.4f ms (scaled %.4f)\n",
		s.P90, s.P90/slow, m.P90, m.P90/slow)
	// Scaled, unlike the suite's set-up: launches, registration and the
	// first multiply slow with the host as the probe does (README.md).
	o.e2e["setup_s"] = median(totals) / setupSlow
	o.e2e["throughput_rps"] = serveClients / (median(d.rounds) / 1e3) * slow
	o.e2e["latency_p50_ms"] = s.P50 / slow
	o.e2e["mflops"] = o.e2e["throughput_rps"] * kernels.SpMMFlops(in.a.NNZ(), spec.k) / 1e6
	side.lib.report(o, slow)
	o.e2e["rss_peak_mb"] = rss
	o.e2e["mutate_p50_ms"] = m.P50 / slow
	fmt.Fprintf(e.out, "# %d mutation batches timed; mutate p90 has %d samples beyond it; deciles (ms) %s\n",
		m.N, m.Count90, deciles(mutLat))
	fmt.Fprintf(e.out, "# multiply latency deciles (ms) %s\n", deciles(lat))
	return s.P50, nil
}

// waitHolders waits (bounded) until the router has replicated the matrix
// to n holders, so hot replication happens before the window, not in it.
func waitHolders(router, id string, n int, limit time.Duration) {
	for end := time.Now().Add(limit); time.Now().Before(end); time.Sleep(20 * time.Millisecond) {
		st, err := clusterStats(router)
		if err == nil && len(st.Placements[id]) >= n {
			return
		}
	}
}

func clusterStats(router string) (*cluster.Stats, error) {
	var st cluster.Stats
	if err := getJSON(router+"/v1/cluster", &st); err != nil {
		return nil, err
	}
	return &st, nil
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// servedEpoch reads the matrix's current mutation epoch from the fleet.
func servedEpoch(base, id string) (int64, error) {
	list, err := serve.NewClient(base).Matrices()
	if err != nil {
		return 0, fmt.Errorf("list matrices: %w", err)
	}
	for _, m := range list {
		if m.ID == id {
			return m.Epoch, nil
		}
	}
	return 0, fmt.Errorf("matrix %s not listed", id)
}

// libraryBench runs each paper format's library kernel on a serving
// workload's own matrix and k in-process (threads = nproc) and reports
// each format's median call as mflops_<format>: the kernel rate serving
// could reach on this matrix. Its rounds run in the window's pauses, next
// to the host-speed probe. Every output is checked.
type libraryBench struct {
	in    *serveInputs
	k     int
	p     spmmbench.Params
	kerns []spmmbench.Kernel
	outs  []*matrix.Dense[float64]
	times [][]float64
}

func newLibraryBench(in *serveInputs, k, threads int) (*libraryBench, error) {
	lb := &libraryBench{in: in, k: k, p: spmmbench.DefaultParams(), times: make([][]float64, len(suiteFormats))}
	lb.p.Threads, lb.p.K, lb.p.BlockSize, lb.p.Reps = threads, k, suiteBlock, 1
	for _, f := range suiteFormats {
		kern, err := spmmbench.NewKernel(f+"-omp", spmmbench.KernelOptions{})
		if err != nil {
			return nil, err
		}
		if err := kern.Prepare(in.a.Clone(), lb.p); err != nil {
			return nil, err
		}
		lb.kerns = append(lb.kerns, kern)
		lb.outs = append(lb.outs, matrix.NewDense[float64](in.a.Rows, k))
	}
	return lb, nil
}

// round runs every format once.
func (lb *libraryBench) round() {
	b := lb.in.panels[0]
	for i, kern := range lb.kerns {
		lb.times[i] = append(lb.times[i], timeMs(func() error { return kern.Calculate(b, lb.outs[i], lb.p) }))
	}
}

// report checks each format's last output and sets mflops_<format> at
// the reference host speed.
func (lb *libraryBench) report(o *outcome, slow float64) {
	ref := referenceProduct(lb.in.a, lb.in.panels[0], lb.k)
	for i, f := range suiteFormats {
		if err := ref.check(lb.outs[i]); err != nil {
			o.problem("library %s kernel: %v", f, err)
		}
		o.e2e["mflops_"+f] = kernels.SpMMFlops(lb.in.a.NNZ(), lb.k) / (median(lb.times[i]) / 1e3) / 1e6 * slow
	}
}

// verifyServed checks what the clients saw against the benchmark's own
// merged copy of the matrix: acked epochs are exactly 1..N, the final
// epoch is N, each client's epochs never go backwards, and every served
// panel equals csr-serial over the merged matrix at its reported epoch,
// bit for bit (csr-serial itself checked against the reference product).
func verifyServed(in *serveInputs, k int, logs []*clientLog, finalEpoch int64, o *outcome) {
	batches := map[int64][]serve.MutateOp{}
	for _, lg := range logs {
		for i := 1; i < len(lg.epochs); i++ {
			if lg.epochs[i] < lg.epochs[i-1] {
				o.problem("a client saw epoch %d after epoch %d", lg.epochs[i], lg.epochs[i-1])
				break
			}
		}
		for _, m := range lg.muts {
			if _, dup := batches[m.epoch]; dup {
				o.problem("epoch %d acked twice", m.epoch)
			}
			batches[m.epoch] = m.ops
		}
	}
	n := int64(len(batches))
	for e := int64(1); e <= n; e++ {
		if _, ok := batches[e]; !ok {
			o.problem("acked epochs are not 1..%d: %d missing", n, e)
			return
		}
	}
	if finalEpoch != n {
		o.problem("final epoch %d, but %d batches were acked", finalEpoch, n)
	}
	type key struct {
		epoch int64
		panel int
	}
	want := map[key][]uint64{}
	var epochs []int64
	for _, lg := range logs {
		for _, m := range lg.muls {
			kk := key{m.epoch, m.panel}
			if _, ok := want[kk]; !ok {
				epochs = append(epochs, m.epoch)
			}
			want[kk] = append(want[kk], m.hash)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	eo := newEpochOracle(in.a, in.panels, in.oracles, k)
	for i, ep := range epochs {
		if i > 0 && ep == epochs[i-1] {
			continue
		}
		if ep > n {
			o.problem("a multiply reported epoch %d beyond the %d acked", ep, n)
			continue
		}
		for eo.st.epoch < ep {
			if err := eo.advance(batches[eo.st.epoch+1]); err != nil {
				o.problem("%v", err)
				return
			}
		}
		for p := range in.panels {
			hs := want[key{ep, p}]
			if len(hs) == 0 {
				continue
			}
			h := panelHash(eo.res[p], k)
			for _, got := range hs {
				if got != h {
					o.problem("epoch %d panel %d: served bits differ from csr-serial over the merged matrix", ep, p)
				}
			}
		}
	}
}

// sideWork is the benchmark's own work done in the window's pauses: the
// host-speed probe and, in the untraced window, the library kernels whose
// figures stand in for the per-format rates the traffic does not produce
// (README.md, metric table).
type sideWork struct {
	probe *speedProbe
	lib   *libraryBench // untraced window only
}

func (s *sideWork) run() {
	s.probe.run()
	if s.lib != nil {
		s.lib.round()
	}
}
