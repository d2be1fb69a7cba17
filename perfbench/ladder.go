package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	spmmbench "repro"
	"repro/internal/cluster"
	"repro/internal/formats"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/serve"
)

// The small ladder's shape is the serving baseline: dw4096 at scale 0.05
// (410 × 410, ~2k nonzeros) at k = 32, where the kernel is a small part of
// a round trip.
const (
	smallMatrix = "dw4096"
	smallScale  = 0.05
	smallK      = 32
)

// ladders runs the layer ladder on the serving baseline shape ("small")
// and on the suite's banded matrix at the suite's k ("large").
func ladders(e *env, o *outcome) error {
	small, err := genMatrix(smallMatrix, smallScale, e.seed)
	if err != nil {
		return err
	}
	if err := ladder(e, "small", small, smallK, 300, o); err != nil {
		return fmt.Errorf("small ladder: %w", err)
	}
	large, err := genMatrix(suiteMatrices[0].name, suiteMatrices[0].scale, e.seed)
	if err != nil {
		return err
	}
	if err := ladder(e, "large", large, suiteK, 25, o); err != nil {
		return fmt.Errorf("large ladder: %w", err)
	}
	return nil
}

// serverDefaults is serve.Config at spmmserve's default flags.
func serverDefaults(threads int) serve.Config {
	return serve.Config{Threads: threads, CacheBytes: 256 << 20, BatchWindow: 2 * time.Millisecond,
		MaxBatchK: 512, MaxK: 1024, DefaultDeadline: 30 * time.Second, SnapshotEvery: 64,
		SlowRequest: time.Second}
}

// ladder times one multiply through successively more layers, each rung
// calling one more layer's public entry point, interleaved rep by rep:
//
//  1. kernel:   the internal/kernels call the serving plan dispatches to
//  2. core:     core.Kernel.Calculate
//  3. registry: Registry.Prepared + Calculate
//  4. handler:  Server.Handler().ServeHTTP, no socket
//  5. loopback: Client.Multiply over a loopback socket
//  6. router:   the same through a cluster.Router
//
// Each rung's metric is its median minus the median of the rung below.
func ladder(e *env, size string, a *matrix.COO[float64], k, reps int, o *outcome) error {
	b := matrix.NewDenseRand[float64](a.Cols, k, mix(e.seed, "ladder/"+size))
	want, err := newOracle(a, b, k)
	if err != nil {
		return err
	}
	reg := serve.NewRegistry(256<<20, e.threads)
	m, _, err := reg.Register(a.Clone())
	if err != nil {
		return err
	}
	plan := m.Plan()
	pool := parallel.NewPool(e.threads)
	defer pool.Close()
	p := spmmbench.DefaultParams()
	p.Threads, p.K, p.BlockSize, p.Reps, p.Schedule = e.threads, k, plan.Block, 1, plan.Schedule
	if plan.Pooled {
		p.Pool = pool
	}
	direct, err := planKernel(plan.Format, a, plan.Block, e.threads, kernels.Opts{Schedule: p.Schedule, Pool: p.Pool})
	if err != nil {
		return err
	}
	kern, err := spmmbench.NewKernel(plan.Format+"-omp", spmmbench.KernelOptions{})
	if err != nil {
		return err
	}
	if err := kern.Prepare(a.Clone(), p); err != nil {
		return err
	}

	srv, err := serve.New(serverDefaults(e.threads))
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	regBody, _ := json.Marshal(serve.RegisterRequest{Rows: a.Rows, Cols: a.Cols,
		RowIdx: a.RowIdx, ColIdx: a.ColIdx, Vals: a.Vals})
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/matrices", bytes.NewReader(regBody)))
	if rr.Code != http.StatusOK {
		return fmt.Errorf("handler register: %d %s", rr.Code, rr.Body.String())
	}
	var panel bytes.Buffer
	if err := serve.WritePanel(&panel, b, k); err != nil {
		return err
	}
	url := fmt.Sprintf("/v1/matrices/%s/multiply?k=%d", m.ID, k)

	serverBase, stopServer, err := listen(h)
	if err != nil {
		return err
	}
	defer stopServer()
	rt, err := cluster.New(cluster.Config{Replicas: []cluster.JoinRequest{{Name: "a", Base: serverBase}}})
	if err != nil {
		return err
	}
	defer rt.Close()
	routerBase, stopRouter, err := listen(rt.Handler())
	if err != nil {
		return err
	}
	defer stopRouter()
	direct1, routed := newLoadClient(serverBase), newLoadClient(routerBase)
	defer direct1.close()
	defer routed.close()
	if _, err := routed.Register(serve.RegisterRequest{Rows: a.Rows, Cols: a.Cols,
		RowIdx: a.RowIdx, ColIdx: a.ColIdx, Vals: a.Vals}); err != nil {
		return fmt.Errorf("router register: %w", err)
	}

	c := matrix.NewDense[float64](a.Rows, k)
	ctx := context.Background()
	rungs := []func() (*matrix.Dense[float64], error){
		func() (*matrix.Dense[float64], error) { return c, direct(b, c, k) },
		func() (*matrix.Dense[float64], error) { return c, kern.Calculate(b, c, p) },
		func() (*matrix.Dense[float64], error) {
			sv, _, err := reg.Prepared(ctx, m.ID)
			if err != nil {
				return nil, err
			}
			return c, sv.Kernel.Calculate(b, c, p)
		},
		nil, // handler: timed around ServeHTTP only, below
		func() (*matrix.Dense[float64], error) {
			res, err := direct1.Multiply(m.ID, a.Rows, b, k, 0)
			if err != nil {
				return nil, err
			}
			return res.C, nil
		},
		func() (*matrix.Dense[float64], error) {
			res, err := routed.Multiply(m.ID, a.Rows, b, k, 0)
			if err != nil {
				return nil, err
			}
			return res.C, nil
		},
	}
	times := make([][]float64, len(rungs))
	for r := -1; r < reps; r++ { // rep -1 warms every rung up
		for i, rung := range rungs {
			o.attempted++
			var out *matrix.Dense[float64]
			var d time.Duration
			var err error
			if rung == nil {
				req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(panel.Bytes()))
				rec := httptest.NewRecorder()
				t0 := time.Now()
				h.ServeHTTP(rec, req)
				d = time.Since(t0)
				if rec.Code != http.StatusOK {
					err = fmt.Errorf("handler multiply: %d %s", rec.Code, rec.Body.String())
				} else {
					out, err = serve.ReadPanel(rec.Body, a.Rows, k)
				}
			} else {
				t0 := time.Now()
				out, err = rung()
				d = time.Since(t0)
			}
			e.rec.add("ladder."+size, ladderRungs[i], 0, "", time.Now().Add(-d), d)
			if err != nil {
				o.failed++
				o.problem("ladder %s rung %s: %v", size, ladderRungs[i], err)
				continue
			}
			if panelHash(out, k) != want.hash {
				o.problem("ladder %s rung %s: %v", size, ladderRungs[i], bitwiseEqual(out, want.c, k))
			}
			if r >= 0 {
				times[i] = append(times[i], toMs(d))
			}
		}
	}
	prev := 0.0
	for i, name := range ladderRungs {
		med := median(times[i])
		o.layer["ladder."+size+"."+name+"_us"] = (med - prev) * 1e3
		prev = med
	}
	fmt.Fprintf(e.out, "# ladder %s: %dx%d, %d nnz, k=%d, plan %s (%s), %d reps\n",
		size, a.Rows, a.Cols, a.NNZ(), k, plan.Variant, plan.Format, reps)
	return nil
}

// planKernel prepares format data the way core does and returns the
// internal/kernels entry a serving plan with these Opts dispatches to.
func planKernel(format string, a *matrix.COO[float64], block, threads int, opts kernels.Opts) (kernelCall, error) {
	switch format {
	case "coo":
		return func(b, c *matrix.Dense[float64], k int) error {
			return kernels.COOParallelOpts(a, b, c, k, threads, opts)
		}, nil
	case "csr":
		x := formats.CSRFromCOO(a)
		return func(b, c *matrix.Dense[float64], k int) error {
			return kernels.CSRParallelOpts(x, b, c, k, threads, opts)
		}, nil
	case "ell":
		x := formats.ELLFromCOO(a, formats.RowMajor)
		return func(b, c *matrix.Dense[float64], k int) error {
			return kernels.ELLParallelOpts(x, b, c, k, threads, opts)
		}, nil
	case "bcsr":
		x, err := formats.BCSRFromCOO(a, block, block)
		if err != nil {
			return nil, err
		}
		return func(b, c *matrix.Dense[float64], k int) error {
			return kernels.BCSRParallelOpts(x, b, c, k, threads, opts)
		}, nil
	}
	return nil, fmt.Errorf("ladder: no direct kernel for served format %q", format)
}

// listen serves h on a loopback port and returns its base URL and stop.
func listen(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), func() {
		hs.Close()
		<-done
	}, nil
}
