package main

import (
	"bufio"
	"net/http"
	"strconv"
	"strings"

	spmmbench "repro"
	"repro/internal/cluster"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/serve"
)

// counters is one reading of the program's own counters: each replica's
// /v1/stats, Prometheus /metrics and Go runtime /debug/vars, and the
// router's /v1/cluster. Per-layer figures are differences between two
// readings taken around the timed window.
type counters struct {
	stats   []serve.StatsResponse
	prom    []map[string]float64
	mem     []memStats
	cluster *cluster.Stats
}

type memStats struct {
	Mallocs    uint64
	TotalAlloc uint64
	NumGC      uint64
}

func readCounters(f *fleet, id string) (*counters, error) {
	c := &counters{}
	for i, base := range f.replicas {
		var st serve.StatsResponse
		if err := getJSON(base+"/v1/stats", &st); err != nil {
			return nil, err
		}
		c.stats = append(c.stats, st)
		prom, err := readProm(f.metrics[i] + "/metrics")
		if err != nil {
			return nil, err
		}
		c.prom = append(c.prom, prom)
		var vars struct {
			Memstats memStats `json:"memstats"`
		}
		if err := getJSON(f.metrics[i]+"/debug/vars", &vars); err != nil {
			return nil, err
		}
		c.mem = append(c.mem, vars.Memstats)
	}
	if f.router != "" {
		st, err := clusterStats(f.router)
		if err != nil {
			return nil, err
		}
		c.cluster = st
	}
	return c, nil
}

// readProm parses Prometheus text exposition into series → value.
func readProm(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// histMeanMs is a Prometheus histogram's mean in ms between two readings,
// summed over replicas; NaN when nothing was observed.
func histMeanMs(a, b *counters, family, labels string) float64 {
	var sum, count float64
	for i := range a.prom {
		sum += b.prom[i][family+"_sum"+labels] - a.prom[i][family+"_sum"+labels]
		count += b.prom[i][family+"_count"+labels] - a.prom[i][family+"_count"+labels]
	}
	if count == 0 {
		return 0
	}
	return sum / count * 1e3
}

// serveLayers turns the traced phase's records and counter readings into
// the serving per-layer metrics.
func serveLayers(d *loadGen, setups []setupTimes, before, after, final *counters, routerRecs []serve.RequestTraceRecord, id string, o *outcome) {
	var start, reg []float64
	for _, st := range setups {
		start = append(start, toMs(st.start))
		reg = append(reg, toMs(st.register))
	}
	o.layer["serve.start_ms"] = median(start)
	o.layer["serve.register_ms"] = median(reg)
	o.layer["serve.prepare_cold_ms"] = coldPrepareMs(d.in.a, setups[0].plan, d.e.threads)

	phases := map[string][]float64{}
	var self, enc, dec, transport, widths []float64
	serverTotal := map[string]float64{}
	for _, lg := range d.logs {
		for i, t := range lg.timings {
			for _, ph := range []string{"queue", "load", "batch", "kernel", "respond"} {
				phases[ph] = append(phases[ph], t.Ms(ph))
			}
			self = append(self, t.TotalMs-t.SumMs())
			enc = append(enc, lg.enc[i])
			dec = append(dec, lg.dec[i])
			transport = append(transport, lg.rtt[i]-t.TotalMs-lg.enc[i]-lg.dec[i])
			widths = append(widths, float64(lg.widths[i]))
			serverTotal[lg.rids[i]] = t.TotalMs
		}
	}
	for ph, xs := range phases {
		o.layer["serve."+ph+"_ms"] = median(xs)
	}
	o.layer["serve.handler_self_ms"] = median(self)
	o.layer["serve.batch_width"] = mean(widths)
	o.layer["client.encode_ms"] = median(enc)
	o.layer["client.decode_ms"] = median(dec)
	o.layer["http.transport_ms"] = median(transport)

	var hits, misses, reqs, mallocs, alloc, gcs, compactions, snapshots float64
	for i := range before.stats {
		b, a, f := before.stats[i], after.stats[i], final.stats[i]
		hits += float64(a.Cache.Hits - b.Cache.Hits)
		misses += float64(a.Cache.Misses - b.Cache.Misses)
		reqs += float64(a.Requests - b.Requests)
		mallocs += float64(after.mem[i].Mallocs - before.mem[i].Mallocs)
		alloc += float64(after.mem[i].TotalAlloc - before.mem[i].TotalAlloc)
		gcs += float64(after.mem[i].NumGC - before.mem[i].NumGC)
		snapshots += float64(f.Durability.Snapshots - b.Durability.Snapshots)
		if f.Delta != nil {
			compactions += float64(f.Delta.Compactions)
		}
		if b.Delta != nil {
			compactions -= float64(b.Delta.Compactions)
		}
	}
	o.layer["serve.cache_hit_ratio"] = hits / (hits + misses)
	o.layer["serve.allocs_per_req"] = mallocs / reqs
	o.layer["serve.alloc_kb_per_req"] = alloc / reqs / 1024
	o.layer["serve.gc_per_1k_req"] = gcs / reqs * 1000
	o.layer["serve.snapshots"] = snapshots
	o.layer["delta.compactions"] = compactions
	o.layer["serve.mutate_ms"] = histMeanMs(before, final, "spmm_serve_phase_seconds", `{phase="mutate"}`)
	o.layer["delta.apply_ms"] = histMeanMs(before, final, "spmm_delta_overlay_apply_seconds", "")
	o.layer["delta.compact_ms"] = histMeanMs(before, final, "spmm_delta_compaction_seconds", "")
	var ovl []float64
	for _, lg := range d.logs {
		for _, m := range lg.muts {
			ovl = append(ovl, float64(m.overlay))
		}
	}
	o.layer["delta.overlay_nnz_mean"] = mean(ovl)

	if before.cluster != nil {
		var proxied float64
		for i, r := range after.cluster.Replicas {
			for _, rb := range before.cluster.Replicas {
				if rb.Name == r.Name {
					proxied += float64(after.cluster.Replicas[i].Proxied - rb.Proxied)
				}
			}
		}
		o.layer["cluster.attempts_per_req"] = proxied / float64(after.cluster.Requests-before.cluster.Requests)
		o.layer["cluster.holders"] = float64(len(after.cluster.Placements[id]))
		var hop []float64
		for _, rec := range routerRecs {
			if t, ok := serverTotal[rec.ID]; ok {
				hop = append(hop, rec.TotalMs-t)
			}
		}
		o.layer["cluster.hop_ms"] = median(hop)
		if len(hop) == 0 {
			o.problem("no router trace record matched a traced multiply")
		}
	}
}

// coldPrepareMs is the median of five library Prepares of the format the
// server chose, with the plan's block and schedule. Registration warms
// the format inside its own round trip, so serve.register_ms includes
// this cost; the program exposes no span for it.
func coldPrepareMs(a *matrix.COO[float64], plan *serve.RegisterResponse, threads int) float64 {
	p := spmmbench.DefaultParams()
	p.Threads, p.BlockSize, p.K, p.Reps = threads, plan.Block, 1, 1
	if plan.Schedule == kernels.ScheduleBalanced.String() {
		p.Schedule = kernels.ScheduleBalanced
	}
	var ts []float64
	for i := 0; i < 5; i++ {
		k, err := spmmbench.NewKernel(plan.Format+"-omp", spmmbench.KernelOptions{})
		if err != nil {
			return nan()
		}
		in := a.Clone()
		ts = append(ts, timeMs(func() error { return k.Prepare(in, p) }))
	}
	return median(ts)
}
