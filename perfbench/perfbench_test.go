package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/matrix"
	"repro/internal/serve"
)

// tiny is the 3×3 matrix [[1 0 2] [0 0 0] [0 3 0]].
func tiny() *matrix.COO[float64] {
	a := matrix.NewCOO[float64](3, 3, 3)
	a.Append(0, 0, 1)
	a.Append(0, 2, 2)
	a.Append(2, 1, 3)
	return a
}

func dense(rows [][]float64) *matrix.Dense[float64] {
	d := matrix.NewDense[float64](len(rows), len(rows[0]))
	for i, r := range rows {
		copy(d.Row(i), r)
	}
	return d
}

func TestReferenceProductHandComputed(t *testing.T) {
	b := dense([][]float64{{1, 2}, {3, 4}, {5, 6}})
	ref := referenceProduct(tiny(), b, 2)
	// Row 0: 1·(1,2) + 2·(5,6) = (11, 14); row 1 empty; row 2: 3·(3,4).
	want := []float64{11, 14, 0, 0, 9, 12}
	for i, w := range want {
		if ref.val[i] != w {
			t.Fatalf("reference[%d] = %v, want %v", i, ref.val[i], w)
		}
	}
	if err := ref.check(dense([][]float64{{11, 14}, {0, 0}, {9, 12}})); err != nil {
		t.Fatalf("exact product rejected: %v", err)
	}
	if err := ref.check(dense([][]float64{{11, 14}, {0, 0}, {9, 12.001}})); err == nil {
		t.Fatal("a wrong entry passed the forward-error bound")
	}
}

func TestServedCheckFailsOnOneULP(t *testing.T) {
	a := tiny()
	b := matrix.NewDenseRand[float64](3, 4, 7)
	or, err := newOracle(a, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := or.c.Clone()
	if panelHash(got, 4) != or.hash || bitwiseEqual(got, or.c, 4) != nil {
		t.Fatal("an identical panel failed the check")
	}
	got.Set(2, 3, math.Nextafter(got.At(2, 3), math.Inf(1)))
	if panelHash(got, 4) == or.hash {
		t.Fatal("a one-ULP change kept the panel hash")
	}
	if bitwiseEqual(got, or.c, 4) == nil {
		t.Fatal("a one-ULP change passed the bitwise check")
	}
}

// servedLog is one client that acked batch ops at epoch 1 and then saw a
// multiply of panel 0 at epoch 1 with the given bits.
func servedLog(ops []serve.MutateOp, c *matrix.Dense[float64]) []*clientLog {
	return []*clientLog{{
		muts:   []mutRec{{epoch: 1, ops: ops}},
		muls:   []mulRec{{panel: 0, epoch: 1, hash: panelHash(c, 2)}},
		epochs: []int64{1, 1},
	}}
}

func TestServedCheckFailsOnMissedMutation(t *testing.T) {
	a := tiny()
	b := matrix.NewDenseRand[float64](3, 2, 3)
	before, err := newOracle(a, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := &serveInputs{a: a, panels: []*matrix.Dense[float64]{b}, oracles: []*oracle{before}}
	ops := []serve.MutateOp{{Row: 1, Col: 1, Val: 5}, {Row: 0, Col: 0, Del: true}}
	m := newMerged(a)
	m.apply(ops)
	after, err := newOracle(m.coo(), b, 2)
	if err != nil {
		t.Fatal(err)
	}

	ok := newOutcome()
	verifyServed(in, 2, servedLog(ops, after.c), 1, ok)
	if len(ok.problems) != 0 {
		t.Fatalf("a correct epoch-1 response was rejected: %v", ok.problems)
	}
	stale := newOutcome()
	verifyServed(in, 2, servedLog(ops, before.c), 1, stale)
	if len(stale.problems) == 0 {
		t.Fatal("a response missing an acked mutation passed")
	}
	short := newOutcome()
	verifyServed(in, 2, servedLog(ops, after.c), 2, short)
	if len(short.problems) == 0 {
		t.Fatal("a final epoch beyond the acked batches passed")
	}
	back := newOutcome()
	lg := servedLog(ops, after.c)
	lg[0].epochs = []int64{1, 0}
	verifyServed(in, 2, lg, 1, back)
	if len(back.problems) == 0 {
		t.Fatal("an epoch going backwards passed")
	}
}

func TestMergedApply(t *testing.T) {
	m := newMerged(tiny())
	m.apply([]serve.MutateOp{
		{Row: 0, Col: 1, Val: 7},    // insert between two entries
		{Row: 0, Col: 2, Val: 9},    // update
		{Row: 2, Col: 1, Del: true}, // delete
		{Row: 1, Col: 0, Del: true}, // delete of an absent entry: no-op
		{Row: 0, Col: 2, Val: 4},    // a later op on a coordinate wins
	})
	got := m.coo()
	want := [][3]float64{{0, 0, 1}, {0, 1, 7}, {0, 2, 4}}
	if got.NNZ() != len(want) || m.epoch != 1 {
		t.Fatalf("merged has %d entries at epoch %d, want %d at 1", got.NNZ(), m.epoch, len(want))
	}
	for i, w := range want {
		if float64(got.RowIdx[i]) != w[0] || float64(got.ColIdx[i]) != w[1] || got.Vals[i] != w[2] {
			t.Fatalf("entry %d = (%d,%d,%v), want %v", i, got.RowIdx[i], got.ColIdx[i], got.Vals[i], w)
		}
	}
}

func TestSummarizeReportsNoTailWithoutTenBeyondP90(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, n := range []int{1, 20, 90} {
		s := summarize(seq(n))
		if s.OK90 || !math.IsNaN(s.P90) || s.Count90 >= 10 {
			t.Fatalf("n=%d: p90 reported with %d samples beyond it", n, s.Count90)
		}
		if math.IsNaN(s.P50) {
			t.Fatalf("n=%d: no median", n)
		}
	}
	s := summarize(seq(100))
	if !s.OK90 || s.Count90 != 10 || s.P50 != 50.5 {
		t.Fatalf("n=100: %+v, want p90 with 10 beyond and median 50.5", s)
	}
	if _, err := collect(endToEnd, finite(map[string]float64{"latency_p50_ms": s.P50}), false); err == nil {
		t.Fatal("a run missing end-to-end metrics was accepted")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestByteModelHandCounts(t *testing.T) {
	// k=2; nonzero columns {0,1,2} → B 3 rows × 2 × 8 = 48 bytes, C 48.
	cases := []struct {
		format string
		want   traffic
	}{
		{"coo", traffic{Vals: 3 * 8, Index: 6 * 4, B: 48, C: 48}},
		// col indices 3 + row pointers 4
		{"csr", traffic{Vals: 3 * 8, Index: 7 * 4, B: 48, C: 48}},
		// width 2 (row 0) × 3 rows = 6 slots
		{"ell", traffic{Vals: 6 * 8, Index: 6 * 4, B: 48, C: 48}},
		// 2×2 blocks (0,0), (0,1), (1,0): 3 blocks × 4 values; block
		// col indices 3 + block row pointers 3; B rows: block col 0 → 2,
		// block col 1 → 1 (column 3 is past the edge).
		{"bcsr", traffic{Vals: 12 * 8, Index: 6 * 4, B: 3 * 2 * 8, C: 48}},
	}
	for _, c := range cases {
		got, err := formatTraffic(c.format, tiny(), 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s: traffic %+v, want %+v", c.format, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// the benchmark prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, file []struct{ Name, Unit string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(file), len(defs))
			return
		}
		for i, d := range defs {
			if file[i].Name != d.Name || file[i].Unit != d.Unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
					kind, i, file[i].Name, file[i].Unit, d.Name, d.Unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
}

// coo materializes the current state in canonical order.
func (m *merged) coo() *matrix.COO[float64] {
	n := 0
	for _, c := range m.col {
		n += len(c)
	}
	out := matrix.NewCOO[float64](m.rows, m.cols, n)
	for r := range m.col {
		for i, c := range m.col[r] {
			out.Append(int32(r), c, m.val[r][i])
		}
	}
	return out
}
