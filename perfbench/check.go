package main

import (
	"fmt"
	"math"

	"repro/internal/formats"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/serve"
)

// unitRoundoff is u = 2^-53, the float64 unit roundoff.
const unitRoundoff = 1.0 / (1 << 53)

// gamma is γ_n = n·u / (1 − n·u), the classic forward-error factor of an
// n-term floating-point dot product in any summation order.
func gamma(n int) float64 {
	nu := float64(n) * unitRoundoff
	return nu / (1 - nu)
}

// reference is the benchmark's own product A×B[:, :k], computed from the
// triplets it generated, with a per-entry tolerance. Both the reference and
// a checked result are within γ_n·(|A||B|)_ij of the exact product, where
// n is the row's nonzero count, so they may differ by twice that.
type reference struct {
	rows, k int
	val     []float64
	tol     []float64
}

// referenceProduct multiplies a canonical (row-major, duplicate-free)
// COO matrix by the first k columns of b, triplet by triplet.
func referenceProduct(a *matrix.COO[float64], b *matrix.Dense[float64], k int) *reference {
	r := &reference{rows: a.Rows, k: k,
		val: make([]float64, a.Rows*k), tol: make([]float64, a.Rows*k)}
	p := rowPointers(a)
	for row := 0; row < a.Rows; row++ {
		lo, hi := p[row], p[row+1]
		rowReference(a.ColIdx[lo:hi], a.Vals[lo:hi], b, k, r.val[row*k:row*k+k], r.tol[row*k:row*k+k])
	}
	return r
}

// rowReference computes one row of the reference product into val and
// its forward-error tolerance into tol.
func rowReference(cols []int32, vals []float64, b *matrix.Dense[float64], k int, val, tol []float64) {
	clear(val)
	clear(tol)
	for i, v := range vals {
		brow := b.Row(int(cols[i]))
		av := math.Abs(v)
		for j := 0; j < k; j++ {
			val[j] += v * brow[j]
			tol[j] += av * math.Abs(brow[j])
		}
	}
	g := 2 * gamma(len(vals)+1)
	for j := range tol {
		tol[j] = g*tol[j] + math.SmallestNonzeroFloat64
	}
}

// check reports the first entry of c[:, :k] outside the forward-error
// bound of the reference.
func (r *reference) check(c *matrix.Dense[float64]) error {
	if c.Rows != r.rows || c.Cols < r.k {
		return fmt.Errorf("result is %dx%d, want %dx%d", c.Rows, c.Cols, r.rows, r.k)
	}
	for i := 0; i < r.rows; i++ {
		row := c.Row(i)
		for j := 0; j < r.k; j++ {
			want, tol := r.val[i*r.k+j], r.tol[i*r.k+j]
			if d := math.Abs(row[j] - want); !(d <= tol) {
				return fmt.Errorf("C[%d][%d] = %v, reference %v, error %.3g beyond bound %.3g",
					i, j, row[j], want, d, tol)
			}
		}
	}
	return nil
}

// panelHash fingerprints the exact bits of c[:, :k]; equal hashes stand
// for bitwise-equal panels.
func panelHash(c *matrix.Dense[float64], k int) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h = (h ^ uint64(c.Rows)) * prime
	h = (h ^ uint64(k)) * prime
	for i := 0; i < c.Rows; i++ {
		for _, v := range c.Row(i)[:k] {
			h = (h ^ math.Float64bits(v)) * prime
			h ^= h >> 29
		}
	}
	return h
}

// bitwiseEqual reports the first entry where got and want differ in any
// bit over their first k columns.
func bitwiseEqual(got, want *matrix.Dense[float64], k int) error {
	if got.Rows != want.Rows || got.Cols < k || want.Cols < k {
		return fmt.Errorf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, k)
	}
	for i := 0; i < got.Rows; i++ {
		g, w := got.Row(i), want.Row(i)
		for j := 0; j < k; j++ {
			if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
				return fmt.Errorf("C[%d][%d] = %v, csr-serial gives %v", i, j, g[j], w[j])
			}
		}
	}
	return nil
}

// csrSerial is the serving oracle: the plain single-thread CSR kernel over
// the canonical matrix. Served panels must equal it bit for bit.
func csrSerial(a *matrix.COO[float64], b *matrix.Dense[float64], k int) (*matrix.Dense[float64], error) {
	c := matrix.NewDense[float64](a.Rows, k)
	if err := kernels.CSRSerial(formats.CSRFromCOO(a), b, c, k); err != nil {
		return nil, err
	}
	return c, nil
}

// oracle is the expected served result for one (matrix state, panel):
// csr-serial's bits, already checked against the benchmark's own
// reference product.
type oracle struct {
	c    *matrix.Dense[float64]
	hash uint64
}

// newOracle computes csr-serial over a and checks it against the
// benchmark's own triplet product before anything is compared with it.
func newOracle(a *matrix.COO[float64], b *matrix.Dense[float64], k int) (*oracle, error) {
	c, err := csrSerial(a, b, k)
	if err != nil {
		return nil, err
	}
	if err := referenceProduct(a, b, k).check(c); err != nil {
		return nil, fmt.Errorf("csr-serial against the reference product: %w", err)
	}
	return &oracle{c: c, hash: panelHash(c, k)}, nil
}

// epochOracle is csr-serial's result over the benchmark's merged copy of
// a mutable matrix, per panel, advanced batch by batch. Each CSR row's
// result depends only on that row, so a batch recomputes just the rows it
// touched, each with the same kernels.CSRSerial call on a one-row CSR and
// each checked against the reference product of its row.
type epochOracle struct {
	st     *merged
	panels []*matrix.Dense[float64]
	k      int
	res    []*matrix.Dense[float64]
}

// newEpochOracle starts at epoch 0 from already checked results.
func newEpochOracle(a *matrix.COO[float64], panels []*matrix.Dense[float64], start []*oracle, k int) *epochOracle {
	eo := &epochOracle{st: newMerged(a), panels: panels, k: k}
	for _, o := range start {
		eo.res = append(eo.res, o.c.Clone())
	}
	return eo
}

// advance applies the next acked batch and recomputes the touched rows.
func (eo *epochOracle) advance(ops []serve.MutateOp) error {
	eo.st.apply(ops)
	done := map[int32]bool{}
	val, tol := make([]float64, eo.k), make([]float64, eo.k)
	for _, op := range ops {
		r := op.Row
		if done[r] {
			continue
		}
		done[r] = true
		cols, vals := eo.st.col[r], eo.st.val[r]
		row := &formats.CSR[float64]{Rows: 1, Cols: eo.st.cols,
			RowPtr: []int32{0, int32(len(cols))}, ColIdx: cols, Vals: vals}
		for p, b := range eo.panels {
			c := &matrix.Dense[float64]{Rows: 1, Cols: eo.k, Stride: eo.k,
				Data: eo.res[p].Data[int(r)*eo.k : int(r+1)*eo.k]}
			if err := kernels.CSRSerial(row, b, c, eo.k); err != nil {
				return err
			}
			rowReference(cols, vals, b, eo.k, val, tol)
			for j, got := range c.Data {
				if d := math.Abs(got - val[j]); !(d <= tol[j]) {
					return fmt.Errorf("epoch %d row %d: csr-serial %v, reference %v, beyond bound %.3g",
						eo.st.epoch, r, got, val[j], tol[j])
				}
			}
		}
	}
	return nil
}
