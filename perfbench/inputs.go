package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/serve"
)

// genMatrix synthesises a calibrated generator matrix at the given scale,
// re-seeded from the workload seed, in canonical (row-major, duplicate-
// free) form: the form the server hashes and every format starts from.
func genMatrix(name string, scale float64, seed int64) (*matrix.COO[float64], error) {
	s, err := gen.Lookup(name)
	if err != nil {
		return nil, err
	}
	if s, err = s.Scale(scale); err != nil {
		return nil, err
	}
	s.Seed = mix(seed, "matrix/"+name)
	m, err := s.Generate()
	if err != nil {
		return nil, err
	}
	serve.Canonicalize(m)
	return m, nil
}

// panels makes n dense B panels of rows×k from the seed.
func panels(rows, k, n int, seed int64, tag string) []*matrix.Dense[float64] {
	out := make([]*matrix.Dense[float64], n)
	for i := range out {
		out[i] = matrix.NewDenseRand[float64](rows, k, mix(seed, fmt.Sprintf("panel/%s/%d", tag, i)))
	}
	return out
}

// mutationBatch draws one insert/update/delete batch over a's shape:
// half updates of base nonzeros, a quarter inserts within the row's band,
// a quarter deletes of base nonzeros. Every op is in range, so every batch
// is accepted whatever state the matrix is in.
func mutationBatch(rng *rand.Rand, a *matrix.COO[float64], rowPtr []int, n int) []serve.MutateOp {
	ops := make([]serve.MutateOp, n)
	for i := range ops {
		row := rng.Intn(a.Rows)
		for rowPtr[row] == rowPtr[row+1] {
			row = rng.Intn(a.Rows)
		}
		at := rowPtr[row] + rng.Intn(rowPtr[row+1]-rowPtr[row])
		col := a.ColIdx[at]
		val := rng.Float64()*2 - 1
		if val == 0 {
			val = 0.5
		}
		switch u := rng.Float64(); {
		case u < 0.5:
			ops[i] = serve.MutateOp{Row: int32(row), Col: col, Val: val}
		case u < 0.75:
			c := int(col) + rng.Intn(17) - 8
			c = max(0, min(a.Cols-1, c))
			ops[i] = serve.MutateOp{Row: int32(row), Col: int32(c), Val: val}
		default:
			ops[i] = serve.MutateOp{Row: int32(row), Col: col, Del: true}
		}
	}
	return ops
}

// rowPointers returns the CSR row pointer of a canonical COO matrix.
func rowPointers(a *matrix.COO[float64]) []int {
	p := make([]int, a.Rows+1)
	for _, r := range a.RowIdx {
		p[r+1]++
	}
	for i := 0; i < a.Rows; i++ {
		p[i+1] += p[i]
	}
	return p
}

// merged is the benchmark's own copy of a mutable matrix: one sorted
// column list per row, advanced batch by batch in epoch order with
// last-write-wins per coordinate and deletes removing the entry.
type merged struct {
	rows, cols int
	col        [][]int32
	val        [][]float64
	epoch      int64
}

func newMerged(a *matrix.COO[float64]) *merged {
	m := &merged{rows: a.Rows, cols: a.Cols,
		col: make([][]int32, a.Rows), val: make([][]float64, a.Rows)}
	p := rowPointers(a)
	for r := 0; r < a.Rows; r++ {
		m.col[r] = append([]int32(nil), a.ColIdx[p[r]:p[r+1]]...)
		m.val[r] = append([]float64(nil), a.Vals[p[r]:p[r+1]]...)
	}
	return m
}

// apply advances the copy by one acked batch.
func (m *merged) apply(ops []serve.MutateOp) {
	for _, op := range ops {
		cols := m.col[op.Row]
		i := sort.Search(len(cols), func(i int) bool { return cols[i] >= op.Col })
		found := i < len(cols) && cols[i] == op.Col
		switch {
		case op.Del && found:
			m.col[op.Row] = append(cols[:i], cols[i+1:]...)
			m.val[op.Row] = append(m.val[op.Row][:i], m.val[op.Row][i+1:]...)
		case op.Del:
		case found:
			m.val[op.Row][i] = op.Val
		default:
			m.col[op.Row] = append(cols[:i], append([]int32{op.Col}, cols[i:]...)...)
			m.val[op.Row] = append(m.val[op.Row][:i], append([]float64{op.Val}, m.val[op.Row][i:]...)...)
		}
	}
	m.epoch++
}
