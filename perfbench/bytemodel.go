package main

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/formats"
	"repro/internal/matrix"
)

// traffic is the computed memory traffic of one multiply C = A×B[:, :k]:
// every stored value and index of the format read once, every B row the
// matrix touches read once, and C written once. It ignores cache reuse and
// misses alike, so achieved GB/s from it is a lower bound on what the
// memory system moved.
type traffic struct {
	Vals, Index, B, C int64
}

func (t traffic) total() int64 { return t.Vals + t.Index + t.B + t.C }

const f64, i32 = 8, 4

// touchedCols counts the distinct columns holding a nonzero: the B rows a
// multiply must read.
func touchedCols(a *matrix.COO[float64]) int {
	seen := make([]bool, a.Cols)
	n := 0
	for _, c := range a.ColIdx {
		if !seen[c] {
			seen[c] = true
			n++
		}
	}
	return n
}

func panelBytes(rows, k int) int64 { return int64(rows) * int64(k) * f64 }

func cooTraffic(a *matrix.COO[float64], k int) traffic {
	nnz := int64(a.NNZ())
	return traffic{Vals: nnz * f64, Index: 2 * nnz * i32,
		B: panelBytes(touchedCols(a), k), C: panelBytes(a.Rows, k)}
}

func csrTraffic(a *formats.CSR[float64], touched, k int) traffic {
	return traffic{Vals: int64(len(a.Vals)) * f64,
		Index: int64(len(a.ColIdx)+len(a.RowPtr)) * i32,
		B:     panelBytes(touched, k), C: panelBytes(a.Rows, k)}
}

// ellTraffic counts the padded slots too: the kernel loads them. Padding
// repeats a real column of its row, so it touches no extra B rows.
func ellTraffic(a *formats.ELL[float64], touched, k int) traffic {
	return traffic{Vals: int64(len(a.Vals)) * f64, Index: int64(len(a.ColIdx)) * i32,
		B: panelBytes(touched, k), C: panelBytes(a.Rows, k)}
}

// bcsrTraffic reads whole blocks (explicit zeros included) and, for each
// block column holding a block, BC rows of B (clipped at the last column).
func bcsrTraffic(a *formats.BCSR[float64], k int) traffic {
	seen := make([]bool, a.BlockCols)
	brows := 0
	for _, bc := range a.ColIdx {
		if !seen[bc] {
			seen[bc] = true
			brows += min(a.BC, a.Cols-int(bc)*a.BC)
		}
	}
	return traffic{Vals: int64(len(a.Vals)) * f64,
		Index: int64(len(a.ColIdx)+len(a.RowPtr)) * i32,
		B:     panelBytes(brows, k), C: panelBytes(a.Rows, k)}
}

// formatTraffic prepares the format the same way the library kernel does
// and returns its traffic model and footprint.
func formatTraffic(format string, a *matrix.COO[float64], block, k int) (traffic, error) {
	switch format {
	case "coo":
		return cooTraffic(a, k), nil
	case "csr":
		return csrTraffic(formats.CSRFromCOO(a), touchedCols(a), k), nil
	case "ell":
		return ellTraffic(formats.ELLFromCOO(a, formats.RowMajor), touchedCols(a), k), nil
	default:
		b, err := formats.BCSRFromCOO(a, block, block)
		if err != nil {
			return traffic{}, err
		}
		return bcsrTraffic(b, k), nil
	}
}

// triadGBps is a STREAM-triad probe, a[i] = b[i] + s·c[i] on every CPU,
// over three arrays whose total size is wsBytes — the kernels' own working
// set, so the ceiling is measured at the cache level the kernels run in.
// It counts 24 bytes per element (two reads, one write) as STREAM does and
// reports the median pass over the given duration.
func triadGBps(wsBytes int64, d time.Duration) float64 {
	n := int(wsBytes / 24)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = float64(i%7), float64(i%5)
	}
	workers := runtime.GOMAXPROCS(0)
	pass := func(s float64) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := n*w/workers, n*(w+1)/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range aa {
					aa[i] = bb[i] + s*cc[i]
				}
			}()
		}
		wg.Wait()
	}
	pass(1) // first touch
	var rates []float64
	for end := time.Now().Add(d); time.Now().Before(end) || len(rates) < 5; {
		t0 := time.Now()
		pass(3)
		rates = append(rates, float64(24*n)/time.Since(t0).Seconds()/1e9)
	}
	return median(rates)
}
