package galerkin

import (
	"math"

	"opera/internal/parallel"
	"opera/internal/sparse"
)

// kronChunk is the block-row granularity of kronOp.MulVec.
const kronChunk = 64

// cacheLineFloats is one 64-byte cache line of float64s, the gap kept
// between two workers' gather buffers.
const cacheLineFloats = 8

// kronOp applies one of the Eq. 19 operators y = Σ_t s_t·(A_t ⊗ T_t)·x
// to node-major vectors (x[i·B+m]) straight from the term lists,
// without assembling the dense B×B blocks. Block row i is a gather,
//
//	y_i = Σ_t s_t·T_t·(Σ_j A_t(i,j)·x_j),
//
// with row i of the symmetric A_t read as its stored column i. The
// identity-coupled terms (the mean G₀, C₀) are summed into one node
// matrix that gathers straight into y_i. Each y_i is produced whole by
// one worker in a fixed order, so the result is bit-identical for
// every worker count.
type kronOp struct {
	n, b    int
	workers int
	mean    *sparse.Matrix // Σ s_t·A_t over the identity couplings
	terms   []Term         // the other terms, couplings scaled by s_t
	scratch [][]float64    // per worker: the gathered Σ_j A_t(i,j)·x_j
}

func newKronOp(n, b, workers int) *kronOp {
	k := &kronOp{n: n, b: b, workers: workers, mean: sparse.NewMatrix(n, n), scratch: make([][]float64, workers)}
	// One slab with a cache line between consecutive workers' buffers: a
	// few-float buffer allocated on its own can share a line with
	// another worker's, and every accumulate would bounce it between
	// cores.
	stride := b + cacheLineFloats
	slab := make([]float64, workers*stride)
	for w := range k.scratch {
		k.scratch[w] = slab[w*stride : w*stride+b : w*stride+b]
	}
	return k
}

// add appends the terms of ts, each scaled by s.
func (k *kronOp) add(ts []Term, s float64) *kronOp {
	for _, t := range ts {
		if isIdentity(t.Coupling) {
			k.mean = sparse.Add(1, k.mean, s, t.A)
		} else {
			k.terms = append(k.terms, Term{Coupling: t.Coupling.Clone().Scale(s), A: t.A})
		}
	}
	return k
}

// MulVec computes y = Σ_t s_t·(A_t ⊗ T_t)·x.
func (k *kronOp) MulVec(y, x []float64) {
	chunks := (k.n + kronChunk - 1) / kronChunk
	if err := parallel.ForEach(k.workers, chunks, func(w, c int) error {
		k.gather(y, x, c*kronChunk, min((c+1)*kronChunk, k.n), k.scratch[w])
		return nil
	}); err != nil {
		panic(err) // a panic in the gather: re-raise it on the caller
	}
}

func (k *kronOp) gather(y, x []float64, lo, hi int, w []float64) {
	b := k.b
	w = w[:b:b]
	for i := lo; i < hi; i++ {
		yi := y[i*b : i*b+b : i*b+b]
		clear(yi)
		gatherRow(yi, x, k.mean, i)
		for _, t := range k.terms {
			clear(w)
			gatherRow(w, x, t.A, i)
			c := t.Coupling
			for col, wc := range w {
				for p := c.Colp[col]; p < c.Colp[col+1]; p++ {
					yi[c.Rowi[p]] += c.Val[p] * wc
				}
			}
		}
	}
}

// gatherRow adds Σ_j A(i,j)·x_j to dst (length B), reading row i of
// the symmetric A as its column i.
func gatherRow(dst, x []float64, a *sparse.Matrix, i int) {
	b := len(dst)
	rowi, val := a.Rowi[a.Colp[i]:a.Colp[i+1]], a.Val[a.Colp[i]:a.Colp[i+1]]
	for p, j := range rowi {
		av := val[p]
		xj := x[j*b:][:b]
		for m := range dst {
			dst[m] += av * xj[m]
		}
	}
}

// macs counts the multiply-adds of one MulVec: every node matrix
// gathers nnz(A)·B, and each non-identity coupling is applied at every
// node.
func (k *kronOp) macs() int64 {
	m := int64(k.mean.NNZ()) * int64(k.b)
	for _, t := range k.terms {
		m += int64(t.A.NNZ())*int64(k.b) + int64(k.n)*int64(t.Coupling.NNZ())
	}
	return m
}

// normInf returns the operator's ∞-norm, the maximum absolute row sum
// of its assembled blocks (what NormInf of the same operator's
// assembleBlock gives), accumulating one block row at a time.
func (k *kronOp) normInf() float64 {
	b, bb := k.b, k.b*k.b
	terms := append([]Term{{Coupling: sparse.Identity(b), A: k.mean}}, k.terms...)
	slot := make([]int, k.n) // block of node j in the current row, or -1
	for j := range slot {
		slot[j] = -1
	}
	var cols []int
	var blocks []float64
	norm := 0.0
	for i := 0; i < k.n; i++ {
		cols, blocks = cols[:0], blocks[:0]
		for _, t := range terms {
			a, c := t.A, t.Coupling
			for p := a.Colp[i]; p < a.Colp[i+1]; p++ {
				j := a.Rowi[p]
				if slot[j] < 0 {
					slot[j] = len(cols)
					cols = append(cols, j)
					blocks = append(blocks, make([]float64, bb)...)
				}
				blk := blocks[slot[j]*bb:][:bb]
				for col := 0; col < b; col++ {
					for q := c.Colp[col]; q < c.Colp[col+1]; q++ {
						blk[c.Rowi[q]*b+col] += c.Val[q] * a.Val[p]
					}
				}
			}
		}
		for r := 0; r < b; r++ {
			sum := 0.0
			for s := range cols {
				for _, v := range blocks[s*bb+r*b:][:b] {
					sum += math.Abs(v)
				}
			}
			norm = math.Max(norm, sum)
		}
		for _, j := range cols {
			slot[j] = -1
		}
	}
	return norm
}
