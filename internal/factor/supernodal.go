package factor

import (
	"fmt"
	"sort"

	"opera/internal/sparse"
)

// DefaultRelax is the default amalgamation threshold: merging a column
// into its parent supernode may introduce at most this many explicit
// zeros per member column on average. 0 yields exactly the fundamental
// supernodes; a huge value merges whole elimination-tree chains.
const DefaultRelax = 8

// SuperSymbolic carries the supernodal symbolic analysis: the column
// partition into supernodes (maximal chains of columns with identical
// below-diagonal pattern, relaxed by an amalgamation threshold), the
// per-supernode panel row lists, and the update dependency lists that
// drive both the left-looking numeric kernel and its etree-subtree
// parallel schedule. Like CholSymbolic, one analysis serves any number
// of numeric factorizations sharing the pattern.
type SuperSymbolic struct {
	N    int
	Perm []int // fill-reducing permutation; nil = natural

	relax int
	// lower is the pattern (no values) of the permuted lower triangle:
	// the transposed upper triangle FactorLower reads.
	lower *sparse.Matrix

	snode  []int // column -> supernode id
	sstart []int // supernode s spans columns [sstart[s], sstart[s+1])
	rows   []int // concatenated panel row lists (ascending per supernode)
	rowp   []int // rows of supernode s: rows[rowp[s]:rowp[s+1]]
	poff   []int // panel value offset of supernode s (column-major, ld = row count)
	upd    []int // concatenated updater ids, ascending per target
	updp   []int // updaters of s: upd[updp[s]:updp[s+1]]
	tgt    []int // concatenated ancestor targets, ascending per source
	tgtp   []int // targets of s: tgt[tgtp[s]:tgtp[s+1]]

	colcount []int // exact nnz per column of L (scalar pattern)
	lnnz     int   // Σ colcount — scalar-equivalent nnz
	maxRows  int   // widest panel row count (worker scratch sizing)
	maxWidth int   // widest supernode
}

// CholAnalyzeSupernodal performs the supernodal symbolic analysis of
// the symmetric matrix a under permutation perm (nil = natural). relax
// is the amalgamation threshold in average padded entries per column;
// negative selects DefaultRelax, 0 disables amalgamation (fundamental
// supernodes). Only the pattern of a is consulted.
func CholAnalyzeSupernodal(a *sparse.Matrix, perm []int, relax int) *SuperSymbolic {
	if a.Rows != a.Cols {
		panic("factor: CholAnalyzeSupernodal requires a square matrix")
	}
	if relax < 0 {
		relax = DefaultRelax
	}
	n := a.Rows
	if relax > n {
		relax = n // n per column already admits any chain; avoids overflow
	}
	c := a
	if perm != nil {
		if len(perm) != n {
			panic(fmt.Sprintf("factor: permutation length %d != %d", len(perm), n))
		}
		c = a.SymPerm(perm)
	}
	u := c.UpperTriangle()
	parent := etree(u)

	// Postorder the elimination tree. Fill-reducing orderings that
	// don't number etree children consecutively (minimum degree, AMD)
	// scatter the identical-pattern column chains, collapsing supernode
	// detection to near-scalar widths. Relabeling columns by a
	// postorder leaves the factor's fill and flops invariant but makes
	// every subtree — and hence every chain — contiguous. The composed
	// permutation becomes the analysis's effective Perm.
	if post := postorder(parent); post != nil {
		np := make([]int, n)
		if perm == nil {
			copy(np, post)
		} else {
			for k, p := range post {
				np[k] = perm[p]
			}
		}
		perm = np
		c = a.SymPerm(perm)
		u = c.UpperTriangle()
		parent = etree(u)
	}

	// Pass 1: exact column counts of L via an ereach sweep (identical to
	// the scalar analysis, so both kernels report the same cost model).
	count := make([]int, n)
	s := make([]int, n)
	w := make([]int, n)
	for i := range w {
		w[i] = -1
	}
	for k := 0; k < n; k++ {
		count[k]++
		for top := ereach(u, k, parent, s, w); top < n; top++ {
			count[s[top]]++
		}
	}

	lower := u.Transpose()
	lower.Val = nil
	sym := &SuperSymbolic{N: n, relax: relax, lower: lower, colcount: count}
	if perm != nil {
		sym.Perm = append([]int(nil), perm...)
	}
	for _, cc := range count {
		sym.lnnz += cc
	}

	// Supernode detection: greedy left-to-right chain growth. Column c
	// joins the current supernode [start..c-1] iff the etree chain
	// continues (parent[c-1] == c) and the total panel padding stays
	// within relax explicit zeros per member column. For a supernode
	// ending at column c with width W and count prefix sum sumCount, the
	// padded trapezoid holds W(W−1)/2 + W·count[c] entries, so the
	// padding is that minus sumCount. relax == 0 therefore admits
	// exactly the identical-pattern chains (fundamental supernodes).
	snode := make([]int, n)
	sstart := make([]int, 0, n+1)
	start, sumCount := 0, 0
	for col := 0; col < n; col++ {
		if col > start {
			width := col - start + 1
			padded := width*(width-1)/2 + width*count[col]
			if parent[col-1] != col || padded-(sumCount+count[col]) > relax*width {
				sstart = append(sstart, start)
				start, sumCount = col, 0
			}
		}
		sumCount += count[col]
		snode[col] = len(sstart)
	}
	if n > 0 {
		sstart = append(sstart, start)
	}
	sstart = append(sstart, n)
	ns := len(sstart) - 1
	sym.snode = snode
	sym.sstart = sstart

	// Pass 2: panel row lists. The rows of supernode s are its member
	// columns followed by the below-diagonal pattern of its last column;
	// the etree chain property guarantees every member column's pattern
	// fits inside that trapezoid. Row k of L has entry in column i
	// exactly when i appears in ereach(k), so one more sweep collects
	// the below rows of each last column in ascending k order.
	rowCount := make([]int, ns)
	for sn := 0; sn < ns; sn++ {
		rowCount[sn] = sstart[sn+1] - sstart[sn]
	}
	for i := range w {
		w[i] = -1
	}
	for k := 0; k < n; k++ {
		for top := ereach(u, k, parent, s, w); top < n; top++ {
			i := s[top]
			if sn := snode[i]; i == sstart[sn+1]-1 {
				rowCount[sn]++
			}
		}
	}
	rowp := make([]int, ns+1)
	poff := make([]int, ns+1)
	for sn := 0; sn < ns; sn++ {
		rowp[sn+1] = rowp[sn] + rowCount[sn]
		width := sstart[sn+1] - sstart[sn]
		poff[sn+1] = poff[sn] + rowCount[sn]*width
		if rowCount[sn] > sym.maxRows {
			sym.maxRows = rowCount[sn]
		}
		if width > sym.maxWidth {
			sym.maxWidth = width
		}
	}
	rows := make([]int, rowp[ns])
	next := make([]int, ns)
	for sn := 0; sn < ns; sn++ {
		next[sn] = rowp[sn]
		for j := sstart[sn]; j < sstart[sn+1]; j++ {
			rows[next[sn]] = j
			next[sn]++
		}
	}
	for i := range w {
		w[i] = -1
	}
	for k := 0; k < n; k++ {
		for top := ereach(u, k, parent, s, w); top < n; top++ {
			i := s[top]
			if sn := snode[i]; i == sstart[sn+1]-1 {
				rows[next[sn]] = k
				next[sn]++
			}
		}
	}
	sym.rows = rows
	sym.rowp = rowp
	sym.poff = poff

	// Dependency lists. The ancestor targets of supernode d are the
	// distinct supernodes owning d's below rows; because the row list is
	// ascending and supernodes partition columns in order, consecutive
	// deduplication suffices. Inverting the target lists in d-ascending
	// order yields each target's updater list already ascending — the
	// fixed update order that makes the parallel schedule bit-exact.
	tgtp := make([]int, ns+1)
	updCount := make([]int, ns)
	for sn := 0; sn < ns; sn++ {
		width := sstart[sn+1] - sstart[sn]
		prev := -1
		for _, r := range rows[rowp[sn]+width : rowp[sn+1]] {
			if t := snode[r]; t != prev {
				tgtp[sn+1]++
				updCount[t]++
				prev = t
			}
		}
	}
	for sn := 0; sn < ns; sn++ {
		tgtp[sn+1] += tgtp[sn]
	}
	tgt := make([]int, tgtp[ns])
	updp := make([]int, ns+1)
	for sn := 0; sn < ns; sn++ {
		updp[sn+1] = updp[sn] + updCount[sn]
	}
	upd := make([]int, updp[ns])
	fillT := append([]int(nil), tgtp[:ns]...)
	fillU := append([]int(nil), updp[:ns]...)
	for sn := 0; sn < ns; sn++ {
		width := sstart[sn+1] - sstart[sn]
		prev := -1
		for _, r := range rows[rowp[sn]+width : rowp[sn+1]] {
			if t := snode[r]; t != prev {
				tgt[fillT[sn]] = t
				fillT[sn]++
				upd[fillU[t]] = sn
				fillU[t]++
				prev = t
			}
		}
	}
	sym.tgt, sym.tgtp = tgt, tgtp
	sym.upd, sym.updp = upd, updp
	return sym
}

// Lower returns a zero-valued matrix on the analysis's permuted lower
// triangle: the CSC form FactorLower reads, with rows ascending and the
// diagonal first in every column. LowerSlots says where each entry of
// a matrix on the analyzed pattern goes in it. Only Val belongs to the
// caller: Colp and Rowi are the analysis's own and must not be
// modified.
func (s *SuperSymbolic) Lower() *sparse.Matrix {
	return &sparse.Matrix{Rows: s.N, Cols: s.N, Colp: s.lower.Colp, Rowi: s.lower.Rowi, Val: make([]float64, len(s.lower.Rowi))}
}

// LowerSlots maps the stored entries of a symmetric matrix a (full
// pattern, sorted columns) into the values of Lower: slot[p] is where
// a's entry p lands once P·A·Pᵀ is split into its upper triangle and
// transposed, or -1 for an entry the permutation puts strictly below
// the diagonal (only the upper half is read). An entry outside the
// analyzed pattern is an error. A caller that refactors one pattern
// under many value sets builds the map once and refills Lower through
// it, instead of permuting every set.
func (s *SuperSymbolic) LowerSlots(a *sparse.Matrix) ([]int, error) {
	n := s.N
	if a.Rows != n || a.Cols != n {
		return nil, fmt.Errorf("factor: matrix is %dx%d, analyzed %d", a.Rows, a.Cols, n)
	}
	var inv []int
	if s.Perm != nil {
		inv = sparse.InversePerm(s.Perm)
	}
	at := func(i int) int {
		if inv == nil {
			return i
		}
		return inv[i]
	}
	lo := s.lower
	slot := make([]int, a.NNZ())
	for j := 0; j < n; j++ {
		pj := at(j)
		for p := a.Colp[j]; p < a.Colp[j+1]; p++ {
			pi := at(a.Rowi[p])
			if pi > pj {
				slot[p] = -1
				continue
			}
			// Upper entry (pi, pj) is lower entry (pj, pi).
			beg, end := lo.Colp[pi], lo.Colp[pi+1]
			q := beg + sort.SearchInts(lo.Rowi[beg:end], pj)
			if q == end || lo.Rowi[q] != pj {
				return nil, fmt.Errorf("factor: entry (%d,%d) outside the analyzed pattern", a.Rowi[p], j)
			}
			slot[p] = q
		}
	}
	return slot, nil
}

// Supernodes reports the number of supernodes in the partition.
func (s *SuperSymbolic) Supernodes() int { return len(s.sstart) - 1 }

// LNNZ reports the number of nonzeros in the factor L under the exact
// scalar pattern — the same cost model as CholSymbolic.LNNZ, so the
// metric is comparable across kernels at equal permutation.
func (s *SuperSymbolic) LNNZ() int { return s.lnnz }

// PanelNNZ reports the stored panel entries including amalgamation
// padding and the never-read upper triangles of the diagonal blocks —
// the actual float64 storage of a numeric factor.
func (s *SuperSymbolic) PanelNNZ() int { return s.poff[len(s.poff)-1] }

// FlopEstimate returns the symbolic flop count Σ_j |L(:,j)|² on the
// exact scalar pattern, matching CholSymbolic.FlopEstimate.
func (s *SuperSymbolic) FlopEstimate() int64 {
	var fl int64
	for _, c := range s.colcount {
		fl += int64(c) * int64(c)
	}
	return fl
}

// FillRatio reports nnz(L)/nnz(upper(A)) on the exact scalar pattern.
func (s *SuperSymbolic) FillRatio() float64 {
	annz := s.lower.NNZ()
	if annz == 0 {
		return 0
	}
	return float64(s.lnnz) / float64(annz)
}
