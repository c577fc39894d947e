package order

import "opera/internal/obs"

// AMD computes an approximate-minimum-degree ordering in the
// Amestoy–Davis–Duff style: the quotient-graph element model of
// MinimumDegree, but instead of recomputing exact degrees after each
// elimination it maintains the external-degree upper bound
//
//	d̄(v) = min(n−k, d̄(v)+|Lp|−1, |Av|+|Lp\{v}|+Σ_e |Le\Lp|)
//
// where Lp is the pivot's boundary, Av the remaining direct neighbors
// of v and the sum runs over v's other adjacent elements. The |Le\Lp|
// terms for every element touching Lp are computed in one sweep over
// Lp (the w-array trick), so each elimination costs O(|Lp| + Σ|Ev|)
// instead of a reach() per affected vertex. Elements with Le ⊆ Lp are
// absorbed aggressively. Ties break to the lowest vertex index — the
// same deterministic rule as MinimumDegree.
func AMD(g *Graph) []int {
	defer observe(func(m *orderMetrics) *obs.Histogram { return m.amd })()
	n := g.N
	varAdj := make([][]int, n)  // remaining direct variable neighbors
	elemAdj := make([][]int, n) // adjacent element ids
	for v := 0; v < n; v++ {
		varAdj[v] = append([]int(nil), g.Neighbors(v)...)
	}
	elems := make([][]int, 0, n) // element id -> boundary (live subset lazily compacted)
	elemAlive := make([]bool, 0, n)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}

	deg := make([]int, n) // current degree bound d̄(v)
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
	}
	queue := newDegQueue(deg)

	mark := make([]int, n) // Lp membership stamp
	for i := range mark {
		mark[i] = -1
	}
	stamp := 0
	wStamp := make([]int, 0, n) // per-element w-array stamp
	wVal := make([]int, 0, n)   // per-element |Le \ Lp| accumulator

	// compactElem drops dead vertices from an element boundary and
	// returns its live size.
	compactElem := func(e int) int {
		bnd := elems[e][:0]
		for _, v := range elems[e] {
			if alive[v] {
				bnd = append(bnd, v)
			}
		}
		elems[e] = bnd
		return len(bnd)
	}

	lp := make([]int, 0, n)
	perm := make([]int, 0, n)
	for k := 0; k < n; k++ {
		p := queue.PopMin()
		// Build Lp = (Av ∪ ⋃ Le) \ {p}: the boundary of the new element.
		stamp++
		mark[p] = stamp
		lp = lp[:0]
		liveV := varAdj[p][:0]
		for _, v := range varAdj[p] {
			if alive[v] {
				liveV = append(liveV, v)
				if mark[v] != stamp {
					mark[v] = stamp
					lp = append(lp, v)
				}
			}
		}
		varAdj[p] = liveV
		liveE := elemAdj[p][:0]
		for _, e := range elemAdj[p] {
			if !elemAlive[e] {
				continue
			}
			liveE = append(liveE, e)
			for _, v := range elems[e] {
				if alive[v] && mark[v] != stamp {
					mark[v] = stamp
					lp = append(lp, v)
				}
			}
		}
		elemAdj[p] = liveE
		perm = append(perm, p)
		alive[p] = false
		// The pivot's elements are absorbed into the new one.
		for _, e := range elemAdj[p] {
			elemAlive[e] = false
		}
		ep := len(elems)
		elems = append(elems, append([]int(nil), lp...))
		elemAlive = append(elemAlive, true)
		wStamp = append(wStamp, 0)
		wVal = append(wVal, 0)

		// w-array sweep: for every live element e adjacent to some
		// v ∈ Lp, w[e] ends as |Le \ Lp| (first touch seeds the live
		// size, each Lp member found in Le subtracts one).
		for _, v := range lp {
			for _, e := range elemAdj[v] {
				if !elemAlive[e] {
					continue
				}
				if wStamp[e] != stamp {
					wStamp[e] = stamp
					wVal[e] = compactElem(e)
				}
				wVal[e]--
			}
		}

		// Degree update for every boundary vertex.
		for _, v := range lp {
			// Av loses dead vertices and Lp members (those adjacencies are
			// now represented by the new element).
			liveV := varAdj[v][:0]
			for _, u := range varAdj[v] {
				if alive[u] && mark[u] != stamp {
					liveV = append(liveV, u)
				}
			}
			varAdj[v] = liveV
			// Ev keeps live elements; |Le\Lp| == 0 means Le ⊆ Lp — the
			// element is indistinguishable from the new one, so absorb it
			// (aggressive absorption).
			liveE := elemAdj[v][:0]
			elemSum := 0
			for _, e := range elemAdj[v] {
				if !elemAlive[e] {
					continue
				}
				if wStamp[e] == stamp && wVal[e] == 0 {
					elemAlive[e] = false
					continue
				}
				liveE = append(liveE, e)
				if wStamp[e] == stamp {
					elemSum += wVal[e]
				} else {
					elemSum += compactElem(e)
				}
			}
			liveE = append(liveE, ep)
			elemAdj[v] = liveE
			d := len(varAdj[v]) + (len(lp) - 1) + elemSum
			if b := deg[v] + len(lp) - 1; b < d {
				d = b
			}
			if b := n - k - 1; b < d {
				d = b
			}
			if d < 0 {
				d = 0
			}
			deg[v] = d
			queue.Update(v, d)
		}
	}
	return perm
}
