package order

import "opera/internal/obs"

// MinimumDegree computes a minimum-degree ordering using the quotient
// graph (element) model: eliminating a vertex creates an element whose
// boundary is the union of the vertex's remaining neighbors and the
// boundaries of its adjacent elements; adjacent elements are absorbed.
// Degrees are recomputed exactly for the affected vertices. This is the
// classical (non-approximate) algorithm — O(n·k) per elimination where k
// is the clique size — adequate for the moderate systems where a
// minimum-degree order is preferable to nested dissection.
func MinimumDegree(g *Graph) []int {
	defer observe(func(m *orderMetrics) *obs.Histogram { return m.md })()
	n := g.N
	// Variable adjacency as mutable sets (slices, lazily cleaned).
	varAdj := make([][]int, n)  // adjacent *variables* (uneliminated)
	elemAdj := make([][]int, n) // adjacent element ids
	for v := 0; v < n; v++ {
		varAdj[v] = append([]int(nil), g.Neighbors(v)...)
	}
	elems := make([][]int, 0, n) // element id -> boundary variables
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	elemAlive := make([]bool, 0, n)

	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	stamp := 0

	// reach computes the current adjacency set (variables reachable
	// through direct edges or shared elements) of v into out.
	reach := func(v int, out []int) []int {
		stamp++
		mark[v] = stamp
		out = out[:0]
		live := varAdj[v][:0]
		for _, w := range varAdj[v] {
			if alive[w] {
				live = append(live, w)
				if mark[w] != stamp {
					mark[w] = stamp
					out = append(out, w)
				}
			}
		}
		varAdj[v] = live
		liveE := elemAdj[v][:0]
		for _, e := range elemAdj[v] {
			if !elemAlive[e] {
				continue
			}
			liveE = append(liveE, e)
			for _, w := range elems[e] {
				if alive[w] && mark[w] != stamp {
					mark[w] = stamp
					out = append(out, w)
				}
			}
		}
		elemAdj[v] = liveE
		return out
	}

	deg := make([]int, n)
	scratch := make([]int, 0, n)
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
	}
	// Candidate structure with the deterministic tie-break: among the
	// minimum-degree vertices, the lowest index is eliminated first.
	// (The previous LIFO bucket pop was deterministic but tied to
	// insertion history, which is much harder to reason about — and to
	// keep aligned with AMD, which promises the same rule.)
	queue := newDegQueue(deg)

	perm := make([]int, 0, n)
	for len(perm) < n {
		v := queue.PopMin()
		// Eliminate v.
		bnd := reach(v, scratch)
		scratch = bnd
		perm = append(perm, v)
		alive[v] = false
		// Absorb v's elements into a new element.
		for _, e := range elemAdj[v] {
			elemAlive[e] = false
		}
		eid := len(elems)
		elems = append(elems, append([]int(nil), bnd...))
		elemAlive = append(elemAlive, true)
		// Iterate over the stable element copy: reach() below
		// reuses scratch, which bnd aliases.
		for _, w := range elems[eid] {
			elemAdj[w] = append(elemAdj[w], eid)
			nd := len(reach(w, scratch[:0]))
			deg[w] = nd
			queue.Update(w, nd)
		}
	}
	return perm
}
