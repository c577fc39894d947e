package order

import (
	"sort"

	"opera/internal/obs"
)

// RCM computes the reverse Cuthill–McKee ordering of the graph of a
// square matrix. It processes every connected component, rooting each at
// a pseudo-peripheral vertex, and returns the permutation p such that
// row/column p[k] of the original matrix becomes row/column k of the
// permuted matrix.
func RCM(g *Graph) []int {
	defer observe(func(m *orderMetrics) *obs.Histogram { return m.rcm })()
	n := g.N
	perm := make([]int, 0, n)
	visited := make([]bool, n)
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = true
	}
	level := make([]int, n)
	for i := range level {
		level[i] = -1
	}
	scratch := make([]int, 0, n)
	// Neighbor scratch reused across vertices; sorted by degree.
	var nbrs []int
	for s := 0; s < n; s++ {
		if visited[s] {
			continue
		}
		root, _ := g.PseudoPeripheral(s, mask, level, scratch)
		// Cuthill–McKee BFS from root, neighbors in increasing degree.
		start := len(perm)
		perm = append(perm, root)
		visited[root] = true
		for head := start; head < len(perm); head++ {
			v := perm[head]
			nbrs = nbrs[:0]
			for _, w := range g.Neighbors(v) {
				if !visited[w] {
					visited[w] = true
					nbrs = append(nbrs, w)
				}
			}
			// Ties broken by vertex index: sort.Slice is unstable, so
			// keying on degree alone would let equal-degree neighbors land
			// in an order that depends on the sort internals (and thus the
			// Go release), not on the graph.
			sort.Slice(nbrs, func(a, b int) bool {
				da, db := g.Degree(nbrs[a]), g.Degree(nbrs[b])
				if da != db {
					return da < db
				}
				return nbrs[a] < nbrs[b]
			})
			perm = append(perm, nbrs...)
		}
		// Reverse this component's segment.
		for i, j := start, len(perm)-1; i < j; i, j = i+1, j-1 {
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	return perm
}
