// Package order provides fill-reducing orderings for sparse symmetric
// factorization: approximate minimum degree (the default), George–Liu
// automatic nested dissection, exact minimum degree and reverse
// Cuthill–McKee (bandwidth reduction). All orderings operate on the
// undirected adjacency graph of A + Aᵀ with the diagonal removed and
// return a permutation p in "new = old[p[new]]" convention, suitable for
// sparse.Matrix.SymPerm. Solvers select one by Method and compute it
// with Permute.
package order

import "opera/internal/sparse"

// Graph is a compact undirected adjacency structure.
type Graph struct {
	N   int
	Ptr []int // length N+1
	Adj []int // concatenated neighbor lists, no self loops
}

// NewGraph builds the adjacency graph of A + Aᵀ (pattern only, diagonal
// dropped). A need not be symmetric.
func NewGraph(a *sparse.Matrix) *Graph {
	if a.Rows != a.Cols {
		panic("order: NewGraph requires a square matrix")
	}
	n := a.Rows
	// Count degree contributions from both A and Aᵀ; duplicates are
	// removed with a marker pass.
	deg := make([]int, n)
	for j := 0; j < n; j++ {
		for p := a.Colp[j]; p < a.Colp[j+1]; p++ {
			i := a.Rowi[p]
			if i == j {
				continue
			}
			deg[i]++
			deg[j]++
		}
	}
	ptr := make([]int, n+1)
	for v := 0; v < n; v++ {
		ptr[v+1] = ptr[v] + deg[v]
	}
	adj := make([]int, ptr[n])
	next := make([]int, n)
	copy(next, ptr[:n])
	for j := 0; j < n; j++ {
		for p := a.Colp[j]; p < a.Colp[j+1]; p++ {
			i := a.Rowi[p]
			if i == j {
				continue
			}
			adj[next[i]] = j
			next[i]++
			adj[next[j]] = i
			next[j]++
		}
	}
	// Deduplicate neighbor lists with a marker array.
	mark := make([]int, n)
	for v := range mark {
		mark[v] = -1
	}
	nz := 0
	newPtr := make([]int, n+1)
	for v := 0; v < n; v++ {
		newPtr[v] = nz
		for p := ptr[v]; p < ptr[v+1]; p++ {
			w := adj[p]
			if mark[w] != v {
				mark[w] = v
				adj[nz] = w
				nz++
			}
		}
	}
	newPtr[n] = nz
	return &Graph{N: n, Ptr: newPtr, Adj: adj[:nz]}
}

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int { return g.Ptr[v+1] - g.Ptr[v] }

// Neighbors returns the neighbor list of v (shared storage; do not
// modify).
func (g *Graph) Neighbors(v int) []int { return g.Adj[g.Ptr[v]:g.Ptr[v+1]] }

// levelStructure performs a BFS from root restricted to vertices where
// mask[v] holds, filling level numbers into level (which must be
// preset to -1 for vertices in the component) and appending the visit
// order to out. It returns the visited vertices grouped contiguously in
// out along with the index where each level begins.
func (g *Graph) levelStructure(root int, mask []bool, level []int, queue []int) (order []int, levelPtr []int) {
	queue = queue[:0]
	queue = append(queue, root)
	level[root] = 0
	levelPtr = append(levelPtr, 0)
	head := 0
	cur := 0
	for head < len(queue) {
		v := queue[head]
		if level[v] > cur {
			levelPtr = append(levelPtr, head)
			cur = level[v]
		}
		head++
		for _, w := range g.Neighbors(v) {
			if mask[w] && level[w] < 0 {
				level[w] = level[v] + 1
				queue = append(queue, w)
			}
		}
	}
	levelPtr = append(levelPtr, len(queue))
	return queue, levelPtr
}

// PseudoPeripheral finds a pseudo-peripheral vertex of the component of
// start (restricted to mask) using the George–Liu iteration: repeatedly
// root a level structure and move to a minimum-degree vertex in the last
// level until the eccentricity stops growing. It returns the vertex and
// the number of levels of its rooted level structure.
func (g *Graph) PseudoPeripheral(start int, mask []bool, level []int, scratch []int) (root, height int) {
	root = start
	resetLevels := func(order []int) {
		for _, v := range order {
			level[v] = -1
		}
	}
	order, lp := g.levelStructure(root, mask, level, scratch)
	height = len(lp) - 1
	for {
		// Minimum-degree vertex in the deepest level.
		last := order[lp[len(lp)-2]:lp[len(lp)-1]]
		best := last[0]
		for _, v := range last[1:] {
			if g.Degree(v) < g.Degree(best) {
				best = v
			}
		}
		resetLevels(order)
		order2, lp2 := g.levelStructure(best, mask, level, scratch)
		h2 := len(lp2) - 1
		if h2 <= height {
			resetLevels(order2)
			// Re-establish levels for the chosen root so callers can
			// reuse them if desired; we leave them cleared for safety.
			return root, height
		}
		root, height = best, h2
		order, lp = order2, lp2
	}
}
