// Package factor implements sparse direct factorizations: an up-looking
// Cholesky (LLᵀ) with elimination-tree symbolic analysis and pattern
// reuse across numeric refactorizations, the supernodal blocked
// Cholesky that every solve path runs, and a left-looking
// Gilbert–Peierls LU with partial pivoting. All accept a fill-reducing
// permutation computed by package order. These are the solvers behind
// both the Monte Carlo baseline (thousands of refactorizations of one
// pattern) and the stochastic Galerkin solves: the eigenbasis path's
// shifted companions, the coupled preconditioner's companion and the
// augmented companion of a long window.
package factor

import "opera/internal/sparse"

// etree computes the elimination tree of a symmetric matrix whose upper
// triangle is stored in a (CSC, sorted). parent[k] = -1 marks a root.
func etree(a *sparse.Matrix) []int {
	n := a.Cols
	parent := make([]int, n)
	ancestor := make([]int, n)
	for k := 0; k < n; k++ {
		parent[k] = -1
		ancestor[k] = -1
		for p := a.Colp[k]; p < a.Colp[k+1]; p++ {
			i := a.Rowi[p]
			for i != -1 && i < k {
				inext := ancestor[i]
				ancestor[i] = k
				if inext == -1 {
					parent[i] = k
				}
				i = inext
			}
		}
	}
	return parent
}

// postorder computes a depth-first postordering of the elimination
// tree (forest), visiting each node's children in ascending order so
// the result is deterministic. Returns nil when the tree is already
// postordered — the common case for natural and dissection orderings —
// so callers can skip the relabeling.
func postorder(parent []int) []int {
	n := len(parent)
	// Child lists: filling in descending node order leaves each head
	// pointing at the smallest child, so the DFS pops children
	// ascending. Cell n collects the forest roots.
	head := make([]int, n+1)
	for i := range head {
		head[i] = -1
	}
	next := make([]int, n)
	for v := n - 1; v >= 0; v-- {
		p := parent[v]
		if p < 0 {
			p = n
		}
		next[v] = head[p]
		head[p] = v
	}
	post := make([]int, 0, n)
	stack := make([]int, 0, n)
	for r := head[n]; r != -1; r = next[r] {
		stack = append(stack, r)
		for len(stack) > 0 {
			j := stack[len(stack)-1]
			if c := head[j]; c != -1 {
				head[j] = next[c] // consume the child; revisit j after
				stack = append(stack, c)
				continue
			}
			post = append(post, j)
			stack = stack[:len(stack)-1]
		}
	}
	identity := true
	for k, v := range post {
		if v != k {
			identity = false
			break
		}
	}
	if identity {
		return nil
	}
	return post
}

// ereach computes the nonzero pattern of row k of the Cholesky factor L
// as the union of the tree paths from each entry of column k of A (upper
// triangle) to the root, stopping at already-marked vertices. The
// pattern is returned in s[top:n] in topological order (descendants
// first). w is a marker workspace tagged with the current k.
func ereach(a *sparse.Matrix, k int, parent []int, s, w []int) (top int) {
	n := a.Cols
	top = n
	w[k] = k // mark the diagonal
	for p := a.Colp[k]; p < a.Colp[k+1]; p++ {
		i := a.Rowi[p]
		if i > k {
			continue
		}
		// Walk up the elimination tree from i until hitting a marked
		// vertex, collecting the path.
		length := 0
		for w[i] != k {
			s[length] = i
			length++
			w[i] = k
			i = parent[i]
		}
		// Push the path (reversed) onto the output stack.
		for length > 0 {
			length--
			top--
			s[top] = s[length]
		}
	}
	return top
}
