package order

// degQueue is the degree-ordered candidate queue shared by the
// minimum-degree orderings: a binary min-heap of (degree, vertex) keys
// with lazy invalidation. Update pushes a fresh key instead of moving
// the old one; a popped key whose degree no longer matches the vertex's
// recorded degree is stale and skipped. Keys order by degree, then by
// vertex index, so PopMin returns the lowest-index vertex among the
// minimum current degree — the deterministic tie-break both
// MinimumDegree and AMD promise.
type degQueue struct {
	keys []uint64 // degree<<32 | vertex
	cur  []int    // recorded degree per vertex; -1 once popped
}

func degKey(deg, v int) uint64 { return uint64(deg)<<32 | uint64(v) }

func newDegQueue(deg []int) *degQueue {
	q := &degQueue{
		keys: make([]uint64, len(deg)),
		cur:  append([]int(nil), deg...),
	}
	for v, dv := range deg {
		q.keys[v] = degKey(dv, v)
	}
	for i := len(q.keys)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
	return q
}

// Update records v's new degree nd (the old key goes stale).
func (q *degQueue) Update(v, nd int) {
	if q.cur[v] == nd {
		return // the live key already carries nd
	}
	q.cur[v] = nd
	q.keys = append(q.keys, degKey(nd, v))
	q.up(len(q.keys) - 1)
}

// PopMin extracts the lowest-index vertex of minimum degree, or -1
// when no live vertex remains.
func (q *degQueue) PopMin() int {
	for len(q.keys) > 0 {
		k := q.keys[0]
		last := len(q.keys) - 1
		q.keys[0] = q.keys[last]
		q.keys = q.keys[:last]
		if last > 0 {
			q.down(0)
		}
		v, deg := int(k&(1<<32-1)), int(k>>32)
		if q.cur[v] == deg {
			q.cur[v] = -1
			return v
		}
	}
	return -1
}

func (q *degQueue) up(i int) {
	k := q.keys[i]
	for i > 0 {
		p := (i - 1) / 2
		if q.keys[p] <= k {
			break
		}
		q.keys[i] = q.keys[p]
		i = p
	}
	q.keys[i] = k
}

func (q *degQueue) down(i int) {
	n := len(q.keys)
	k := q.keys[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q.keys[c+1] < q.keys[c] {
			c++
		}
		if k <= q.keys[c] {
			break
		}
		q.keys[i] = q.keys[c]
		i = c
	}
	q.keys[i] = k
}
