package order

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// scanQueue is the bucket-scan degree queue the heap replaced, kept as
// the reference: PopMin rescans the whole minimum-degree bucket for
// the lowest index.
type scanQueue struct {
	b   [][]int
	cur []int
	min int
}

func newScanQueue(deg []int, maxDeg int) *scanQueue {
	d := &scanQueue{b: make([][]int, maxDeg+1), cur: make([]int, len(deg))}
	for v, dv := range deg {
		d.cur[v] = dv
		d.b[dv] = append(d.b[dv], v)
	}
	return d
}

func (d *scanQueue) Update(v, nd int) {
	d.cur[v] = nd
	d.b[nd] = append(d.b[nd], v)
	if nd < d.min {
		d.min = nd
	}
}

func (d *scanQueue) PopMin() int {
	for d.min < len(d.b) {
		bucket := d.b[d.min]
		live := bucket[:0]
		best := -1
		for _, v := range bucket {
			if d.cur[v] != d.min {
				continue
			}
			live = append(live, v)
			if best < 0 || v < best {
				best = v
			}
		}
		if best < 0 {
			d.b[d.min] = live
			d.min++
			continue
		}
		for i, v := range live {
			if v == best {
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				break
			}
		}
		d.b[d.min] = live
		d.cur[best] = -1
		return best
	}
	return -1
}

// TestDegQueueMatchesScan drives the heap and the reference scan with
// the same random interleaving of degree updates and pops — including
// repeated updates to one degree and updates back to an old degree,
// which leave several keys per vertex — and requires identical pops.
func TestDegQueueMatchesScan(t *testing.T) {
	check := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(size)%60 + 1
		deg := make([]int, n)
		for v := range deg {
			deg[v] = rng.Intn(n)
		}
		heap, ref := newDegQueue(deg), newScanQueue(deg, n)
		live := make([]bool, n)
		for v := range live {
			live[v] = true
		}
		for popped := 0; popped < n; {
			if rng.Intn(3) == 0 {
				got, want := heap.PopMin(), ref.PopMin()
				if got != want {
					t.Logf("seed %d n %d: heap popped %d, scan popped %d", seed, n, got, want)
					return false
				}
				live[got] = false
				popped++
				continue
			}
			if v := rng.Intn(n); live[v] {
				nd := rng.Intn(n)
				heap.Update(v, nd)
				ref.Update(v, nd)
			}
		}
		return heap.PopMin() == -1 && ref.PopMin() == -1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
